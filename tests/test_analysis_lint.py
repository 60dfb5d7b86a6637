"""Engine-level boomerlint tests: walking, suppressions, CLI, self-clean.

The meta-test at the bottom is the PR's own gate: the shipped ``src/repro``
tree must lint clean under every rule — CI runs the same check via
``python -m repro lint src/repro``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine, all_rules, get_rules, module_key, rule_ids
from repro.analysis.engine import PARSE_RULE, iter_python_files
from repro.analysis.suppress import parse_suppressions
from repro.cli import EXIT_ERROR, EXIT_OK, main
from repro.errors import LintUsageError


class TestRegistry:
    def test_rule_catalog_registered(self):
        # Ids are never renumbered (SARIF results stay comparable): the
        # gaps are retired rules.
        assert rule_ids() == ["R1", "R2", "R4", "R6", "R12"]

    def test_get_rules_subset_and_order(self):
        rules = get_rules(["R12", "R1"])
        assert [r.id for r in rules] == ["R12", "R1"]

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(LintUsageError, match="R99"):
            get_rules(["R99"])

    def test_every_rule_has_title(self):
        for rule in all_rules():
            assert rule.id and rule.title


class TestModuleKey:
    def test_strips_prefix_to_last_repro(self):
        key = module_key(Path("/tmp/x/repro/service/manager.py"))
        assert key == "repro/service/manager.py"

    def test_nested_repro_uses_last(self):
        key = module_key(Path("/repro/old/repro/cli.py"))
        assert key == "repro/cli.py"

    def test_no_repro_component_keys_as_filename(self):
        assert module_key(Path("/tmp/fixture.py")) == "fixture.py"


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        report = LintEngine().lint_source("def broken(:\n")
        assert not report.ok
        assert report.violations[0].rule == PARSE_RULE
        assert "does not parse" in report.violations[0].message

    def test_violations_sorted_by_location(self):
        src = "t = time.time()\nimport random\nimport time\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(
            src, "repro/mod.py"
        )
        lines = [v.line for v in report.violations]
        assert lines == sorted(lines)

    def test_format_is_file_line_col_rule(self):
        report = LintEngine.for_rule_ids(["R1"]).lint_source(
            "import random\n", "repro/mod.py"
        )
        text = report.violations[0].format()
        assert text.startswith("repro/mod.py:1:1: R1 ")

    def test_missing_path_raises_usage_error(self):
        with pytest.raises(LintUsageError, match="no such file"):
            LintEngine().lint_paths([Path("/nonexistent/nowhere")])

    def test_iter_python_files_dedupes_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("y = 2\n")
        (tmp_path / "not_python.txt").write_text("ignored\n")
        files = iter_python_files([tmp_path, tmp_path / "a.py"])
        assert [f.name for f in files] == ["a.py", "b.py"]

    def test_lint_paths_over_tree(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\n")
        (pkg / "good.py").write_text("x = 1\n")
        report = LintEngine.for_rule_ids(["R1"]).lint_paths([tmp_path])
        assert report.files_checked == 2
        assert [v.rule for v in report.violations] == ["R1"]

    def test_report_to_dict_round_trips_json(self):
        report = LintEngine.for_rule_ids(["R1"]).lint_source(
            "import random\n", "repro/mod.py"
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "R1"
        assert payload["violations"][0]["line"] == 1


class TestSuppressions:
    def test_trailing_disable_suppresses_that_line(self):
        report = LintEngine.for_rule_ids(["R1"]).lint_source(
            "import random  # boomerlint: disable=R1\n", "repro/mod.py"
        )
        assert report.ok and report.suppressed == 1

    def test_banner_disable_guards_next_line(self):
        src = "# boomerlint: disable=R1\nimport random\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert report.ok and report.suppressed == 1

    def test_disable_file_covers_whole_module(self):
        src = "# boomerlint: disable-file=R1\nimport random\nimport random\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert report.ok and report.suppressed == 2

    def test_all_keyword(self):
        src = "import random  # boomerlint: disable=all\n"
        report = LintEngine().lint_source(src, "repro/mod.py")
        assert report.ok

    def test_wrong_rule_id_does_not_suppress(self):
        src = "import random  # boomerlint: disable=R2\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert not report.ok

    def test_directive_in_string_literal_ignored(self):
        src = 's = "# boomerlint: disable-file=R1"\nimport random\n'
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert not report.ok

    def test_parse_suppressions_shape(self):
        sup = parse_suppressions(
            "# boomerlint: disable-file=R3\nx = 1  # boomerlint: disable=R1,R2\n"
        )
        assert sup.suppressed("R3", 999)
        assert sup.suppressed("R1", 2) and sup.suppressed("R2", 2)
        assert not sup.suppressed("R1", 1)


class TestLintCLI:
    def test_clean_tree_exits_ok(self, tmp_path, capsys):
        (tmp_path / "fine.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == EXIT_OK

    def test_violations_exit_error_with_diagnostics(self, tmp_path, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        bad = pkg / "bad.py"
        bad.write_text("import random\n")
        assert main(["lint", str(tmp_path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert f"{bad}:1:1: R1" in out

    def test_rules_filter(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\n")
        # R2 alone does not care about the import.
        assert main(["lint", str(tmp_path), "--rules", "R2"]) == EXIT_OK

    def test_json_format(self, tmp_path, capsys):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == EXIT_ERROR
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "R1"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert listed == {"R1", "R2", "R4", "R6", "R12"}

    def test_missing_path_exits_error(self, capsys):
        assert main(["lint", "/nonexistent/nowhere"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestSelfClean:
    def test_shipped_tree_lints_clean(self):
        """The acceptance gate: boomerlint passes on its own codebase."""
        tree = Path(repro.__file__).parent
        report = LintEngine().lint_paths([tree])
        assert report.files_checked > 50
        assert report.ok, "\n".join(v.format() for v in report.violations)

    def test_reintroduced_violation_caught(self, tmp_path):
        """Raw ``random`` back in the latency model's jitter is caught."""
        source = Path(repro.__file__).parent / "gui" / "latency.py"
        regressed = tmp_path / "repro" / "gui"
        regressed.mkdir(parents=True)
        text = source.read_text(encoding="utf-8").replace(
            "from repro.utils.rng import seeded_rng", "import random"
        ).replace("seeded_rng(seed)", "random.Random(seed)")
        (regressed / "latency.py").write_text(text, encoding="utf-8")
        report = LintEngine.for_rule_ids(["R1"]).lint_paths([regressed])
        assert not report.ok
        assert all(v.rule == "R1" for v in report.violations)


#: A rule keeps its place only with a seeded mutation: a small edit to a
#: real module that introduces the defect the rule exists for, which the
#: rule flags and the runtime suite (``pytest --ignore-glob=
#: 'tests/test_analysis_*.py'``) does not.  Each entry is the module and
#: its ``(old, new)`` edits; docs/ANALYSIS.md names the defect.
SEEDED_MUTATIONS: dict[str, tuple[str, list[tuple[str, str]]]] = {
    # The soak's SIGKILL target stops following the workload seed, so a
    # failing soak no longer replays from its seed.
    "R1": (
        "soak/harness.py",
        [
            ("from repro.utils.rng import seeded_rng", "import random"),
            ("seeded_rng(workload.seed).choice(", "random.choice("),
        ],
    ),
    # A request line that is JSON but not an object is answered
    # internal_error instead of the typed bad_request.
    "R2": (
        "service/protocol.py",
        [
            (
                'raise ProtocolError("request must be a JSON object")',
                'raise ValueError("request must be a JSON object")',
            )
        ],
    ),
    # The scheduler's donated probes leave the taxonomy: ``trace`` no
    # longer counts them in ``idle_probe`` and ``pool_probes``.
    "R4": (
        "core/blender.py",
        [
            (
                'self.tracer.span("pool.probe", donated=True)',
                'self.tracer.span("pool.donated", donated=True)',
            )
        ],
    ),
    # Every tenant's request, the overload door and drain's timeout wait
    # out one session's Run behind the manager lock.
    "R6": (
        "service/manager.py",
        [
            (
                "            with session.lock:\n"
                "                self._touch(session)\n"
                "                try:\n"
                "                    result = session.run()",
                "            with session.lock, self._lock:\n"
                "                self._touch(session)\n"
                "                try:\n"
                "                    result = session.run()",
            )
        ],
    ),
    # An unsynchronized copy of the session table beside its locked
    # writers: a concurrent close can change it mid-copy.
    "R12": (
        "service/manager.py",
        [
            (
                "        with self._lock:\n            return list(self._sessions)",
                "        return list(self._sessions)",
            )
        ],
    ),
}


class TestSeededMutations:
    def test_every_rule_has_a_seeded_mutation(self):
        assert sorted(SEEDED_MUTATIONS) == sorted(rule_ids())

    @pytest.mark.parametrize("rule", sorted(SEEDED_MUTATIONS))
    def test_seeded_mutation_caught(self, tmp_path, rule):
        """The real module lints clean under ``rule``; with the edit
        applied, in a copy under the same package layout, it does not."""
        relative, edits = SEEDED_MUTATIONS[rule]
        text = (Path(repro.__file__).parent / relative).read_text(encoding="utf-8")
        target = tmp_path / "repro" / relative
        target.parent.mkdir(parents=True)
        engine = LintEngine.for_rule_ids([rule])
        target.write_text(text, encoding="utf-8")
        assert engine.lint_paths([target]).ok
        for old, new in edits:
            assert text.count(old) == 1, f"the {rule} mutation no longer applies: {old!r}"
            text = text.replace(old, new)
        target.write_text(text, encoding="utf-8")
        report = engine.lint_paths([target])
        assert report.violations
        assert {v.rule for v in report.violations} == {rule}
