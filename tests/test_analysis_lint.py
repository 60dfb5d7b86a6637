"""Engine-level boomerlint tests: walking, CLI, self-clean, seeded mutations.

The meta-test at the bottom is the PR's own gate: the shipped ``src/repro``
tree must lint clean under every rule — CI runs the same check via
``python -m repro lint src/repro``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import LintEngine, all_rules, get_rules, module_key, rule_ids
from repro.analysis.engine import PARSE_RULE, iter_python_files
from repro.cli import EXIT_ERROR, EXIT_OK, main
from repro.errors import LintUsageError


class TestRegistry:
    def test_rule_catalog_registered(self):
        # Ids are never renumbered (an old diagnostic, commit message or
        # doc that names a rule keeps its meaning): the gaps are retired
        # rules.
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
    # ``repro update-check`` draws its graphs and edits from an unseeded
    # generator, so a failing check no longer replays from its --seed.
    "R1": (
        "cli.py",
        [
            ("from repro.utils.rng import seeded_rng", "import random"),
            ("seeded_rng(args.seed)", "random.Random()"),
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
    # Algorithm 10's idle probes leave the taxonomy: ``trace`` no longer
    # counts them in ``idle_probe`` and ``pool_probes``.
    "R4": (
        "core/blender.py",
        [
            (
                'self.tracer.span("pool.probe", budget=budget.limit)',
                'self.tracer.span("pool.idle", budget=budget.limit)',
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


#: An inline disable directive, spelled in two pieces so a search for it
#: finds only this pin.  Appended to each edited line of a seeded
#: mutation, it must change nothing: no comment silences a rule.
DISABLE_COMMENT = "  # boomerlint: " "disable=R1"


class TestSeededMutations:
    def test_every_rule_has_a_seeded_mutation(self):
        assert sorted(SEEDED_MUTATIONS) == sorted(rule_ids())

    @pytest.mark.parametrize(
        "rule, trailer",
        [pytest.param(rule, "", id=rule) for rule in sorted(SEEDED_MUTATIONS)]
        + [pytest.param("R1", DISABLE_COMMENT, id="R1-disable-comment")],
    )
    def test_seeded_mutation_caught(self, tmp_path, rule, trailer):
        """The real module lints clean under ``rule``; with the edit
        applied (each edited line ending in ``trailer``), in a copy under
        the same package layout, it does not."""
        relative, edits = SEEDED_MUTATIONS[rule]
        text = (Path(repro.__file__).parent / relative).read_text(encoding="utf-8")
        target = tmp_path / "repro" / relative
        target.parent.mkdir(parents=True)
        engine = LintEngine.for_rule_ids([rule])
        target.write_text(text, encoding="utf-8")
        assert engine.lint_paths([target]).ok
        for old, new in edits:
            assert text.count(old) == 1, f"the {rule} mutation no longer applies: {old!r}"
            text = text.replace(old, new + trailer)
        target.write_text(text, encoding="utf-8")
        report = engine.lint_paths([target])
        assert report.violations
        assert {v.rule for v in report.violations} == {rule}
