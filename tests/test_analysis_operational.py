"""Operational boomerlint tests: robust walking, SARIF, baseline, cache.

Covers the PR's satellite fixes (unreadable / non-UTF-8 files must not
abort the run; directory walks must skip ``__pycache__``, hidden dirs,
and virtualenvs), the suppress edge cases, and the two new CI modes:
``--baseline`` ratcheting and the content-hash incremental cache — whose
acceptance criterion (warm run under half the cold time on the shipped
tree) is asserted here.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    LintEngine,
    apply_baseline,
    load_baseline,
    to_sarif,
    write_baseline,
)
from repro.analysis.engine import PARSE_RULE
from repro.cli import EXIT_ERROR, EXIT_OK, main


def tree_with_violation(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    pkg.mkdir(exist_ok=True)
    (pkg / "bad.py").write_text("import random\n", encoding="utf-8")
    (pkg / "good.py").write_text("x = 1\n", encoding="utf-8")
    return tmp_path


class TestRobustWalking:
    def test_non_utf8_file_reported_not_fatal(self, tmp_path):
        pkg = tree_with_violation(tmp_path)
        (pkg / "repro" / "latin.py").write_bytes(b"x = '\xe9'\n")
        report = LintEngine.for_rule_ids(["R1"]).lint_paths([pkg])
        parse = [v for v in report.violations if v.rule == PARSE_RULE]
        assert len(parse) == 1 and "UTF-8" in parse[0].message
        # The rest of the tree was still linted.
        assert any(v.rule == "R1" for v in report.violations)
        assert report.files_checked == 3

    def test_unreadable_file_reported_not_fatal(self, tmp_path, monkeypatch):
        pkg = tree_with_violation(tmp_path)
        locked = pkg / "repro" / "locked.py"
        locked.write_text("x = 1\n", encoding="utf-8")
        real = Path.read_bytes

        def guarded(self):
            if self.name == "locked.py":
                raise PermissionError(13, "Permission denied")
            return real(self)

        monkeypatch.setattr(Path, "read_bytes", guarded)
        report = LintEngine.for_rule_ids(["R1"]).lint_paths([pkg])
        parse = [v for v in report.violations if v.rule == PARSE_RULE]
        assert len(parse) == 1 and "cannot be read" in parse[0].message
        assert any(v.rule == "R1" for v in report.violations)

    def test_walk_skips_pycache_hidden_and_virtualenvs(self, tmp_path):
        (tmp_path / "real.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("import random\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "h.py").write_text("import random\n")
        venv = tmp_path / "venv"
        (venv / "lib").mkdir(parents=True)
        (venv / "pyvenv.cfg").write_text("home = /usr\n")
        (venv / "lib" / "site.py").write_text("import random\n")
        from repro.analysis.engine import iter_python_files

        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]

    def test_explicitly_named_directory_is_never_excluded(self, tmp_path):
        hidden = tmp_path / ".ci"
        hidden.mkdir()
        (hidden / "check.py").write_text("x = 1\n")
        from repro.analysis.engine import iter_python_files

        assert [f.name for f in iter_python_files([hidden])] == ["check.py"]


class TestSuppressEdgeCases:
    def test_multiple_rule_ids_in_one_directive(self):
        src = (
            "import random  # boomerlint: disable=R1,R5\n"
        )
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert report.ok and report.suppressed == 1

    def test_unknown_rule_id_is_tolerated_but_inert(self):
        src = "import random  # boomerlint: disable=R99\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert not report.ok  # R99 does not cover R1

    def test_unknown_id_alongside_known_still_suppresses(self):
        src = "import random  # boomerlint: disable=R99,R1\n"
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert report.ok and report.suppressed == 1

    def test_directive_on_continuation_anchor_line_suppresses(self):
        # The violation anchors where the statement starts; a trailing
        # directive on that physical line covers the whole statement even
        # though it continues across lines.
        src = (
            "from random import (  # boomerlint: disable=R1\n"
            "    Random,\n"
            ")\n"
        )
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert report.ok and report.suppressed == 1

    def test_directive_on_later_continuation_line_does_not_reach_back(self):
        src = (
            "from random import (\n"
            "    Random,\n"
            ")  # boomerlint: disable=R1\n"
        )
        report = LintEngine.for_rule_ids(["R1"]).lint_source(src, "repro/mod.py")
        assert not report.ok


class TestSarif:
    def test_sarif_shape(self, tmp_path):
        engine = LintEngine.for_rule_ids(["R1"])
        report = engine.lint_paths([tree_with_violation(tmp_path)])
        log = to_sarif(report, engine.rules)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "boomerlint"
        assert run["tool"]["driver"]["rules"][0]["id"] == "R1"
        result = run["results"][0]
        assert result["ruleId"] == "R1"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1

    def test_cli_format_sarif(self, tmp_path, capsys):
        tree_with_violation(tmp_path)
        code = main(["lint", str(tmp_path), "--format", "sarif"])
        assert code == EXIT_ERROR
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"]


class TestBaseline:
    def test_ratchet_tolerates_recorded_debt_only(self, tmp_path):
        engine = LintEngine.for_rule_ids(["R1"])
        report = engine.lint_paths([tree_with_violation(tmp_path)])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, report.violations)

        fresh, tolerated = apply_baseline(
            report.violations, load_baseline(baseline_file)
        )
        assert fresh == [] and tolerated == len(report.violations)

        # A *new* violation is not covered by the ratchet.
        (tmp_path / "repro" / "worse.py").write_text("import random\n")
        report2 = engine.lint_paths([tmp_path])
        fresh2, _ = apply_baseline(
            report2.violations, load_baseline(baseline_file)
        )
        assert len(fresh2) == 1
        assert "worse.py" in fresh2[0].path

    def test_cli_update_then_enforce(self, tmp_path, capsys):
        tree_with_violation(tmp_path)
        baseline_file = tmp_path / "baseline.json"
        assert (
            main(
                ["lint", str(tmp_path), "--update-baseline", str(baseline_file)]
            )
            == EXIT_OK
        )
        assert baseline_file.is_file()
        capsys.readouterr()
        # Same tree + baseline: the gate passes despite the recorded debt.
        assert (
            main(["lint", str(tmp_path), "--baseline", str(baseline_file)])
            == EXIT_OK
        )
        # New debt: the gate fails and reports only the new violation.
        (tmp_path / "repro" / "worse.py").write_text("import random\n")
        capsys.readouterr()
        assert (
            main(["lint", str(tmp_path), "--baseline", str(baseline_file)])
            == EXIT_ERROR
        )
        out = capsys.readouterr().out
        assert "worse.py" in out and "bad.py" not in out

    def test_missing_baseline_file_is_a_usage_error(self, tmp_path, capsys):
        tree_with_violation(tmp_path)
        code = main(
            ["lint", str(tmp_path), "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == EXIT_ERROR
        assert "update-baseline" in capsys.readouterr().err


class TestIncrementalCache:
    def test_warm_run_serves_from_cache_with_identical_report(self, tmp_path):
        root = tree_with_violation(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        engine = LintEngine()
        cold = engine.lint_paths([root], cache=engine.open_cache(cache_file))
        assert cold.cache_hits == 0 and cache_file.is_file()

        warm_engine = LintEngine()
        warm = warm_engine.lint_paths(
            [root], cache=warm_engine.open_cache(cache_file)
        )
        assert warm.cache_hits == warm.files_checked
        assert [v.format() for v in warm.violations] == [
            v.format() for v in cold.violations
        ]
        assert warm.suppressed == cold.suppressed

    def test_edited_file_misses_and_reanalyzes(self, tmp_path):
        root = tree_with_violation(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        engine = LintEngine.for_rule_ids(["R1"])
        engine.lint_paths([root], cache=engine.open_cache(cache_file))

        # Distinct bytes from bad.py: the cache is content-addressed, so
        # an identical copy of an already-seen file would (correctly) hit.
        (root / "repro" / "good.py").write_text("import time\nimport random\n")
        warm = engine.lint_paths([root], cache=engine.open_cache(cache_file))
        assert warm.cache_hits == warm.files_checked - 1
        assert any("good.py" in v.path for v in warm.violations)

    def test_ruleset_change_invalidates_everything(self, tmp_path):
        root = tree_with_violation(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        engine = LintEngine.for_rule_ids(["R1"])
        engine.lint_paths([root], cache=engine.open_cache(cache_file))

        other = LintEngine.for_rule_ids(["R1", "R2"])
        warm = other.lint_paths([root], cache=other.open_cache(cache_file))
        assert warm.cache_hits == 0

    def test_project_rules_recompute_from_cached_facts(self, tmp_path):
        from tests.test_analysis_project import PROTOCOL_OK, write_tree

        drifted = PROTOCOL_OK.replace('("ping", "run")', '("ping", "run", "mystery")')
        root = write_tree(tmp_path, protocol=drifted)
        cache_file = tmp_path / "lint-cache.json"
        engine = LintEngine.for_rule_ids(["R9"])
        cold = engine.lint_paths([root], cache=engine.open_cache(cache_file))
        assert not cold.ok

        warm = engine.lint_paths([root], cache=engine.open_cache(cache_file))
        assert warm.cache_hits == warm.files_checked
        # The cross-module drift is still reported on a fully-warm run.
        assert [v.format() for v in warm.violations] == [
            v.format() for v in cold.violations
        ]

    def test_corrupt_cache_file_starts_cold(self, tmp_path):
        root = tree_with_violation(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        cache_file.write_text("{not json", encoding="utf-8")
        engine = LintEngine.for_rule_ids(["R1"])
        report = engine.lint_paths([root], cache=engine.open_cache(cache_file))
        assert report.cache_hits == 0 and not report.ok

    def test_cli_cache_flag(self, tmp_path, capsys):
        tree_with_violation(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        main(["lint", str(tmp_path), "--cache", str(cache_file)])
        capsys.readouterr()
        main(["lint", str(tmp_path), "--cache", str(cache_file)])
        err = capsys.readouterr().err
        assert "cache: 2 hit(s), 0 miss(es)" in err

    @pytest.mark.slow
    def test_warm_cache_halves_full_tree_lint(self, tmp_path):
        """The acceptance criterion: warm < cold/2 on the shipped tree."""
        tree = Path(repro.__file__).parent
        cache_file = tmp_path / "lint-cache.json"

        engine = LintEngine()
        start = time.perf_counter()
        cold = engine.lint_paths([tree], cache=engine.open_cache(cache_file))
        cold_s = time.perf_counter() - start
        assert cold.ok and cold.cache_hits == 0

        warm_engine = LintEngine()
        start = time.perf_counter()
        warm = warm_engine.lint_paths(
            [tree], cache=warm_engine.open_cache(cache_file)
        )
        warm_s = time.perf_counter() - start
        assert warm.ok and warm.cache_hits == warm.files_checked
        assert warm_s < cold_s / 2, (
            f"warm lint {warm_s:.3f}s not under half of cold {cold_s:.3f}s"
        )
