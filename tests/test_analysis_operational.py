"""Operational boomerlint tests: robust walking.

Unreadable and non-UTF-8 files must not abort the run; directory walks
must skip ``__pycache__``, hidden dirs, and virtualenvs.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import LintEngine
from repro.analysis.engine import PARSE_RULE


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
