"""The boomerlint engine: file walking, parsing, rule dispatch, reporting.

The engine is deliberately *static*: it parses files with :mod:`ast` and
never imports the code under analysis, so linting a broken tree cannot
execute broken code.  Rules are scoped by **module key** — the path tail
starting at the last ``repro`` component (``repro/service/manager.py``)
— so fixtures in a temp directory exercise path-scoped rules simply by
recreating the package layout underneath any root.

A file that does not parse, does not decode as UTF-8, or cannot be read
at all is reported as a ``PARSE`` violation rather than aborting the
run: CI should list every problem of a tree in one pass, and a broken
module must not hide rule hits in the other hundred.

One pass: every rule sees one module at a time, and every hit is
reported.  No comment in the source can silence a rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.registry import Rule, Violation, all_rules, get_rules
from repro.errors import LintUsageError

__all__ = ["ModuleSource", "LintReport", "LintEngine", "module_key", "iter_python_files"]

#: Rule id used for files that cannot be read, decoded or parsed.
PARSE_RULE = "PARSE"


def module_key(path: Path) -> str:
    """The repro-rooted posix key of ``path`` (used for rule scoping).

    ``/any/prefix/repro/service/manager.py`` -> ``repro/service/manager.py``;
    a path with no ``repro`` component keys as its bare filename, which
    matches no path-scoped rule — exactly right for loose fixture files.
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def _is_excluded_dir(path: Path) -> bool:
    """Directories a recursive walk must not enter: caches, hidden trees,
    and virtualenvs (detected by their ``pyvenv.cfg`` marker)."""
    name = path.name
    if name == "__pycache__" or name.startswith("."):
        return True
    return (path / "pyvenv.cfg").is_file()


def _walk_dir(root: Path) -> Iterator[Path]:
    for entry in sorted(root.iterdir()):
        if entry.is_dir():
            if not _is_excluded_dir(entry):
                yield from _walk_dir(entry)
        elif entry.suffix == ".py" and entry.is_file():
            yield entry


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    Recursion skips ``__pycache__``, hidden directories, and virtualenvs
    so ``repro lint .`` at a repo root is usable; an explicitly named
    path is never excluded (naming it is opting in).
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            seen.update(_walk_dir(path))
        elif path.is_file():
            seen.add(path)
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    return sorted(seen)


@dataclass
class ModuleSource:
    """One parsed module, as rules see it."""

    display: str  # path as given (what violations print)
    key: str  # repro-rooted key (what scoping matches)
    tree: ast.Module


@dataclass
class LintReport:
    """Outcome of one engine run over a set of paths."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """True when the tree is clean (exit code 0)."""
        return not self.violations


class LintEngine:
    """Runs a rule set over source files and folds results into a report."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()

    @classmethod
    def for_rule_ids(cls, ids: Iterable[str]) -> "LintEngine":
        """An engine restricted to the given rule ids."""
        return cls(rules=get_rules(ids))

    # -- entry points ----------------------------------------------------
    def lint_paths(self, paths: Iterable[Path]) -> LintReport:
        """Lint every .py file under ``paths`` (files or directories)."""
        report = LintReport()
        for path in iter_python_files(paths):
            self._lint_file(path, report)
        report.violations.sort(key=lambda v: v.sort_key)
        return report

    def lint_source(self, text: str, path: Path | str = "<string>") -> LintReport:
        """Lint in-memory source (fixture tests, editor integrations)."""
        report = LintReport()
        report.files_checked += 1
        module = self._parse(Path(path), str(path), text, report)
        if module is not None:
            self._check(module, report)
        report.violations.sort(key=lambda v: v.sort_key)
        return report

    # -- per-file pass ----------------------------------------------------
    def _lint_file(self, path: Path, report: LintReport) -> None:
        report.files_checked += 1
        display = str(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            report.violations.append(
                Violation(
                    rule=PARSE_RULE,
                    path=display,
                    line=1,
                    col=1,
                    message=f"file cannot be read: {exc.strerror or exc}",
                )
            )
            return
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            report.violations.append(
                Violation(
                    rule=PARSE_RULE,
                    path=display,
                    line=1,
                    col=1,
                    message=f"file is not valid UTF-8: {exc.reason} "
                    f"at byte {exc.start}",
                )
            )
            return
        module = self._parse(path, display, text, report)
        if module is not None:
            self._check(module, report)

    def _parse(
        self, path: Path, display: str, text: str, report: LintReport
    ) -> ModuleSource | None:
        try:
            tree = ast.parse(text, filename=display)
        except SyntaxError as exc:
            report.violations.append(
                Violation(
                    rule=PARSE_RULE,
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            return None
        return ModuleSource(
            display=display,
            key=module_key(path),
            tree=tree,
        )

    def _check(self, module: ModuleSource, report: LintReport) -> None:
        """Run every rule on ``module``."""
        for rule in self.rules:
            report.violations.extend(rule.check(module))
