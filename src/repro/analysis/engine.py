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

Two passes.  The per-file pass runs the local rules (R1–R8 and the
dataflow rules) and extracts each module's
:class:`~repro.analysis.project.ModuleFacts`; the project pass then
feeds the assembled :class:`~repro.analysis.project.ProjectIndex` to the
cross-module rules (R9+).  Project-rule violations go through the inline
suppressions of the module they anchor in, exactly like local hits.
With a :class:`~repro.analysis.cache.LintCache` attached, the per-file
pass is skipped for content-unchanged files and the project pass runs
from cached facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.analysis.cache import LintCache, ruleset_signature
from repro.analysis.project import (
    ModuleFacts,
    ProjectIndex,
    ProjectRule,
    collect_facts,
)
from repro.analysis.registry import Rule, Violation, all_rules, get_rules
from repro.analysis.suppress import Suppressions, parse_suppressions
from repro.errors import LintUsageError

__all__ = ["ModuleSource", "LintReport", "LintEngine", "module_key", "iter_python_files"]

#: Rule id used for files the parser rejects (not suppressible per-line:
#: a file that does not parse has no trustworthy line table).
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

    path: Path
    display: str  # path as given (what violations print)
    key: str  # repro-rooted key (what scoping matches)
    text: str
    tree: ast.Module
    suppressions: Suppressions


@dataclass
class LintReport:
    """Outcome of one engine run over a set of paths."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    #: Files served from the incremental cache (0 without a cache).
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        """True when the tree is clean (exit code 0)."""
        return not self.violations

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the CLI's ``--format json`` output)."""
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "cache_hits": self.cache_hits,
            "violations": [v.to_dict() for v in self.violations],
        }


class LintEngine:
    """Runs a rule set over source files and folds results into a report."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = list(rules) if rules is not None else all_rules()
        self.local_rules = [r for r in self.rules if not isinstance(r, ProjectRule)]
        self.project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]

    @classmethod
    def for_rule_ids(cls, ids: Iterable[str]) -> "LintEngine":
        """An engine restricted to the given rule ids (CLI ``--rules``)."""
        return cls(rules=get_rules(ids))

    def open_cache(self, path: Path) -> LintCache:
        """An incremental cache bound to this engine's rule set."""
        return LintCache(path, ruleset_signature(r.id for r in self.rules))

    # -- entry points ----------------------------------------------------
    def lint_paths(
        self, paths: Iterable[Path], cache: LintCache | None = None
    ) -> LintReport:
        """Lint every .py file under ``paths`` (files or directories)."""
        report = LintReport()
        index = ProjectIndex()
        suppressions: dict[str, Suppressions] = {}
        for path in iter_python_files(paths):
            self._lint_file(path, report, index, suppressions, cache)
        self._project_pass(index, suppressions, report)
        report.violations.sort(key=lambda v: v.sort_key)
        if cache is not None:
            cache.save()
            report.cache_hits = cache.hits
        return report

    def lint_source(self, text: str, path: Path | str = "<string>") -> LintReport:
        """Lint in-memory source (fixture tests, editor integrations)."""
        report = LintReport()
        index = ProjectIndex()
        suppressions: dict[str, Suppressions] = {}
        report.files_checked += 1
        module = self._parse(Path(path), str(path), text, report)
        if module is not None:
            self._local_pass(module, report, index, suppressions)
        self._project_pass(index, suppressions, report)
        report.violations.sort(key=lambda v: v.sort_key)
        return report

    # -- per-file pass ----------------------------------------------------
    def _lint_file(
        self,
        path: Path,
        report: LintReport,
        index: ProjectIndex,
        suppressions: dict[str, Suppressions],
        cache: LintCache | None,
    ) -> None:
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
        if cache is not None:
            digest = cache.digest(data)
            entry = cache.lookup(digest)
            if entry is not None:
                self._restore(entry, path, display, report, index, suppressions)
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
        if module is None:
            return
        kept, suppressed = self._local_pass(module, report, index, suppressions)
        if cache is not None:
            facts = index.get(module.key) if self.project_rules else None
            cache.store(
                digest,
                {
                    "violations": [v.to_dict() for v in kept],
                    "suppressed": suppressed,
                    "suppressions": module.suppressions.to_dict(),
                    "facts": facts.to_dict() if facts is not None else None,
                },
            )

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
            path=path,
            display=display,
            key=module_key(path),
            text=text,
            tree=tree,
            suppressions=parse_suppressions(text),
        )

    def _local_pass(
        self,
        module: ModuleSource,
        report: LintReport,
        index: ProjectIndex,
        suppressions: dict[str, Suppressions],
    ) -> tuple[list[Violation], int]:
        """Run local rules; returns (kept hits, suppressed count)."""
        kept: list[Violation] = []
        suppressed = 0
        for rule in self.local_rules:
            for violation in rule.check(module):
                if module.suppressions.suppressed(violation.rule, violation.line):
                    suppressed += 1
                else:
                    kept.append(violation)
        report.violations.extend(kept)
        report.suppressed += suppressed
        if self.project_rules:
            index.add(collect_facts(module))
            suppressions[module.display] = module.suppressions
        return kept, suppressed

    def _restore(
        self,
        entry: dict[str, Any],
        path: Path,
        display: str,
        report: LintReport,
        index: ProjectIndex,
        suppressions: dict[str, Suppressions],
    ) -> None:
        """Fold one cache entry into the run, re-rooting stored paths
        (the same bytes may be linted under a different display path)."""
        for payload in entry.get("violations", []):
            violation = Violation.from_dict(payload)
            if violation.path != display:
                violation = Violation(
                    rule=violation.rule,
                    path=display,
                    line=violation.line,
                    col=violation.col,
                    message=violation.message,
                )
            report.violations.append(violation)
        report.suppressed += int(entry.get("suppressed", 0))
        if self.project_rules:
            facts_payload = entry.get("facts")
            if facts_payload is not None:
                facts = ModuleFacts.from_dict(facts_payload)
                facts.key = module_key(path)
                facts.display = display
                index.add(facts)
            suppressions[display] = Suppressions.from_dict(
                entry.get("suppressions", {})
            )

    # -- project pass -----------------------------------------------------
    def _project_pass(
        self,
        index: ProjectIndex,
        suppressions: dict[str, Suppressions],
        report: LintReport,
    ) -> None:
        for rule in self.project_rules:
            for violation in rule.finalize(index):
                module_sup = suppressions.get(violation.path)
                if module_sup is not None and module_sup.suppressed(
                    violation.rule, violation.line
                ):
                    report.suppressed += 1
                else:
                    report.violations.append(violation)
