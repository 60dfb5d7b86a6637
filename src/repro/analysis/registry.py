"""The boomerlint rule registry: violations, the rule base class, lookup.

A rule is a small AST-walking check encoding one of *this repo's*
invariants (determinism, error taxonomy, the metrics/span taxonomy, lock
discipline, lock guards — see :mod:`repro.analysis.rules`,
:mod:`repro.analysis.rules_flow` and docs/ANALYSIS.md).  Rules register
themselves at import time via :func:`register`, so adding a rule is:
subclass :class:`Rule`, decorate, write fixtures and a seeded mutation.

Rules receive a :class:`~repro.analysis.engine.ModuleSource` (path key +
parsed tree) and yield :class:`Violation` records; the engine applies
inline suppressions (:mod:`repro.analysis.suppress`) afterwards, so rules
never need to reason about ``# boomerlint:`` comments themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import LintUsageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleSource

__all__ = ["Violation", "Rule", "register", "all_rules", "get_rules", "rule_ids"]


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location (immutable, sortable)."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """``file:line:col: RULE message`` — the CLI's text output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the CLI's ``--format json`` output)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Violation":
        """Inverse of :meth:`to_dict` (the incremental cache's restore)."""
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            message=str(payload["message"]),
        )

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class Rule:
    """Base class for boomerlint rules.

    Subclasses set ``id`` (``R<n>``), ``title`` (one line, shown by
    ``repro lint --list-rules``) and implement :meth:`check`.
    """

    id: str = ""
    title: str = ""

    def check(self, module: "ModuleSource") -> Iterator[Violation]:
        """Yield every violation of this rule in ``module``."""
        raise NotImplementedError

    # -- helpers shared by concrete rules --------------------------------
    def violation(
        self, module: "ModuleSource", node: ast.AST, message: str
    ) -> Violation:
        """A :class:`Violation` anchored at ``node``'s source location."""
        return Violation(
            rule=self.id,
            path=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.id:
        raise LintUsageError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise LintUsageError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def _ensure_loaded() -> None:
    # The built-in rules live in their own modules so the registry has no
    # import cycle; importing them here makes `all_rules()` self-contained.
    from repro.analysis import rules  # noqa: F401  (import registers)
    from repro.analysis import rules_flow  # noqa: F401


def _id_order(rule_id: str) -> tuple[int, str]:
    # Natural order: R2 before R12 (plain string sort would interleave).
    return (len(rule_id), rule_id)


def rule_ids() -> list[str]:
    """Registered rule ids, in natural (R2 before R12) order."""
    _ensure_loaded()
    return sorted(_REGISTRY, key=_id_order)


def all_rules() -> list[Rule]:
    """One instance of every registered rule, id order."""
    _ensure_loaded()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY, key=_id_order)]


def get_rules(ids: Iterable[str]) -> list[Rule]:
    """Instances for ``ids``; unknown ids raise :class:`LintUsageError`."""
    _ensure_loaded()
    out: list[Rule] = []
    for rule_id in ids:
        cls = _REGISTRY.get(rule_id)
        if cls is None:
            known = ", ".join(sorted(_REGISTRY, key=_id_order))
            raise LintUsageError(f"unknown rule id {rule_id!r} (known: {known})")
        out.append(cls())
    return out
