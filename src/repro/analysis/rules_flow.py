"""The class-wide boomerlint rule: R12 lock-guard inference.

The rules in :mod:`repro.analysis.rules` pattern-match single nodes;
R12 reasons about a class's whole locking discipline.  The guard map is *inferred*: an attribute written
inside ``with self.<lock>:`` blocks — assigned, deleted, or mutated in
place by a statement-level ``self.X.pop(...)``/``append``/``update``/… —
is declared lock-guarded, and any bare access to it elsewhere in the
class is flagged.  The static companion to the runtime lock-order
monitor: the monitor catches wrong *order*, this catches missing
*acquisition*.

Limits: guards are inferred per class, so a read of *another* object's
guarded state (one class reading another's lock-guarded attribute
without taking that object's lock) is out of reach, and nested
``def``/lambda bodies are opaque (they run later, under locks this rule
cannot know).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.registry import Rule, Violation, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleSource

__all__ = ["LockGuardRule", "scoped_walk"]

#: Nested-scope nodes a walk of one body must not descend into (they
#: execute under a different frame, later or never).
_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)

#: Container methods whose statement-level call on ``self.X`` writes X.
_MUTATORS = frozenset(
    {
        "pop",
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "add",
        "clear",
        "update",
        "setdefault",
        "popitem",
    }
)


def scoped_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class scopes.

    The root itself is yielded even when it is a scope node (callers
    dispatch on it); only *nested* scopes below the root are opaque.
    """
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _SCOPE_NODES):
                yield child  # visible as a node, opaque inside
                continue
            stack.append(child)


def _is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


@register
class LockGuardRule(Rule):
    """Attributes written under ``with self._lock:`` must never go bare."""

    id = "R12"
    title = (
        "attributes assigned inside `with self.<lock>:` blocks in the "
        "service layer are lock-guarded; accessing them without the lock "
        "is a data race"
    )

    SCOPES = ("repro/service/",)
    LOCK_FACTORIES = frozenset({"Lock", "RLock"})

    def check(self, module: "ModuleSource") -> Iterator[Violation]:
        if not module.key.startswith(self.SCOPES):
            return
        for cls in ast.walk(module.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(module, cls)

    # -- inference ------------------------------------------------------
    def _lock_groups(self, cls: ast.ClassDef) -> dict[str, str]:
        """``lock attr -> guard group``.  ``threading.Condition(self.X)``
        joins X's group (waiting on the condition *is* holding the lock)."""
        groups: dict[str, str] = {}
        conditions: list[tuple[str, ast.Call]] = []
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not _is_self_attr(target) or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            attr = target.attr  # type: ignore[attr-defined]
            if called in self.LOCK_FACTORIES:
                groups[attr] = attr
            elif called == "Condition":
                conditions.append((attr, node.value))
        for attr, call in conditions:
            if call.args and _is_self_attr(call.args[0]):
                aliased = call.args[0].attr  # type: ignore[attr-defined]
                groups[attr] = groups.get(aliased, aliased)
            else:
                groups[attr] = attr  # owns its (implicit) lock
        return groups

    @staticmethod
    def _written_attrs(stmt: ast.stmt) -> Iterator[str]:
        """Self attributes a statement writes: assign/augassign/del, or a
        statement-level in-place mutation ``self.X.<mutator>(...)``."""
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                targets = [func.value]
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if _is_self_attr(base):
                yield base.attr  # type: ignore[attr-defined]

    def _with_lock_groups(
        self, stmt: ast.With | ast.AsyncWith, groups: dict[str, str]
    ) -> set[str]:
        held: set[str] = set()
        for item in stmt.items:
            expr = item.context_expr
            if _is_self_attr(expr) and expr.attr in groups:  # type: ignore[attr-defined]
                held.add(groups[expr.attr])  # type: ignore[attr-defined]
        return held

    def _check_class(
        self, module: "ModuleSource", cls: ast.ClassDef
    ) -> Iterator[Violation]:
        groups = self._lock_groups(cls)
        if not groups:
            return
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        # Pass 1: infer the guard map — attributes written under a lock.
        guarded: dict[str, set[str]] = {}
        for name, fn in methods.items():
            if name == "__init__":
                continue  # construction happens-before every reader
            for node in scoped_walk(fn):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                held = self._with_lock_groups(node, groups)
                if not held:
                    continue
                for stmt in node.body:
                    for inner in scoped_walk(stmt):
                        if isinstance(inner, ast.stmt):
                            for attr in self._written_attrs(inner):
                                if attr not in groups:
                                    guarded.setdefault(attr, set()).update(held)
        if not guarded:
            return

        # Pass 2: accesses annotated with the groups lexically held there,
        # and self-call sites for the private-helper fixpoint.
        accesses: dict[str, list[tuple[ast.Attribute, frozenset[str]]]] = {}
        call_sites: dict[str, list[tuple[str, frozenset[str]]]] = {}

        def scan(node: ast.AST, method: str, held: frozenset[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held | self._with_lock_groups(node, groups)
                for item in node.items:
                    scan(item.context_expr, method, held)
                for stmt in node.body:
                    scan(stmt, method, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # nested scope: runs later, under unknown locks
            if _is_self_attr(node) and node.attr in guarded:  # type: ignore[attr-defined]
                accesses.setdefault(method, []).append((node, held))  # type: ignore[arg-type]
            if (
                isinstance(node, ast.Call)
                and _is_self_attr(node.func)
                and node.func.attr in methods  # type: ignore[attr-defined]
            ):
                call_sites.setdefault(node.func.attr, []).append(  # type: ignore[attr-defined]
                    (method, held)
                )
            for child in ast.iter_child_nodes(node):
                scan(child, method, held)

        for name, fn in methods.items():
            if name == "__init__":
                continue
            for stmt in fn.body:
                scan(stmt, name, frozenset())

        # Pass 3: fixpoint over private helpers whose every call site
        # holds the lock ("caller holds the manager lock" helpers).
        held_methods: set[str] = set()
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in held_methods or not name.startswith("_"):
                    continue
                if name == "__init__":
                    continue
                sites = call_sites.get(name)
                if not sites:
                    continue
                if all(held or caller in held_methods for caller, held in sites):
                    held_methods.add(name)
                    changed = True

        # Pass 4: flag bare accesses.
        for method, attr_accesses in sorted(accesses.items()):
            if method in held_methods:
                continue
            for node, held in attr_accesses:
                attr = node.attr
                need = guarded[attr]
                if held & need:
                    continue
                locks = " or ".join(
                    f"self.{lock}"
                    for lock in sorted(
                        lock for lock, group in groups.items() if group in need
                    )
                )
                yield self.violation(
                    module,
                    node,
                    f"'{attr}' is written under {locks} elsewhere in "
                    f"'{cls.name}' but accessed here without it "
                    f"(in '{method}')",
                )
