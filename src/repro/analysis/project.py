"""The whole-program tier of boomerlint: per-module facts + project rules.

R1–R8 see one file at a time, which is exactly why wire-protocol drift
slipped past them: the op registry lives in ``service/protocol.py``, the
handlers in the two dispatchers, the callers in ``service/client.py``,
and no single parse sees them together.  This module adds the missing
index:

* :class:`ModuleFacts` — a compact, JSON-serializable summary of one
  module: its import graph edges, class symbol table (bases and method
  names), module-level string-tuple registries (``OPS``), equality and
  membership comparisons against string literals, and
  ``self.method("literal", kw=...)`` call sites.  Facts are extracted
  once per file and cached by content hash, so the cross-module pass
  costs nothing on a warm run.
* :class:`ProjectIndex` — the facts of every module in one lint run,
  keyed by repro-rooted module key.
* :class:`ProjectRule` — the base class for cross-module rules.  A
  project rule contributes nothing during the per-file pass; after every
  file is parsed the engine calls :meth:`ProjectRule.finalize` with the
  index, and the yielded violations go through the same per-module
  suppression filter as local rules.

A project rule only checks invariants whose *every* participating module
is present in the lint set — linting a subtree (or a test fixture that
recreates the layout under a temp root) never produces phantom
violations about files that were simply not handed to the engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.registry import Rule, Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleSource

__all__ = [
    "ClassFact",
    "ModuleFacts",
    "ProjectIndex",
    "ProjectRule",
    "collect_facts",
]


def _call_name(node: ast.expr) -> str | None:
    """The final dotted segment of a call target (``shm.SharedMemory`` ->
    ``SharedMemory``), or the bare name."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass
class ClassFact:
    """One class definition: bases + method names."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "line": self.line,
            "bases": self.bases,
            "methods": self.methods,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ClassFact":
        return cls(
            name=str(payload["name"]),
            line=int(payload["line"]),
            bases=[str(b) for b in payload.get("bases", [])],
            methods=[str(m) for m in payload.get("methods", [])],
        )


@dataclass
class ModuleFacts:
    """The cross-module-relevant summary of one parsed module."""

    key: str
    display: str
    #: Modules this one imports (``import x.y`` / ``from x.y import z``).
    imports: list[str] = field(default_factory=list)
    #: Top-level class symbol table, by class name.
    classes: dict[str, ClassFact] = field(default_factory=dict)
    #: Top-level function names (the function half of the symbol table).
    functions: list[str] = field(default_factory=list)
    #: ``NAME = ("a", "b", ...)`` string registries, with the assign line.
    str_tuples: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: ``<name> == "literal"`` comparisons: {"name", "value", "line", "col"}.
    eq_compares: list[dict[str, Any]] = field(default_factory=list)
    #: ``<name> in NAME`` memberships: {"name", "container", "line", "col"}.
    memberships: list[dict[str, Any]] = field(default_factory=list)
    #: ``self.<method>("literal", kw=...)``: {"method", "arg", "kwargs", ...}.
    self_calls: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "display": self.display,
            "imports": self.imports,
            "classes": {name: c.to_dict() for name, c in self.classes.items()},
            "functions": self.functions,
            "str_tuples": self.str_tuples,
            "eq_compares": self.eq_compares,
            "memberships": self.memberships,
            "self_calls": self.self_calls,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ModuleFacts":
        return cls(
            key=str(payload["key"]),
            display=str(payload["display"]),
            imports=[str(i) for i in payload.get("imports", [])],
            classes={
                str(name): ClassFact.from_dict(c)
                for name, c in payload.get("classes", {}).items()
            },
            functions=[str(f) for f in payload.get("functions", [])],
            str_tuples=dict(payload.get("str_tuples", {})),
            eq_compares=list(payload.get("eq_compares", [])),
            memberships=list(payload.get("memberships", [])),
            self_calls=list(payload.get("self_calls", [])),
        )


def _class_fact(node: ast.ClassDef) -> ClassFact:
    fact = ClassFact(name=node.name, line=node.lineno)
    for base in node.bases:
        name = _call_name(base)
        if name is not None:
            fact.bases.append(name)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fact.methods.append(stmt.name)
    return fact


def _str_tuple(fact: ModuleFacts, name: str, value: ast.expr, line: int) -> None:
    """Record ``NAME = ("a", "b", ...)`` when every element is a string."""
    if not isinstance(value, (ast.Tuple, ast.List)) or not value.elts:
        return
    if all(
        isinstance(element, ast.Constant) and isinstance(element.value, str)
        for element in value.elts
    ):
        fact.str_tuples[name] = {
            "values": [element.value for element in value.elts],
            "line": line,
        }


def collect_facts(module: "ModuleSource") -> ModuleFacts:
    """Extract the :class:`ModuleFacts` of one parsed module."""
    facts = ModuleFacts(key=module.key, display=module.display)
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Import):
            facts.imports.extend(alias.name for alias in stmt.names)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            facts.imports.append(stmt.module)
        elif isinstance(stmt, ast.ClassDef):
            facts.classes[stmt.name] = _class_fact(stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions.append(stmt.name)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                _str_tuple(facts, target.id, stmt.value, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                _str_tuple(facts, stmt.target.id, stmt.value, stmt.lineno)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            if not isinstance(left, ast.Name):
                continue
            if isinstance(op, (ast.Eq, ast.NotEq)):
                if isinstance(right, ast.Constant) and isinstance(right.value, str):
                    facts.eq_compares.append(
                        {
                            "name": left.id,
                            "value": right.value,
                            "line": node.lineno,
                            "col": node.col_offset + 1,
                        }
                    )
            elif isinstance(op, (ast.In, ast.NotIn)):
                if isinstance(right, ast.Name):
                    facts.memberships.append(
                        {
                            "name": left.id,
                            "container": right.id,
                            "line": node.lineno,
                            "col": node.col_offset + 1,
                        }
                    )
                elif isinstance(right, (ast.Tuple, ast.List, ast.Set)):
                    for element in right.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            facts.eq_compares.append(
                                {
                                    "name": left.id,
                                    "value": element.value,
                                    "line": node.lineno,
                                    "col": node.col_offset + 1,
                                }
                            )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                facts.self_calls.append(
                    {
                        "method": func.attr,
                        "arg": node.args[0].value,
                        "kwargs": [k.arg for k in node.keywords if k.arg],
                        "line": node.lineno,
                        "col": node.col_offset + 1,
                    }
                )
    return facts


class ProjectIndex:
    """Every linted module's facts, keyed by repro-rooted module key."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleFacts] = {}

    def add(self, facts: ModuleFacts) -> None:
        self.modules[facts.key] = facts

    def get(self, key: str) -> ModuleFacts | None:
        return self.modules.get(key)

    def has_all(self, *keys: str) -> bool:
        """True when every named module is part of this lint run."""
        return all(key in self.modules for key in keys)


class ProjectRule(Rule):
    """Base class for cross-module rules.

    The per-file :meth:`check` hook of a project rule is empty; the
    engine feeds every module's :class:`ModuleFacts` into a
    :class:`ProjectIndex` and calls :meth:`finalize` once, after the
    walk.  Yielded violations are anchored at real source sites (the
    registry entry, the class definition, the call) and pass through the
    owning module's inline suppressions like any local rule hit.
    """

    def check(self, module: "ModuleSource") -> Iterator[Violation]:
        return iter(())

    def finalize(self, project: ProjectIndex) -> Iterator[Violation]:
        raise NotImplementedError

    # -- helper shared by concrete project rules -------------------------
    def at(
        self, facts: ModuleFacts, line: int, col: int, message: str
    ) -> Violation:
        """A violation anchored in ``facts``'s module at ``line:col``."""
        return Violation(
            rule=self.id,
            path=facts.display,
            line=line,
            col=col,
            message=message,
        )
