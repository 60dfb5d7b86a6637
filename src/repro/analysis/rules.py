"""The boomerlint rule catalog: this repo's invariants, statically enforced.

=====  ====================================================================
Rule   Invariant
=====  ====================================================================
R1     Determinism — no ambient randomness or wall-clock reads
       (``import random``, ``time.time``, ``datetime.now``/``utcnow``/
       ``today``, ``np.random``) outside :mod:`repro.utils.rng` and
       :mod:`repro.obs.clock`.  Everything stochastic must flow through
       seeded generators so action streams replay bit-identically.
R2     Error taxonomy — ``raise`` sites in the user-facing paths
       (``repro/cli.py``, ``repro/gui/``, ``repro/service/``) must use
       typed :mod:`repro.errors` classes, never bare builtins, so the v2
       wire protocol's stable error codes cover every failure.
R3     Oracle batch contract — any (non-Protocol) class exposing
       ``distance``/``within`` must either implement the
       :class:`~repro.indexing.oracle.BatchDistanceOracle` kernels
       (``distances_from`` + ``within_many``) or declare
       ``batch_via_shim = True``, acknowledging it is served by
       :mod:`repro.indexing.batch`'s per-pair fallback shim.
R4     Metrics & span taxonomy — instrument names must match the
       ``repro_*`` Prometheus conventions (counters end ``_total``,
       histograms carry a unit suffix) and literal span names must exist
       in the :mod:`repro.obs.export` taxonomy.
R5     Public-API coherence — every name a module lists in ``__all__``
       must actually be bound at module top level (and listed once).
R6     Lock discipline — no oracle/engine compute inside a
       ``with ..._lock:`` block in :mod:`repro.service` (the manager
       lock guards bookkeeping only; engine work belongs under the
       per-session lock).
R7     Storage seam — the PML label-CSR internals
       (``_label_offsets``/``_label_ranks_arr``/``_label_dists_arr``)
       are only dereferenced inside :mod:`repro.indexing` and
       :mod:`repro.storage`.  Everyone else goes through the
       :class:`~repro.storage.basis.EngineBasis` API, so the arrays can
       live on the heap or in mmapped files without callers noticing.
R8     Graph mutation seam — the CSR/epoch state of a
       :class:`~repro.graph.graph.Graph` (``_offsets``/``_neighbors``/
       ``_num_edges``/``_epoch``/``_label_index``) is only *written* on
       another object inside :mod:`repro.graph`, :mod:`repro.updates`
       (the sanctioned mutation path that bumps the epoch and maintains
       every derived index), and :mod:`repro.storage` (which rehydrates
       objects from serialized state via ``__new__`` — construction, not
       mutation).  Writes through ``self`` stay legal everywhere: a
       class owns its own fields.
=====  ====================================================================

Rules are scoped by module key (see :func:`repro.analysis.engine.module_key`)
so fixtures reproduce the package layout to opt in.  Suppress a deliberate
exception inline: ``# boomerlint: disable=R2`` (docs/ANALYSIS.md).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.registry import Rule, Violation, register

__all__ = [
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "OracleContractRule",
    "MetricsSpanTaxonomyRule",
    "PublicApiRule",
    "LockDisciplineRule",
    "StorageSeamRule",
    "GraphMutationSeamRule",
]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _trailing_name(node: ast.expr) -> str | None:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _first_str_arg(call: ast.Call) -> tuple[str, ast.expr] | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value, call.args[0]
    return None


def _method_names(cls: ast.ClassDef) -> set[str]:
    return {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


# ----------------------------------------------------------------------
# R1 — determinism
# ----------------------------------------------------------------------
@register
class DeterminismRule(Rule):
    """Ambient randomness / wall-clock reads outside the blessed modules."""

    id = "R1"
    title = "no random/time.time/datetime.now outside utils.rng and obs.clock"

    ALLOWED_KEYS = ("repro/utils/rng.py", "repro/obs/clock.py")
    _DATETIME_ATTRS = {"now", "utcnow", "today"}

    def check(self, module) -> Iterator[Violation]:
        if module.key in self.ALLOWED_KEYS:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            module,
                            node,
                            "import of 'random' outside repro.utils.rng; "
                            "route through seeded_rng()/spawn_rng()",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        module,
                        node,
                        "import from 'random' outside repro.utils.rng; "
                        "route through seeded_rng()/spawn_rng()",
                    )
            elif isinstance(node, ast.Attribute):
                owner = node.value
                if node.attr == "time" and isinstance(owner, ast.Name) and owner.id == "time":
                    yield self.violation(
                        module,
                        node,
                        "wall-clock read 'time.time' outside repro.obs.clock; "
                        "use obs.clock.now()",
                    )
                elif (
                    node.attr in self._DATETIME_ATTRS
                    and _trailing_name(owner) in ("datetime", "date")
                ):
                    yield self.violation(
                        module,
                        node,
                        f"wall-clock read 'datetime.{node.attr}' outside "
                        "repro.obs.clock; use obs.clock.now()",
                    )
                elif node.attr == "random" and isinstance(owner, ast.Name) and owner.id in (
                    "np",
                    "numpy",
                ):
                    yield self.violation(
                        module,
                        node,
                        "global numpy RNG 'np.random' is unseeded state; "
                        "derive a generator through repro.utils.rng",
                    )


# ----------------------------------------------------------------------
# R2 — error taxonomy
# ----------------------------------------------------------------------
@register
class ErrorTaxonomyRule(Rule):
    """Bare builtin raises in the user-facing (wire-visible) paths."""

    id = "R2"
    title = "raises in cli/gui/service paths must use repro.errors classes"

    SCOPES = ("repro/cli.py", "repro/gui/", "repro/service/")
    #: Builtins whose raise means an untyped failure escaping the wire
    #: protocol's code table.  TypeError/NotImplementedError/AssertionError
    #: stay allowed: they flag caller bugs, not runtime failure domains.
    BANNED = {
        "ValueError",
        "RuntimeError",
        "KeyError",
        "LookupError",
        "OSError",
        "IOError",
        "ArithmeticError",
        "Exception",
        "BaseException",
    }

    def check(self, module) -> Iterator[Violation]:
        if not module.key.startswith(self.SCOPES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id in self.BANNED:
                yield self.violation(
                    module,
                    node,
                    f"untyped 'raise {target.id}' in a wire-visible path; "
                    "use a repro.errors class with a stable code",
                )


# ----------------------------------------------------------------------
# R3 — oracle batch contract
# ----------------------------------------------------------------------
@register
class OracleContractRule(Rule):
    """Scalar-only oracles must declare how batch queries reach them."""

    id = "R3"
    title = "classes exposing distance() must implement or declare batch routing"

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(_trailing_name(base) == "Protocol" for base in node.bases):
                continue  # protocol definitions are the contract, not impls
            methods = _method_names(node)
            if "distance" not in methods or "within" not in methods:
                continue
            if {"distances_from", "within_many"} <= methods:
                continue
            if self._declares_shim(node):
                continue
            yield self.violation(
                module,
                node,
                f"class {node.name} exposes distance()/within() but neither "
                "implements distances_from()/within_many() nor declares "
                "'batch_via_shim = True' (BatchDistanceOracle contract)",
            )

    @staticmethod
    def _declares_shim(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "batch_via_shim"
                    and isinstance(value, ast.Constant)
                    and value.value is True
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# R4 — metrics & span taxonomy
# ----------------------------------------------------------------------
_METRIC_NAME = re.compile(r"repro_[a-z][a-z0-9_]*")
_METRIC_RECEIVERS = {"metrics", "reg", "registry"}
_HISTOGRAM_UNITS = ("_seconds", "_bytes", "_entries")


def _span_taxonomy() -> tuple[frozenset[str], tuple[str, ...]]:
    """Literal span names (and dotted prefixes) from :mod:`repro.obs.export`.

    Read from the live module so the rule and the taxonomy can never
    drift: adding a canonical name there immediately legalizes it here.
    """
    from repro.obs import export

    names: set[str] = set()
    prefixes: set[str] = set()
    for attr in export.__all__:
        value = getattr(export, attr, None)
        if isinstance(value, str):
            (prefixes if value.endswith(".") else names).add(value)
    return frozenset(names), tuple(sorted(prefixes))


@register
class MetricsSpanTaxonomyRule(Rule):
    """Instrument/span names must match the observability taxonomy."""

    id = "R4"
    title = "metric names match repro_* conventions; span names exist in obs.export"

    def check(self, module) -> Iterator[Violation]:
        taxonomy = None  # loaded lazily, only when a span literal appears
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            receiver = _trailing_name(node.func.value)
            if method in ("counter", "gauge", "histogram") and receiver in _METRIC_RECEIVERS:
                got = _first_str_arg(node)
                if got is None:
                    continue
                name, arg = got
                yield from self._check_metric(module, arg, method, name)
            elif method in ("span", "start") and receiver == "tracer":
                got = _first_str_arg(node)
                if got is None:
                    continue  # dynamic names are runtime territory
                name, arg = got
                if taxonomy is None:
                    taxonomy = _span_taxonomy()
                names, prefixes = taxonomy
                if name not in names and not name.startswith(prefixes):
                    yield self.violation(
                        module,
                        arg,
                        f"span name {name!r} is not in the repro.obs.export "
                        "taxonomy; add a constant there or fix the name",
                    )

    def _check_metric(self, module, arg: ast.expr, kind: str, name: str):
        if not _METRIC_NAME.fullmatch(name):
            yield self.violation(
                module,
                arg,
                f"metric name {name!r} does not match the repro_* taxonomy "
                "(lowercase, repro_ prefix)",
            )
            return
        if kind == "counter" and not name.endswith("_total"):
            yield self.violation(
                module, arg, f"counter {name!r} must end with '_total'"
            )
        elif kind == "gauge" and name.endswith("_total"):
            yield self.violation(
                module, arg, f"gauge {name!r} must not end with '_total'"
            )
        elif kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
            yield self.violation(
                module,
                arg,
                f"histogram {name!r} must carry a unit suffix "
                f"({', '.join(_HISTOGRAM_UNITS)})",
            )


# ----------------------------------------------------------------------
# R5 — public-API coherence
# ----------------------------------------------------------------------
@register
class PublicApiRule(Rule):
    """``__all__`` entries must be bound at module top level, once."""

    id = "R5"
    title = "__all__ names are actually exported (and listed once)"

    def check(self, module) -> Iterator[Violation]:
        decl = self._find_all(module.tree)
        if decl is None:
            return
        node, names = decl
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.violation(
                    module, node, f"__all__ lists {name!r} more than once"
                )
            seen.add(name)
        bound, has_star = self._bound_names(module.tree)
        if has_star:
            return  # star imports make the bound set unknowable statically
        for name in sorted(seen):
            if name not in bound:
                yield self.violation(
                    module,
                    node,
                    f"__all__ lists {name!r} but the module never binds it "
                    "(public-API drift)",
                )

    @staticmethod
    def _find_all(tree: ast.Module) -> tuple[ast.stmt, list[str]] | None:
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            if not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                continue
            if not isinstance(value, (ast.List, ast.Tuple)):
                return None  # computed __all__: out of static reach
            names = [
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            return stmt, names
        return None

    @classmethod
    def _bound_names(cls, tree: ast.Module) -> tuple[set[str], bool]:
        """Names bound at module scope; True when a ``*`` import hides some.

        Walks statements recursively (``if``/``try``/``with``/``for``
        bodies bind at module scope too) but never descends into
        function, class, or lambda bodies — their locals are not module
        names.
        """
        bound: set[str] = set()
        has_star = False
        stack: list[ast.stmt] = list(tree.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
                continue  # inner scopes do not bind module names
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    bound.add(alias.asname or alias.name.split(".")[0])
                continue
            if isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        has_star = True
                    else:
                        bound.add(alias.asname or alias.name)
                continue
            # Store-context names in this statement's own expressions
            # (assignment targets, for/with targets, walrus), skipping
            # nested scopes.
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, (ast.stmt, ast.Lambda)):
                    continue
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Lambda):
                        continue
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        bound.add(sub.id)
            # Recurse into compound-statement bodies at module scope.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, (ast.excepthandler, ast.withitem)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.stmt):
                            stack.append(sub)
                        elif isinstance(sub, ast.Name) and isinstance(
                            sub.ctx, ast.Store
                        ):
                            bound.add(sub.id)
        return bound, has_star


# ----------------------------------------------------------------------
# R6 — lock discipline
# ----------------------------------------------------------------------
@register
class LockDisciplineRule(Rule):
    """No engine/oracle compute while holding a manager-level ``_lock``."""

    id = "R6"
    title = "no oracle/engine calls inside `with ..._lock:` in repro.service"

    SCOPE = "repro/service/"
    #: Method names that mean engine/oracle compute.  Holding the manager
    #: lock across any of these serializes every tenant behind one
    #: session's CAP work (and invites lock-order cycles with the
    #: per-session locks).
    ENGINE_CALLS = {
        "distance",
        "within",
        "distances_from",
        "within_many",
        "run",
        "apply",
        "run_actions",
        "probe_one",
        "probe_idle",
        "drain_pool",
        "process_edge",
        "cheapest_cost",
        "build",
    }

    def check(self, module) -> Iterator[Violation]:
        if not module.key.startswith(self.SCOPE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.With):
                continue
            if not any(
                isinstance(item.context_expr, ast.Attribute)
                and item.context_expr.attr == "_lock"
                for item in node.items
            ):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self.ENGINE_CALLS
                    ):
                        yield self.violation(
                            module,
                            sub,
                            f"engine/oracle call '.{sub.func.attr}(...)' while "
                            "holding a manager-level _lock; move compute under "
                            "the per-session lock",
                        )


# ----------------------------------------------------------------------
# R7 — storage seam
# ----------------------------------------------------------------------
@register
class StorageSeamRule(Rule):
    """Direct pokes at the PML label-CSR arrays outside the storage seam.

    :class:`~repro.storage.basis.EngineBasis` is the one API that may
    assume where (and in what medium) the finalized label arrays live;
    any other module dereferencing them couples itself to the resident
    layout and silently breaks the mmap backend.  Access through
    ``self`` stays legal — a subclass owns its own internals.
    """

    id = "R7"
    title = "PML label-CSR internals only touched in repro.indexing / repro.storage"

    ALLOWED_PREFIXES = ("repro/indexing/", "repro/storage/")
    #: The finalized label CSR: exactly the arrays every storage backend
    #: must be free to relocate.
    PRIVATE_ARRAYS = {"_label_offsets", "_label_ranks_arr", "_label_dists_arr"}

    def check(self, module) -> Iterator[Violation]:
        if module.key.startswith(self.ALLOWED_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in self.PRIVATE_ARRAYS:
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "self":
                continue
            yield self.violation(
                module,
                node,
                f"direct access to PML internal '{node.attr}' outside "
                "repro.indexing/repro.storage; go through the EngineBasis "
                "seam (repro.storage.basis_from_context / context_from_basis)",
            )


# ----------------------------------------------------------------------
# R8 — graph mutation seam
# ----------------------------------------------------------------------
@register
class GraphMutationSeamRule(Rule):
    """Writes to Graph CSR/epoch state outside the sanctioned mutation path.

    A :class:`~repro.graph.graph.Graph` mutated anywhere but
    :mod:`repro.updates` silently leaves every derived structure — PML
    labels, two-hop counts, distance-vector caches — describing a graph
    that no longer exists, without the epoch bump that would make readers
    notice.  This rule flags *assignments* (plain, augmented, annotated)
    to the mutable graph fields on any object other than ``self``:
    ``obj._offsets = ...``, ``graph._num_edges += 1``,
    ``g._epoch = 0``.  Reads stay free; ``self.…`` writes stay free
    (a class owns its fields); and :mod:`repro.graph`,
    :mod:`repro.updates`, and :mod:`repro.storage` (``__new__``-based
    rehydration from serialized state) are the sanctioned writers.
    """

    id = "R8"
    title = "Graph CSR/epoch state only written in repro.graph / repro.updates"

    ALLOWED_PREFIXES = ("repro/graph/", "repro/updates/", "repro/storage/")
    #: The fields whose coherent joint update *is* a graph mutation.
    MUTABLE_ATTRS = {
        "_offsets",
        "_neighbors",
        "_num_edges",
        "_epoch",
        "_label_index",
    }

    def check(self, module) -> Iterator[Violation]:
        if module.key.startswith(self.ALLOWED_PREFIXES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if not isinstance(sub, ast.Attribute):
                        continue
                    if sub.attr not in self.MUTABLE_ATTRS:
                        continue
                    owner = sub.value
                    if isinstance(owner, ast.Name) and owner.id == "self":
                        continue
                    yield self.violation(
                        module,
                        sub,
                        f"write to graph internal '{sub.attr}' outside "
                        "repro.graph/repro.updates; mutate through "
                        "repro.updates (insert_edge/delete_edge), which "
                        "bumps the epoch and maintains derived indexes",
                    )
