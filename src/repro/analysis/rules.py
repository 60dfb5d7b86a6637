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
R4     Metrics & span taxonomy — instrument names must match the
       ``repro_*`` Prometheus conventions (counters end ``_total``,
       histograms carry a unit suffix) and literal span names must exist
       in the :mod:`repro.obs.export` taxonomy.
R6     Lock discipline — no oracle/engine compute inside a
       ``with ..._lock:`` block in :mod:`repro.service` (the manager
       lock guards bookkeeping only; engine work belongs under the
       per-session lock).
=====  ====================================================================

R12, the class-wide lock-guard rule, lives in
:mod:`repro.analysis.rules_flow`.  Each rule is here because a seeded
mutation of a real module shows it catching a defect the runtime tests
do not (docs/ANALYSIS.md).  Rules are scoped by module key (see
:func:`repro.analysis.engine.module_key`) so fixtures reproduce the
package layout to opt in.  Suppress a deliberate exception inline:
``# boomerlint: disable=R2`` (docs/ANALYSIS.md).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.registry import Rule, Violation, register

__all__ = [
    "DeterminismRule",
    "ErrorTaxonomyRule",
    "MetricsSpanTaxonomyRule",
    "LockDisciplineRule",
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
