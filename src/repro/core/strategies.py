"""CAP construction strategies: Immediate, Defer-to-Run, Defer-to-Idle.

A strategy is a *policy* plugged into the blender engine; it decides, for
each newly drawn query edge, whether to process it now (inside the current
GUI latency) or park it in the edge pool, and when pooled edges get their
turn:

* :class:`ImmediateStrategy` (IC, Algorithm 2) — always process now, in
  formulation order.
* :class:`DeferToRunStrategy` (DR, Algorithm 3) — pool expensive edges
  (Definition 5.8); drain the pool, cheapest first, only when Run is
  clicked.
* :class:`DeferToIdleStrategy` (DI, Algorithm 4) — like DR, but after every
  user action the strategy *probes* the pool (Algorithm 10): if the action
  left idle latency and the cheapest pooled edge now fits in it (candidate
  sets having shrunk through pruning), process it early.

Strategies only talk to the engine through the small surface used below
(``process_edge``, ``pool``, ``cap``, ``cost_model``), which keeps them
independently testable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.query import QueryEdge
from repro.utils.timing import TimeBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blender import BlenderEngine

__all__ = [
    "ConstructionStrategy",
    "ImmediateStrategy",
    "DeferToRunStrategy",
    "DeferToIdleStrategy",
    "make_strategy",
    "STRATEGY_NAMES",
]


class ConstructionStrategy:
    """Base policy; subclasses override the two hooks."""

    #: Short name used in experiment tables ("IC", "DR", "DI").
    name: str = "base"

    def on_new_edge(self, engine: "BlenderEngine", edge: QueryEdge) -> bool:
        """A new query edge was drawn.  Return True iff it was processed now."""
        raise NotImplementedError

    def on_idle(self, engine: "BlenderEngine", idle_seconds: float) -> None:
        """The current action finished with ``idle_seconds`` of latency left."""
        # Default: do nothing with idle time.


class ImmediateStrategy(ConstructionStrategy):
    """IC — process every edge the moment it is drawn (Algorithm 2)."""

    name = "IC"

    def on_new_edge(self, engine: "BlenderEngine", edge: QueryEdge) -> bool:
        engine.process_edge(edge)
        return True


class _DeferringStrategy(ConstructionStrategy):
    """Shared new-edge logic of DR and DI (Algorithm 3, lines 6-11)."""

    def on_new_edge(self, engine: "BlenderEngine", edge: QueryEdge) -> bool:
        model = engine.cost_model
        n_u = engine.cap.candidate_count(edge.u)
        n_v = engine.cap.candidate_count(edge.v)
        if not model.is_expensive(n_u, n_v, edge.upper):
            engine.process_edge(edge)
            return True
        engine.pool.insert(edge)
        engine.ctx.counters.edges_deferred += 1
        return False


class DeferToRunStrategy(_DeferringStrategy):
    """DR — expensive edges wait for the Run click (Algorithm 3)."""

    name = "DR"


class DeferToIdleStrategy(_DeferringStrategy):
    """DI — expensive edges may run early in leftover GUI latency (Alg. 4)."""

    name = "DI"

    def on_idle(self, engine: "BlenderEngine", idle_seconds: float) -> None:
        if idle_seconds <= 0.0 or not engine.pool:
            return
        engine.probe_pool(TimeBudget(idle_seconds))


#: Strategy registry for config-driven experiments.
STRATEGY_NAMES = ("IC", "DR", "DI")


def make_strategy(name: str) -> ConstructionStrategy:
    """Instantiate a strategy by its short name (case-insensitive).

    Accepts the paper's abbreviations (IC / DR / DI) and the long names
    (immediate / defer-to-run / defer-to-idle); anything else, a non-string
    included, raises :class:`ValueError`.
    """
    if not isinstance(name, str):
        raise ValueError(f"strategy must be a name string, got {name!r}")
    normalized = name.strip().lower().replace("_", "-")
    table = {
        "ic": ImmediateStrategy,
        "immediate": ImmediateStrategy,
        "dr": DeferToRunStrategy,
        "defer-to-run": DeferToRunStrategy,
        "di": DeferToIdleStrategy,
        "defer-to-idle": DeferToIdleStrategy,
    }
    try:
        return table[normalized]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {sorted(table)}"
        ) from None
