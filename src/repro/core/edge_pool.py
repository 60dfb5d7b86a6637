"""The edge pool of deferred (expensive) query edges.

Defer-to-Run and Defer-to-Idle park expensive edges here instead of
processing them inline (Algorithm 3, line 10).  The paper implements the
pool as a priority queue keyed by estimated cost; because candidate sets
shrink as other edges prune the index, an edge's priority *changes while it
waits*.  With at most ``|E_B|`` (single-digit) entries, recomputing
``T_est`` on every :meth:`min_edge` call is both simpler and cheaper than
maintaining a decrease-key heap — and always uses fresh sizes, which the
Defer-to-Idle probe depends on.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.cap import CAPIndex
from repro.core.cost import CostModel
from repro.core.query import BPHQuery, QueryEdge, canonical_edge
from repro.errors import CAPStateError

__all__ = ["EdgePool"]


class EdgePool:
    """Set of deferred query edges ordered by current estimated cost."""

    def __init__(self) -> None:
        self._edges: dict[tuple[int, int], QueryEdge] = {}

    def insert(self, edge: QueryEdge) -> None:
        """Park ``edge`` for later processing."""
        self._edges[edge.key] = edge

    def remove(self, u: int, v: int) -> QueryEdge:
        """Remove and return the pooled edge ``{u, v}``."""
        edge = self._edges.pop(canonical_edge(u, v), None)
        if edge is None:
            raise CAPStateError(f"edge ({u}, {v}) is not in the pool")
        return edge

    def discard(self, u: int, v: int) -> QueryEdge | None:
        """Remove ``{u, v}`` if pooled; returns it or None."""
        return self._edges.pop(canonical_edge(u, v), None)

    def contains(self, u: int, v: int) -> bool:
        """True iff ``{u, v}`` is pooled."""
        return canonical_edge(u, v) in self._edges

    def replace(self, edge: QueryEdge) -> None:
        """Update the stored bounds of a pooled edge (bound modification)."""
        if edge.key not in self._edges:
            raise CAPStateError(f"edge {edge.key} is not in the pool")
        self._edges[edge.key] = edge

    def estimated_cost(self, edge: QueryEdge, cap: CAPIndex, model: CostModel) -> float:
        """Current ``T_est`` of ``edge`` given live candidate-set sizes.

        Bound-aware: a re-pooled bound-1/2 edge is priced by its scan-based
        search, not by the all-pairs product (see ``CostModel``).
        """
        return model.estimate_edge_cost(
            cap.candidate_count(edge.u), cap.candidate_count(edge.v), edge.upper
        )

    def min_edge(self, cap: CAPIndex, model: CostModel) -> tuple[QueryEdge, float] | None:
        """The cheapest pooled edge and its current ``T_est``; None if empty.

        "In each iteration, the least expensive edge is removed from pool
        and processed" (Sec. 5.3) — cheapest-first drain maximizes early
        pruning, which in turn shrinks the still-pooled edges.
        """
        best: tuple[QueryEdge, float] | None = None
        for edge in self._edges.values():
            cost = self.estimated_cost(edge, cap, model)
            if best is None or cost < best[1]:
                best = (edge, cost)
        return best

    def sync_query_bounds(self, query: BPHQuery) -> None:
        """Refresh pooled edges from the query (after bound modifications).

        A pooled key may no longer exist in the query — a modification can
        delete an edge that was still deferred.  Such stale keys are
        discarded (the pool must mirror the query, and asking the query
        for a deleted edge would raise), never re-fetched.
        """
        for key in list(self._edges):
            if query.has_edge(*key):
                self._edges[key] = query.edge_between(*key)
            else:
                del self._edges[key]

    def edges(self) -> list[QueryEdge]:
        """Pooled edges (insertion order, copy)."""
        return list(self._edges.values())

    def clear(self) -> None:
        """Drop everything (session reset)."""
        self._edges.clear()

    def __len__(self) -> int:
        return len(self._edges)

    def __bool__(self) -> bool:
        return bool(self._edges)

    def __iter__(self) -> Iterator[QueryEdge]:
        return iter(self.edges())

    def __repr__(self) -> str:
        keys = ", ".join(str(k) for k in self._edges)
        return f"EdgePool([{keys}])"
