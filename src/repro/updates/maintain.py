"""Context-level update orchestration: mutate once, maintain everything.

One :class:`~repro.core.context.EngineContext` bundles the graph with
every structure derived from it — the distance oracle, the two-hop
counts, the shared distance-vector cache entries.  :func:`insert_edge`
and :func:`delete_edge` move them *together*:

1. validate that the context can be maintained at all (a
   :class:`~repro.storage.basis.StoredPML` over read-only mmap
   arrays cannot be patched in place — refuse with
   :class:`~repro.errors.StaleIndexError` *before* mutating, so the
   graph and index never diverge);
2. splice the CSR and bump the epoch (:mod:`repro.updates.csr`);
3. repair the oracle — incremental label patching for inserts
   (dynamic-PLL resumed pruned BFS), conservative full rebuild for
   deletes, nothing for a BFS oracle (its epoch-checked memo self-heals);
4. recompute the two-hop counts of the affected vertices in place
   (``{u, v} ∪ N(u) ∪ N(v)``, neighborhoods read on the side of the
   update where the edge exists);
5. drop the oracle's entries from the process-wide distance-vector
   cache (the epoch key already makes them unreachable; this frees the
   memory now).

Everything observable is reported in the returned :class:`UpdateReport`
and counted in ``repro_graph_updates_total``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import EngineContext
from repro.errors import StaleIndexError
from repro.graph.graph import Graph
from repro.indexing.batch import shared_distance_cache
from repro.indexing.oracle import BFSOracle
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import patch_two_hop_counts
from repro.obs.metrics import metrics
from repro.updates.csr import graph_delete_edge, graph_insert_edge
from repro.utils.timing import Stopwatch

__all__ = ["UpdateReport", "insert_edge", "delete_edge", "apply_updates"]


@dataclass(frozen=True)
class UpdateReport:
    """What one edge update did, and what it cost.

    ``strategy`` names how the oracle was maintained:
    ``pml-incremental`` (resumed pruned BFS), ``pml-rebuild`` (the
    conservative delete fallback), ``bfs-selfheal`` (nothing to do — the
    BFS memo validates epochs itself), or ``none`` (an epoch-unaware
    scalar oracle with no retained state, e.g. a bare counting wrapper
    over one of the above is unwrapped first).
    """

    kind: str  # "insert" | "delete"
    edge: tuple[int, int]
    epoch: int
    strategy: str
    labels_added: int = 0
    labels_updated: int = 0
    two_hop_recomputed: int = 0
    cache_dropped: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """Wire-facing payload (the service ``update`` verb returns this)."""
        return {
            "kind": self.kind,
            "edge": list(self.edge),
            "epoch": self.epoch,
            "strategy": self.strategy,
            "labels_added": self.labels_added,
            "labels_updated": self.labels_updated,
            "two_hop_recomputed": self.two_hop_recomputed,
            "cache_dropped": self.cache_dropped,
            "elapsed_seconds": self.elapsed_seconds,
        }


def _unwrap(oracle: object) -> object:
    """Peel counting/fault wrappers down to the oracle holding state."""
    seen: set[int] = set()
    while id(oracle) not in seen:
        seen.add(id(oracle))
        inner = getattr(oracle, "_inner", None) or getattr(oracle, "inner", None)
        if inner is None:
            return oracle
        oracle = inner
    return oracle


def _require_maintainable(ctx: EngineContext) -> object:
    """The unwrapped oracle, after proving the update can fully apply.

    Runs *before* any mutation: refusing here leaves the context exactly
    as it was.  Two refusal causes, both typed
    :class:`~repro.errors.StaleIndexError`: a PML whose label arrays are
    read-only views (an mmap basis — rebuild the basis instead), and a
    two-hop array that cannot be patched in place for the same reason.
    """
    oracle = _unwrap(ctx.oracle)
    if (
        isinstance(oracle, PrunedLandmarkLabeling)
        and not oracle.supports_incremental
    ):
        raise StaleIndexError(
            "a stored PML basis cannot be updated in place; rebuild the "
            "basis directory from a resident context"
        )
    two_hop = ctx.two_hop
    if hasattr(two_hop, "flags") and not two_hop.flags.writeable:
        raise StaleIndexError(
            "the context's two-hop counts are read-only (stored basis); "
            "updates require a resident context"
        )
    return oracle


def _affected_vertices(graph: Graph, u: int, v: int) -> set[int]:
    """``{u, v} ∪ N(u) ∪ N(v)`` — read while the edge exists."""
    affected = {int(u), int(v)}
    affected.update(int(w) for w in graph.neighbors(u))
    affected.update(int(w) for w in graph.neighbors(v))
    return affected


def _maintain_oracle(oracle: object, kind: str, u: int, v: int) -> tuple[str, int, int]:
    """Repair the unwrapped oracle; returns ``(strategy, added, updated)``."""
    if isinstance(oracle, PrunedLandmarkLabeling):
        if kind == "insert":
            added, updated = oracle.apply_edge_insert(u, v)
            return "pml-incremental", added, updated
        oracle.rebuild_inplace()
        return "pml-rebuild", 0, 0
    if isinstance(oracle, BFSOracle):
        return "bfs-selfheal", 0, 0
    return "none", 0, 0


def _apply(ctx: EngineContext, kind: str, u: int, v: int) -> UpdateReport:
    watch = Stopwatch().start()
    graph = ctx.graph
    oracle = _require_maintainable(ctx)
    if kind == "insert":
        epoch = graph_insert_edge(graph, u, v)
        affected = _affected_vertices(graph, u, v)  # post-insert adjacency
    else:
        affected = _affected_vertices(graph, u, v)  # pre-delete adjacency
        epoch = graph_delete_edge(graph, u, v)
    strategy, added, updated = _maintain_oracle(oracle, kind, u, v)
    recomputed = patch_two_hop_counts(graph, ctx.two_hop, affected)
    dropped = shared_distance_cache.invalidate(oracle)
    if oracle is not ctx.oracle:
        dropped += shared_distance_cache.invalidate(ctx.oracle)
    metrics.counter(
        "repro_graph_updates_total",
        "edge updates applied through repro.updates",
        kind=kind,
    ).inc()
    return UpdateReport(
        kind=kind,
        edge=(min(int(u), int(v)), max(int(u), int(v))),
        epoch=epoch,
        strategy=strategy,
        labels_added=added,
        labels_updated=updated,
        two_hop_recomputed=recomputed,
        cache_dropped=dropped,
        elapsed_seconds=watch.stop(),
    )


def insert_edge(ctx: EngineContext, u: int, v: int) -> UpdateReport:
    """Insert data-graph edge ``{u, v}`` and maintain every derived index."""
    return _apply(ctx, "insert", u, v)


def delete_edge(ctx: EngineContext, u: int, v: int) -> UpdateReport:
    """Delete data-graph edge ``{u, v}`` and maintain every derived index."""
    return _apply(ctx, "delete", u, v)


def apply_updates(
    ctx: EngineContext, ops: list[tuple[str, int, int]]
) -> list[UpdateReport]:
    """Apply a schedule of ``("insert" | "delete", u, v)`` operations."""
    reports = []
    for kind, u, v in ops:
        if kind not in ("insert", "delete"):
            raise ValueError(f"unknown update kind {kind!r}")
        reports.append(_apply(ctx, kind, u, v))
    return reports
