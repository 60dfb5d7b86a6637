"""Query modification during formulation (Section 6, Algorithms 5 and 15).

Users delete edges and alter bounds mid-formulation; the CAP index must
follow without a from-scratch rebuild.  The cases:

=====================  ======================  =================================
modification           edge state              CAP maintenance
=====================  ======================  =================================
delete                 unprocessed (pooled)    remove from pool; CAP untouched
delete                 processed               rollback affected component (Alg 5)
lower bound change     any                     CAP untouched (lower is JIT)
upper bound tightened  unprocessed             update pooled bounds
upper bound tightened  processed               re-check pairs, prune (Alg 15)
upper bound loosened   unprocessed             update pooled bounds
upper bound loosened   processed               rollback + re-pool incl. the edge
=====================  ======================  =================================

"Rollback" re-derives the connected component of *processed* query edges
containing the modified edge: candidate levels of the component's query
vertices are reset to their full label sets, the component's edges are
pushed (back) into the pool, and the strategy decides when they are
re-processed (IC: immediately; DI: within the current idle window; DR: at
Run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.query import QueryEdge, canonical_edge
from repro.errors import CAPStateError
from repro.indexing.twohop import hop_pairs
from repro.utils.timing import Stopwatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blender import BlenderEngine

__all__ = ["ModificationReport", "delete_edge", "modify_bounds", "quarantine_edge"]


@dataclass
class ModificationReport:
    """What a modification did to the index, and what it cost."""

    kind: str  # "delete" | "tighten" | "loosen" | "lower-only" | "pooled-update"
    edge: tuple[int, int]
    was_processed: bool
    affected_levels: list[int] = field(default_factory=list)
    repooled_edges: list[tuple[int, int]] = field(default_factory=list)
    pruned_vertices: int = 0
    elapsed_seconds: float = 0.0


def delete_edge(engine: "BlenderEngine", u: int, v: int) -> ModificationReport:
    """Handle the user deleting query edge ``{u, v}``."""
    watch = Stopwatch().start()
    # Validate *before* mutating the query so a bad request leaves the
    # session untouched.
    engine.query.edge_between(u, v)  # raises if absent
    pooled = engine.pool.contains(u, v)
    if not pooled and not engine.cap.is_processed(u, v):
        raise CAPStateError(
            f"edge ({u}, {v}) is neither pooled nor processed; "
            "was it ever delivered as a NewEdge action?"
        )
    engine.query.remove_edge(u, v)

    if pooled:
        # Unprocessed edge: "no change is required on the CAP index".
        # Re-derive the pool from the query instead of surgically
        # discarding one key — the query is the single source of truth,
        # so pool state cannot diverge from it after a deletion.
        engine.pool.sync_query_bounds(engine.query)
        return ModificationReport(
            kind="delete",
            edge=canonical_edge(u, v),
            was_processed=False,
            elapsed_seconds=watch.stop(),
        )

    report = _rollback(engine, canonical_edge(u, v), readd_edge=False)
    report.kind = "delete"
    report.elapsed_seconds = watch.stop()
    return report


def modify_bounds(
    engine: "BlenderEngine", u: int, v: int, lower: int, upper: int
) -> ModificationReport:
    """Handle the user changing the bounds of query edge ``{u, v}``."""
    watch = Stopwatch().start()
    old = engine.query.edge_between(u, v)
    key = canonical_edge(u, v)
    pooled = engine.pool.contains(u, v)
    if not pooled and not engine.cap.is_processed(u, v):
        # Validate before mutating: a bad request leaves the session intact.
        raise CAPStateError(
            f"edge ({u}, {v}) is neither pooled nor processed; "
            "was it ever delivered as a NewEdge action?"
        )
    new = engine.query.set_bounds(u, v, lower, upper)

    if pooled:
        # Unprocessed: CAP untouched; the pool re-reads every pooled
        # edge's bounds from the query (single source of truth) rather
        # than patching just the modified copy.
        engine.pool.sync_query_bounds(engine.query)
        return ModificationReport(
            kind="pooled-update",
            edge=key,
            was_processed=False,
            elapsed_seconds=watch.stop(),
        )

    if new.upper == old.upper:
        # Only the lower bound moved: CAP ignores lower bounds entirely
        # (they are checked just-in-time at visualization).
        return ModificationReport(
            kind="lower-only",
            edge=key,
            was_processed=True,
            elapsed_seconds=watch.stop(),
        )

    if new.upper < old.upper:
        report = _tighten(engine, new)
    else:
        report = _rollback(engine, key, readd_edge=True)
        report.kind = "loosen"
    report.elapsed_seconds = watch.stop()
    return report


def quarantine_edge(engine: "BlenderEngine", u: int, v: int) -> ModificationReport:
    """Resilience repair: roll back the component of a corrupt edge entry.

    Used by :class:`repro.resilience.CAPInvariantChecker` when the CAP
    entry of processed edge ``{u, v}`` fails an integrity audit.  The same
    Algorithm 5 machinery that serves query modification resets the
    affected component's candidate levels and re-pools its edges — but
    *without* the strategy's eager re-processing, because the caller
    decides when (and under which retry/deadline regime) to rebuild.
    """
    watch = Stopwatch().start()
    if not engine.cap.is_processed(u, v):
        raise CAPStateError(
            f"cannot quarantine edge ({u}, {v}): it is not processed"
        )
    report = _rollback(engine, canonical_edge(u, v), readd_edge=True, eager=False)
    report.kind = "quarantine"
    report.elapsed_seconds = watch.stop()
    return report


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------
def _tighten(engine: "BlenderEngine", edge: QueryEdge) -> ModificationReport:
    """Algorithm 15: stricter upper bound on a processed edge.

    Every surviving AIVS pair is re-validated against the new bound: the
    stored block keeps the rows that are also in the block of still-valid
    pairs, then the isolation prune re-runs for this edge.  The re-check
    uses the same bound specialization as PVS: the bounded-hop kernel over
    the two levels for upper 1 and 2, oracle distance otherwise.
    """
    qi, qj = edge.u, edge.v
    cap = engine.cap
    ctx = engine.ctx
    upper = edge.upper

    if upper <= 2:
        valid = hop_pairs(ctx.graph, cap.candidates(qi), cap.candidates(qj), upper)
    else:
        stored = cap.pairs(qi, qj)
        checks = (ctx.within(vi, vj, upper) for vi, vj in stored.tolist())
        valid = stored[np.fromiter(checks, bool, len(stored))]
    cap.retain_pairs(qi, qj, valid)
    pruned = cap.prune_isolated(qi, qj)
    return ModificationReport(
        kind="tighten",
        edge=edge.key,
        was_processed=True,
        affected_levels=[qi, qj],
        pruned_vertices=len(pruned),
    )


def _rollback(
    engine: "BlenderEngine",
    edge_key: tuple[int, int],
    readd_edge: bool,
    eager: bool = True,
) -> ModificationReport:
    """Algorithm 5: rebuild the affected processed-edge component.

    ``readd_edge`` distinguishes loosening (the edge returns to the pool
    with its new bound) from deletion (it does not).  ``eager=False`` skips
    the strategy's immediate re-processing, leaving every re-pooled edge
    for the caller (the resilience repair path controls rebuilds itself).
    """
    cap = engine.cap
    query = engine.query

    component_vertices, component_edges = cap.processed_component(edge_key[0])
    # Reset every affected level to its full matcher-based candidate set;
    # reset_level also drops the AIVS maps and processed marks touching it.
    for qk in sorted(component_vertices):
        cap.reset_level(qk, engine.ctx.candidates_for(query.label(qk)))

    # Re-pool the component's edges (minus the deleted one).
    repooled: list[tuple[int, int]] = []
    for a, b in sorted(component_edges):
        if (a, b) == edge_key and not readd_edge:
            continue
        if not query.has_edge(a, b):
            continue  # deleted edge itself
        engine.pool.insert(query.edge_between(a, b))
        repooled.append((a, b))

    report = ModificationReport(
        kind="loosen" if readd_edge else "delete",
        edge=edge_key,
        was_processed=True,
        affected_levels=sorted(component_vertices),
        repooled_edges=repooled,
    )
    # Strategy decides how eagerly the re-pooled edges are processed
    # (Algorithm 5 line 12 probes the pool under Defer-to-Idle).
    if eager:
        engine.after_modification()
    return report
