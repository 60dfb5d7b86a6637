"""PopulateVertexSet (PVS) — Algorithm 8 and its three search strategies.

Given a freshly processed query edge ``(q_i, q_j)`` with upper bound ``b``,
PVS fills the AIVS maps of the CAP index with every candidate pair
``(v_i, v_j) ∈ V_qi × V_qj`` such that ``dist(v_i, v_j) <= b``:

* ``b == 1`` — **neighbor search** (Algorithm 9): per candidate ``v_i``,
  choose *out-scan* (walk ``v_i``'s adjacency, filter by label + candidate
  membership) or *in-scan* (walk ``V_qj``, test adjacency) by the cost
  model of Lemma 5.3.
* ``b == 2`` — **two-hop search**: same structure, with the 2-hop
  neighborhood enumerated on the fly for out-scans and a sorted
  common-neighbor merge join for in-scans (Lemma 5.4); scan choice uses
  the precomputed 2-hop *counts*.
* ``b >= 3`` — **large-upper search**: all-pairs bounded-distance checks
  through the PML oracle (Lemma 5.5).

Pairs with ``v_i == v_j`` are skipped: the 1-1 mapping can never use them
and keeping them would let a candidate keep itself alive.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cap import CAPIndex
from repro.core.context import EngineContext
from repro.core.query import QueryEdge
from repro.indexing.twohop import two_hop_neighbors

__all__ = [
    "populate_vertex_set",
    "neighbor_search",
    "two_hop_search",
    "large_upper_search",
]


def populate_vertex_set(
    cap: CAPIndex,
    ctx: EngineContext,
    edge: QueryEdge,
    force_large_upper: bool = False,
) -> None:
    """Populate the AIVS maps of ``edge`` (Algorithm 8 dispatch).

    ``force_large_upper=True`` disables the bound-specialized searches and
    runs everything through the PML all-pairs path — the "1-Strategy" arm
    of Exp 1 (Fig. 5).
    """
    if force_large_upper:
        large_upper_search(cap, ctx, edge)
    elif edge.upper == 1:
        neighbor_search(cap, ctx, edge)
    elif edge.upper == 2:
        two_hop_search(cap, ctx, edge)
    else:
        large_upper_search(cap, ctx, edge)


def _log2(x: int) -> float:
    return math.log2(x) if x > 1 else 1.0


def _choose_out(ctx: EngineContext, cost_out: float, cost_in: float) -> bool:
    """Scan choice: the Lemma 5.3/5.4 cost model, or the ablation override."""
    if ctx.scan_override == "out":
        return True
    if ctx.scan_override == "in":
        return False
    return cost_out < cost_in


def _scan_setup(cap: CAPIndex, graph, edge: QueryEdge) -> tuple:
    """``(qi, qj, V_qi, V_qj)``, the smaller candidate side first, then the
    label frequency, size and log-size of ``V_qj`` for the cost model."""
    qi, qj = edge.u, edge.v
    if cap.candidate_count(qj) < cap.candidate_count(qi):
        qi, qj = qj, qi
    v_qj = cap.candidates(qj)
    p_label = graph.label_frequency(_level_label(graph, v_qj))
    return qi, qj, cap.candidates(qi), v_qj, p_label, len(v_qj), _log2(len(v_qj))


def neighbor_search(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> None:
    """Upper bound 1: AIVS via adjacency scans (Algorithm 9 / Lemma 5.3).

    Iterates the *smaller* candidate side (the relation is symmetric), so
    the per-edge work is ``min(|V_qi|, |V_qj|)`` scans — which is also what
    the pool's bound-aware cost estimate assumes.
    """
    graph, counters = ctx.graph, ctx.counters
    qi, qj, v_qi, v_qj, p_label, size_j, log_size_j = _scan_setup(cap, graph, edge)

    for vi in v_qi:
        deg_vi = graph.degree(vi)
        cost_out = deg_vi + deg_vi * p_label * log_size_j
        cost_in = size_j * _log2(deg_vi)
        if _choose_out(ctx, cost_out, cost_in):
            counters.out_scans += 1
            for vj in graph.neighbors(vi):
                vj = int(vj)
                if vj != vi and vj in v_qj:
                    cap.add_pair(qi, qj, vi, vj)
                    counters.pairs_added += 1
        else:
            counters.in_scans += 1
            for vj in v_qj:
                if vj != vi and graph.has_edge(vi, vj):
                    cap.add_pair(qi, qj, vi, vj)
                    counters.pairs_added += 1


def two_hop_search(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> None:
    """Upper bound 2: AIVS via 2-hop scans (Lemma 5.4).

    Iterates the smaller candidate side, like :func:`neighbor_search`.
    """
    graph, counters = ctx.graph, ctx.counters
    qi, qj, v_qi, v_qj, p_label, size_j, log_size_j = _scan_setup(cap, graph, edge)
    mean_deg = (2.0 * graph.num_edges / graph.num_vertices) if len(graph) else 0.0

    for vi in v_qi:
        twohop_vi = int(ctx.two_hop[vi])
        deg_vi = graph.degree(vi)
        cost_out = twohop_vi + twohop_vi * p_label * log_size_j
        cost_in = size_j * (deg_vi + mean_deg)
        if _choose_out(ctx, cost_out, cost_in):
            counters.out_scans += 1
            for vj in two_hop_neighbors(graph, vi):
                if vj != vi and vj in v_qj:
                    cap.add_pair(qi, qj, vi, vj)
                    counters.pairs_added += 1
        else:
            counters.in_scans += 1
            nbrs_vi = graph.neighbors(vi)
            for vj in v_qj:
                if vj == vi:
                    continue
                if _within_two_hops(graph, vi, vj, nbrs_vi):
                    cap.add_pair(qi, qj, vi, vj)
                    counters.pairs_added += 1


def _within_two_hops(graph, vi: int, vj: int, nbrs_vi: np.ndarray) -> bool:
    """``dist(vi, vj) <= 2`` via adjacency + sorted common-neighbor join."""
    nbrs_vj = graph.neighbors(vj)
    # Adjacent?  Both arrays are sorted; binary search the shorter probe.
    pos = int(np.searchsorted(nbrs_vi, vj))
    if pos < len(nbrs_vi) and int(nbrs_vi[pos]) == vj:
        return True
    # Common neighbor?  Merge-join (Lemma 5.4 charges deg(vi) + deg(vj)).
    i = j = 0
    len_i, len_j = len(nbrs_vi), len(nbrs_vj)
    while i < len_i and j < len_j:
        a, b = int(nbrs_vi[i]), int(nbrs_vj[j])
        if a == b:
            return True
        if a < b:
            i += 1
        else:
            j += 1
    return False


def large_upper_search(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> None:
    """Upper bound >= 3 (or forced): batched all-pairs checks (Lemma 5.5).

    One :meth:`~repro.core.context.EngineContext.within_many` call per
    edge answers all |V_qi|·|V_qj| checks, and its pair block lands in
    the CAP through one :meth:`~repro.core.cap.CAPIndex.add_pairs`.
    Diagonal pairs never reach the oracle (the 1-1 mapping cannot use
    them) but ``within_many`` still charges them to ``distance_queries``,
    the Lemma 5.5 accounting this search always reported.
    """
    qi, qj = edge.u, edge.v
    # Candidate sets go in their (deterministic) set order: on the per-pair
    # fallback that fixes the oracle call order and so the fault schedules.
    pairs = ctx.within_many(
        list(cap.candidates(qi)), list(cap.candidates(qj)), edge.upper, skip_equal=True
    )
    ctx.counters.pairs_added += cap.add_pairs(qi, qj, pairs)


def _level_label(graph, candidates: set[int]) -> object:
    """Label shared by a candidate level (levels are label-homogeneous)."""
    for v in candidates:
        return graph.label(v)
    return None
