"""PopulateVertexSet (PVS) — Algorithm 8 and its three search strategies.

Given a freshly processed query edge ``(q_i, q_j)`` with upper bound ``b``,
PVS fills the AIVS maps of the CAP index with every candidate pair
``(v_i, v_j) ∈ V_qi × V_qj`` such that ``dist(v_i, v_j) <= b``:

* ``b == 1`` — **neighbor search** (Algorithm 9): per candidate ``v_i``,
  choose *out-scan* (walk ``v_i``'s adjacency, filter by label + candidate
  membership) or *in-scan* (walk ``V_qj``, test adjacency) by the cost
  model of Lemma 5.3.
* ``b == 2`` — **two-hop search**: same structure, with the 2-hop
  neighborhoods enumerated on the fly (Lemma 5.4); scan choice uses the
  precomputed 2-hop *counts*.
* ``b >= 3`` — **large-upper search**: all-pairs bounded-distance checks
  through the PML oracle (Lemma 5.5).

Both scan searches answer a whole level at once through the block kernel
:func:`~repro.indexing.twohop.hop_pairs` and hand the CAP one pair block.

Pairs with ``v_i == v_j`` are skipped: the 1-1 mapping can never use them
and keeping them would let a candidate keep itself alive.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.cap import CAPIndex
from repro.core.context import EngineContext
from repro.core.query import QueryEdge
from repro.indexing.twohop import hop_pairs

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


def _scan_setup(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> tuple:
    """``(qi, qj, V_qi, V_qj)`` as arrays, the smaller candidate side first,
    then ``deg(v_i)`` per scanned vertex and the label frequency, size and
    log-size of ``V_qj`` for the cost model."""
    qi, qj = edge.u, edge.v
    if cap.candidate_count(qj) < cap.candidate_count(qi):
        qi, qj = qj, qi
    v_i, v_j = (cap.candidates(q).astype(np.int64) for q in (qi, qj))
    offsets, _ = ctx.graph.raw_csr()
    p_label = ctx.graph.label_frequency(_level_label(ctx.graph, v_j))
    return qi, qj, v_i, v_j, offsets[v_i + 1] - offsets[v_i], p_label, len(v_j), _log2(len(v_j))


def _scan(cap, ctx, qi, qj, v_i, v_j, cost_out, cost_in, hops: int) -> None:
    """Per-source scan choice (cost model or ablation override), then the
    pairs of the whole level through :func:`~repro.indexing.twohop.hop_pairs`.

    Out-scan sources are expanded from their own side.  In-scan sources
    ("walk ``V_qj``, test adjacency") are answered by one pass from
    ``V_qj`` with the columns flipped: exact because distance is
    symmetric, and its cost does not grow with their number.
    """
    counters = ctx.counters
    out = cost_out < cost_in
    if ctx.scan_override in ("out", "in"):
        out[:] = ctx.scan_override == "out"
    n_out = int(out.sum())
    counters.out_scans += n_out
    counters.in_scans += len(out) - n_out
    blocks = [np.empty((0, 2), dtype=np.int32)]
    for scanned, member, flip in ((v_i[out], v_j, 1), (v_j, v_i[~out], -1)):
        if len(scanned) and len(member):
            blocks.append(hop_pairs(ctx.graph, scanned, member, hops)[:, ::flip])
    # With in-scans the flipped rows come sorted by target; the CAP sorts.
    counters.pairs_added += cap.add_pairs(qi, qj, np.concatenate(blocks))


def neighbor_search(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> None:
    """Upper bound 1: AIVS via adjacency scans (Algorithm 9 / Lemma 5.3).

    Scans the *smaller* candidate side (the relation is symmetric), so
    the per-edge work is ``min(|V_qi|, |V_qj|)`` scans — which is also what
    the pool's bound-aware cost estimate assumes.  The comparison is the
    scalar one, evaluated for the whole level in float64 in the same order.
    """
    qi, qj, v_i, v_j, deg, p_label, size_j, log_size_j = _scan_setup(cap, ctx, edge)
    # math.log2 per distinct degree: a SIMD np.log2 may differ in the last bit.
    distinct, inverse = np.unique(deg, return_inverse=True)
    log_deg = np.array([_log2(d) for d in distinct.tolist()])[inverse]
    cost_out = deg + deg * p_label * log_size_j
    _scan(cap, ctx, qi, qj, v_i, v_j, cost_out, size_j * log_deg, hops=1)


def two_hop_search(cap: CAPIndex, ctx: EngineContext, edge: QueryEdge) -> None:
    """Upper bound 2: AIVS via 2-hop scans (Lemma 5.4).

    Scans the smaller candidate side, like :func:`neighbor_search`; the
    out-scan cost uses the precomputed 2-hop counts.
    """
    graph = ctx.graph
    qi, qj, v_i, v_j, deg, p_label, size_j, log_size_j = _scan_setup(cap, ctx, edge)
    mean_deg = (2.0 * graph.num_edges / graph.num_vertices) if len(graph) else 0.0
    two_hop = ctx.two_hop[v_i]
    cost_out = two_hop + two_hop * p_label * log_size_j
    _scan(cap, ctx, qi, qj, v_i, v_j, cost_out, size_j * (deg + mean_deg), hops=2)


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
    # Ascending levels in, a block sorted by (v_i, v_j) out; on the per-pair
    # fallback that also fixes the oracle call order and so the fault schedules.
    pairs = ctx.within_many(
        cap.candidates(qi), cap.candidates(qj), edge.upper, skip_equal=True
    )
    ctx.counters.pairs_added += cap.add_pairs(qi, qj, pairs)


def _level_label(graph, candidates: np.ndarray) -> object:
    """Label shared by a candidate level (levels are label-homogeneous)."""
    return graph.label(int(candidates[0])) if len(candidates) else None
