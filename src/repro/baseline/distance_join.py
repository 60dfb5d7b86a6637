"""Distance-join baseline (Related Work, Sec. 8).

The paper contrasts BOOMER with pattern matching via *distance joins* in
the traditional setting (Zou, Chen, Özsu VLDB'09; Zhang et al. TKDE'15):
after formulation, materialize for every query edge its **edge relation**

    R_e = { (v_i, v_j) ∈ V_qi x V_qj : dist(v_i, v_j) <= bound }

and multi-way join the relations on shared query vertices.  Two deviations
from BOOMER that the paper calls out:

* [38] "specifies only a *global* upper bound for the query" — exposed via
  ``global_upper`` (when set, every edge relation uses that single bound);
  by default the per-edge bounds are used so answers are comparable;
* these systems "find vertex matches without enumerating all vertices
  along the paths" — like ``V_Δ``, lower bounds and path embeddings are
  outside their scope (callers can still reuse BOOMER's JIT machinery).

Compared with BU (pure nested-loop with repeated distance queries), the
distance join pays the full materialization of every edge relation up
front — the same all-pairs work CAP does for *expensive* edges, but for
every edge and with no incremental pruning between them, which is exactly
why the blended paradigm wins during formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.context import EngineContext
from repro.core.query import BPHQuery
from repro.obs.clock import now

__all__ = ["DistanceJoin", "DistanceJoinResult"]


@dataclass
class DistanceJoinResult:
    """Outcome of one distance-join evaluation."""

    matches: list[dict[int, int]]
    srt_seconds: float
    materialize_seconds: float  # edge-relation construction share
    join_seconds: float  # multi-way join share
    relation_sizes: dict[tuple[int, int], int] = field(default_factory=dict)
    timed_out: bool = False
    truncated: bool = False

    @property
    def num_matches(self) -> int:
        """Number of upper-bound-constrained matches found."""
        return len(self.matches)


class DistanceJoin:
    """Materialize-then-join evaluation of a BPH query's upper bounds."""

    def __init__(
        self,
        ctx: EngineContext,
        global_upper: int | None = None,
        timeout_seconds: float | None = None,
        max_results: int | None = None,
    ) -> None:
        self.ctx = ctx
        self.global_upper = global_upper
        self.timeout_seconds = timeout_seconds
        self.max_results = max_results

    def evaluate(self, query: BPHQuery) -> DistanceJoinResult:
        """Evaluate ``query``; the whole call is the traditional SRT."""
        query.validate()
        start = now()
        deadline = (
            start + self.timeout_seconds if self.timeout_seconds is not None else None
        )

        # Phase 1 — materialize every edge relation.
        relations: dict[tuple[int, int], dict[int, set[int]]] = {}
        relation_sizes: dict[tuple[int, int], int] = {}
        timed_out = False
        candidates = {
            q: self.ctx.candidates_for(query.label(q)).tolist()
            for q in query.vertex_ids()
        }
        for edge in query.edges():
            bound = self.global_upper if self.global_upper is not None else edge.upper
            forward: dict[int, set[int]] = {}
            count = 0
            others = candidates[edge.v]
            for vi in candidates[edge.u]:
                if deadline is not None and now() > deadline:
                    timed_out = True
                    break
                # One batched distance vector per vi replaces the
                # per-(vi, vj) within() loop; vi itself is excluded first,
                # exactly like the scalar filter (and uncounted, as before).
                probe = [vj for vj in others if vj != vi]
                dists = self.ctx.distances_from(vi, probe) if probe else ()
                targets = {
                    vj for vj, d in zip(probe, dists) if 0 <= d <= bound
                }
                if targets:
                    forward[vi] = targets
                    count += len(targets)
            relations[edge.key] = forward
            relation_sizes[edge.key] = count
            if timed_out:
                break
        materialize_seconds = now() - start

        if timed_out:
            return DistanceJoinResult(
                matches=[],
                srt_seconds=now() - start,
                materialize_seconds=materialize_seconds,
                join_seconds=0.0,
                relation_sizes=relation_sizes,
                timed_out=True,
            )

        # Phase 2 — multi-way join on shared query vertices (DFS over the
        # user order, no candidate-size reordering: the traditional system
        # has no live sizes to reorder by until relations are built, and we
        # keep it deliberately simple like the baseline it models).
        join_start = now()
        order = query.matching_order
        neighbors_of = {q: query.neighbors(q) for q in order}
        matches: list[dict[int, int]] = []
        truncated = False
        assignment: dict[int, int] = {}
        used: set[int] = set()

        def pairs_allow(q_next: int, v: int) -> bool:
            """Is (assignment[q_prev], v) in R_e for every matched neighbor?

            Relations are stored directed from ``edge.u``; when the matched
            neighbor sits on the ``edge.v`` side, ``v`` plays the ``edge.u``
            role in the lookup.
            """
            for q_prev in neighbors_of[q_next]:
                if q_prev not in assignment:
                    continue
                edge = query.edge_between(q_prev, q_next)
                forward = relations[edge.key]
                if q_prev == edge.u:
                    allowed = v in forward.get(assignment[q_prev], ())
                else:
                    allowed = assignment[q_prev] in forward.get(v, ())
                if not allowed:
                    return False
            return True

        def extend(position: int) -> bool:
            nonlocal truncated, timed_out
            if deadline is not None and now() > deadline:
                timed_out = True
                return False
            if position == len(order):
                matches.append(dict(assignment))
                if self.max_results is not None and len(matches) >= self.max_results:
                    truncated = True
                    return False
                return True
            q_next = order[position]
            for v in candidates[q_next]:
                if v in used:
                    continue
                if not pairs_allow(q_next, v):
                    continue
                assignment[q_next] = v
                used.add(v)
                keep_going = extend(position + 1)
                used.discard(v)
                del assignment[q_next]
                if not keep_going:
                    return False
            return True

        extend(0)
        join_seconds = now() - join_start
        return DistanceJoinResult(
            matches=matches,
            srt_seconds=now() - start,
            materialize_seconds=materialize_seconds,
            join_seconds=join_seconds,
            relation_sizes=relation_sizes,
            timed_out=timed_out,
            truncated=truncated,
        )
