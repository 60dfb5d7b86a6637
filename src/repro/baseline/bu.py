"""BOOMER-unaware evaluation (BU) — the paper's baseline (Section 7.1).

BU "generates partial matches without utilizing the CAP index after the Run
icon is clicked by following the reordered matching order":

* query vertices are considered smallest-candidate-set first;
* each partial match is extended with every label-matching candidate of the
  next vertex that (a) is distinct from already-used vertices (1-1) and
  (b) satisfies the upper-bound constraint — checked with a PML distance
  query — against *every* already-matched query neighbor.

There is no pruning memo: the same distance query is issued again for every
partial match that reaches the same vertex pair, which is exactly why BU is
orders of magnitude slower than CAP-based evaluation (Fig. 7) and why the
paper caps its runs at two hours (we expose ``timeout_seconds``; a timed-out
run reports ``timed_out=True``, the analog of the paper's DNF entries).

Lower bounds are then checked the same just-in-time way as BOOMER's
(shared :func:`repro.core.lowerbound.filter_by_lower_bound`), so BU's final
answers are comparable 1:1 with BOOMER's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.context import EngineContext
from repro.core.enumerate import PartialMatches
from repro.core.lowerbound import ResultSubgraph, filter_by_lower_bound, valid_chunks
from repro.core.query import BPHQuery
from repro.obs.clock import now

__all__ = ["BoomerUnaware", "BUResult"]


@dataclass
class BUResult:
    """Outcome of one BU evaluation."""

    matches: list[dict[int, int]]
    srt_seconds: float
    timed_out: bool = False
    truncated: bool = False
    distance_queries: int = 0
    order: list[int] = field(default_factory=list)

    @property
    def num_matches(self) -> int:
        """Number of upper-bound-constrained matches found."""
        return len(self.matches)


class BoomerUnaware:
    """Traditional post-formulation BPH evaluation with PML only."""

    def __init__(
        self,
        ctx: EngineContext,
        timeout_seconds: float | None = None,
        max_results: int | None = None,
    ) -> None:
        self.ctx = ctx
        self.timeout_seconds = timeout_seconds
        self.max_results = max_results

    def evaluate(self, query: BPHQuery) -> BUResult:
        """Evaluate ``query`` from scratch; the whole call is the SRT."""
        query.validate()
        start = now()
        start_queries = self.ctx.counters.distance_queries

        # Reordered matching order: increasing candidate-set size.
        candidates_of = {
            q: self.ctx.candidates_for(query.label(q)).tolist()
            for q in query.vertex_ids()
        }
        base = query.matching_order
        position = {q: i for i, q in enumerate(base)}
        order = sorted(base, key=lambda q: (len(candidates_of[q]), position[q]))
        neighbors_of = {q: query.neighbors(q) for q in order}

        matches: list[dict[int, int]] = []
        timed_out = False
        truncated = False
        deadline = (
            start + self.timeout_seconds if self.timeout_seconds is not None else None
        )

        assignment: dict[int, int] = {}
        used: set[int] = set()

        def extend(pos: int) -> bool:
            """DFS join; returns False to abort (timeout / cap)."""
            nonlocal timed_out, truncated
            if deadline is not None and now() > deadline:
                timed_out = True
                return False
            if pos == len(order):
                matches.append(dict(assignment))
                if self.max_results is not None and len(matches) >= self.max_results:
                    truncated = True
                    return False
                return True
            q_next = order[pos]
            matched_neighbors = [
                (qk, query.edge_between(qk, q_next).upper)
                for qk in neighbors_of[q_next]
                if qk in assignment
            ]
            # Batched constraint filtering: one distances_from call per
            # matched query neighbor narrows the whole candidate list,
            # instead of per-(candidate, neighbor) within() calls.  The
            # surviving candidates — and hence the emitted matches — are
            # identical to the scalar short-circuit loop, and so is the
            # distance_queries total on completed runs: a candidate is in
            # ``viable`` at neighbor k iff the scalar loop would have
            # issued its k-th check.  (Only a mid-search timeout can make
            # the totals differ, since the batch arm pays for a level's
            # candidates up front.)
            viable = [v for v in candidates_of[q_next] if v not in used]
            for qk, upper in matched_neighbors:
                if not viable:
                    break
                dists = self.ctx.distances_from(assignment[qk], viable)
                viable = [
                    v for v, d in zip(viable, dists) if 0 <= d <= upper
                ]
            for v in viable:
                assignment[q_next] = v
                used.add(v)
                keep_going = extend(pos + 1)
                used.discard(v)
                del assignment[q_next]
                if not keep_going:
                    return False
            return True

        extend(0)
        return BUResult(
            matches=matches,
            srt_seconds=now() - start,
            timed_out=timed_out,
            truncated=truncated,
            distance_queries=self.ctx.counters.distance_queries - start_queries,
            order=order,
        )

    def results(self, bu_result: BUResult, query: BPHQuery, limit: int | None = None) -> list[ResultSubgraph]:
        """Lower-bound-validated result subgraphs (same JIT path as BOOMER)."""
        matches = PartialMatches.from_dicts(bu_result.matches, order=bu_result.order or None)
        verify = partial(filter_by_lower_bound, query=query, ctx=self.ctx)
        return [s for valid in valid_chunks(matches, limit, verify) for s in valid]
