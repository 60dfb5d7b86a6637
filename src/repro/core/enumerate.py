"""Enumeration of partial-matched vertex sets (Algorithms 11 and 12).

After Run completes CAP construction, the *upper-bound-constrained* matches
of the query are exactly the connected subgraphs of the CAP index with one
candidate per level whose pairs are AIVS-linked for every query edge — the
paper's partial-matched vertex sets ``V_P``, collectively ``V_Δ``.

The enumeration is a depth-first search over a reordered matching order
(levels sorted by increasing ``|V_q|``, Algorithm 11 line 2): at each step
the candidate pool for the next query vertex is the intersection of the
AIVS sets of its already-matched query neighbors, and the 1-1 requirement
of Definition 3.1 is enforced by excluding already-used data vertices.

Lower bounds are *not* checked here — that is the just-in-time job of
:mod:`repro.core.lowerbound` during result visualization.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cap import CAPIndex
from repro.core.query import BPHQuery
from repro.errors import CAPStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.deadline import Deadline

__all__ = ["PartialMatches", "reorder_matching_order", "iter_partial_vertex_sets", "partial_vertex_sets"]


@dataclass
class PartialMatches:
    """``V_Δ``: all upper-bound-constrained matches found (possibly capped)."""

    #: Each match maps query-vertex id -> data-vertex id.
    matches: list[dict[int, int]]
    #: The (reordered) matching order the DFS used.
    order: list[int]
    #: True when enumeration stopped early at ``max_results``.
    truncated: bool = False
    extras: dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.matches)

    def __iter__(self) -> Iterator[dict[int, int]]:
        return iter(self.matches)


def reorder_matching_order(
    query: BPHQuery, cap: CAPIndex, matching_order: list[int] | None = None
) -> list[int]:
    """Sort the matching order by increasing live candidate-set size.

    Smaller levels first means fewer DFS branches near the root — the
    classic candidate-size heuristic, applied by Algorithm 11's
    ``Reorder``.  Ties keep the user's original drawing order, which makes
    enumeration deterministic.
    """
    base = matching_order if matching_order is not None else query.matching_order
    position = {q: i for i, q in enumerate(base)}
    return sorted(base, key=lambda q: (cap.candidate_count(q), position[q]))


def iter_partial_vertex_sets(
    query: BPHQuery,
    cap: CAPIndex,
    matching_order: list[int] | None = None,
    reorder: bool = True,
    deadline: "Deadline | None" = None,
) -> Iterator[dict[int, int]]:
    """Lazily yield every partial-matched vertex set ``V_P``.

    Requires every query edge to be processed in the CAP index (the state
    after Run); raises :class:`CAPStateError` otherwise, because an
    unprocessed edge would silently produce supersets of the true ``V_Δ``.

    ``reorder=False`` keeps the user's drawing order (the reorder-ablation
    arm); results are the same set, traversal cost differs.

    ``deadline`` adds a cooperative cancellation checkpoint per DFS
    extension step, so combinatorially exploding enumerations can be
    bounded (:class:`~repro.errors.DeadlineExceededError` at the next
    step) instead of holding the session hostage.
    """
    for edge in query.edges():
        if not cap.is_processed(edge.u, edge.v):
            raise CAPStateError(
                f"cannot enumerate: query edge {edge.key} is unprocessed"
            )
    if reorder:
        order = reorder_matching_order(query, cap, matching_order)
    else:
        order = list(matching_order if matching_order is not None else query.matching_order)
    if not order:
        return

    assignment: dict[int, int] = {}
    used: set[int] = set()
    neighbors_of = {q: query.neighbors(q) for q in order}

    def extend(position: int) -> Iterator[dict[int, int]]:
        if deadline is not None:
            deadline.checkpoint("V_Delta enumeration")
        if position == len(order):
            yield dict(assignment)
            return
        q_next = order[position]
        # Intersect AIVS sets of matched query neighbors (Algorithm 12
        # lines 1-6); with no matched neighbor yet, fall back to the level.
        pool: set[int] | None = None
        for q_matched in neighbors_of[q_next]:
            if q_matched not in assignment:
                continue
            aivs = cap.aivs(q_matched, q_next, assignment[q_matched])
            pool = aivs if pool is None else (pool & aivs)
            if not pool:
                return
        candidates = cap.candidates(q_next) if pool is None else pool
        # Sorted for run-to-run determinism of the result ordering.
        for v in sorted(candidates):
            if v in used:
                continue  # 1-1: distinct data vertices (Definition 3.1)
            assignment[q_next] = v
            used.add(v)
            yield from extend(position + 1)
            used.discard(v)
            del assignment[q_next]

    try:
        yield from extend(0)
    finally:
        # ``extend`` refers to itself through its own cell: left alone, that
        # cycle pins ``cap`` until the next full collection.
        extend = None


def partial_vertex_sets(
    query: BPHQuery,
    cap: CAPIndex,
    matching_order: list[int] | None = None,
    max_results: int | None = None,
    reorder: bool = True,
    deadline: "Deadline | None" = None,
) -> PartialMatches:
    """Collect ``V_Δ`` eagerly, optionally capped at ``max_results``.

    The cap exists because low-selectivity queries on permissive bounds can
    have combinatorially many matches; experiments set a generous cap and
    report truncation explicitly (DESIGN.md, "no silent caps").
    """
    if reorder:
        order = reorder_matching_order(query, cap, matching_order)
    else:
        order = list(matching_order if matching_order is not None else query.matching_order)
    matches: list[dict[int, int]] = []
    truncated = False
    for match in iter_partial_vertex_sets(
        query, cap, matching_order, reorder=reorder, deadline=deadline
    ):
        if max_results is not None and len(matches) >= max_results:
            truncated = True
            break
        matches.append(match)
    return PartialMatches(matches=matches, order=order, truncated=truncated)
