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

The search extends a block of partial matches at a time.  A frame is an
``(R, depth)`` int32 block of partial matches in DFS order.  One step pops
a frame, cuts off a chunk of its leading rows whose children fit ``_CHUNK``
gathered AIVS entries, gathers the children of the whole chunk from one
matched neighbor's pair block, filters them by every other matched neighbor
and by 1-1, and pushes the rest of the frame, then the children.  Children
come out ordered by (parent row, child id) and the stack is LIFO, so
full-depth rows are emitted in exactly the recursion's order.

Lower bounds are *not* checked here — that is the just-in-time job of
:mod:`repro.core.lowerbound` during result visualization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cap import CAPIndex, in_sorted, pair_keys
from repro.core.query import BPHQuery
from repro.errors import CAPStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.deadline import Deadline

__all__ = ["PartialMatches", "reorder_matching_order", "iter_partial_vertex_sets", "partial_vertex_sets"]

#: AIVS entries one DFS step gathers (at least one parent row's).  Smaller
#: wastes less work past ``max_results`` but pays numpy's per-call cost more
#: often; 2048 was the fastest of 512..8192 on the ``engine_enum`` workload.
_CHUNK = 2048
#: Rows :meth:`PartialMatches.__iter__` turns into dicts at a time.
_ITER_ROWS = 256


@dataclass(eq=False)
class PartialMatches:
    """``V_Δ``: all upper-bound-constrained matches found (possibly capped).

    Iterating yields one ``{query vertex: data vertex}`` dict per row of
    :attr:`block`, lazily; :attr:`matches` is the same as a cached list.
    """

    #: The matching order the DFS used; names the block's columns.
    order: list[int]
    #: int32 ``(M, k)``: a row per match, column ``i`` for ``order[i]``.
    block: np.ndarray
    #: True when enumeration stopped early at ``max_results``.
    truncated: bool = False
    extras: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dicts(
        cls,
        matches: Iterable[dict[int, int]],
        order: list[int] | None = None,
        truncated: bool = False,
        extras: dict[str, object] | None = None,
    ) -> "PartialMatches":
        """``V_Δ`` given as ``{query vertex: data vertex}`` dicts (the BU
        baseline's form); ``order`` defaults to the first match's sorted
        query vertices.  ``KeyError`` when a match lacks one of them,
        ``ValueError`` when one maps others."""
        matches = list(matches)
        if order is None:
            order = sorted(matches[0]) if matches else []
        if any(len(match) != len(order) for match in matches):
            raise ValueError("matches of one V_Δ must map the same query vertices")
        rows = [[match[q] for q in order] for match in matches]
        block = np.array(rows, dtype=np.int32).reshape(len(rows), len(order))
        return cls(order, block, truncated, extras if extras is not None else {})

    def __len__(self) -> int:
        return len(self.block)

    def __iter__(self) -> Iterator[dict[int, int]]:
        for start in range(0, len(self.block), _ITER_ROWS):
            for row in self.block[start : start + _ITER_ROWS].tolist():
                yield dict(zip(self.order, row))

    @cached_property
    def matches(self) -> list[dict[int, int]]:
        """Each match as a dict mapping query-vertex id -> data-vertex id."""
        return list(self)


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


def _resolve_order(
    query: BPHQuery, cap: CAPIndex, matching_order: list[int] | None, reorder: bool
) -> list[int]:
    if reorder:
        return reorder_matching_order(query, cap, matching_order)
    return list(matching_order if matching_order is not None else query.matching_order)


def _full_rows(
    query: BPHQuery, cap: CAPIndex, order: list[int], deadline: "Deadline | None"
) -> Iterator[np.ndarray]:
    """Yield ``V_Δ`` as int32 ``(R, len(order))`` blocks of full-depth rows,
    in DFS order over ``order`` with ascending candidates."""
    for edge in query.edges():
        if not cap.is_processed(edge.u, edge.v):
            raise CAPStateError(
                f"cannot enumerate: query edge {edge.key} is unprocessed"
            )
    if not order:
        return
    # Per position: (column, block sources, block targets, block keys) of
    # every query neighbor matched earlier (Algorithm 12 lines 1-6).
    column = {q: i for i, q in enumerate(order)}
    matched = []
    for depth, q in enumerate(order):
        earlier = [m for m in query.neighbors(q) if column.get(m, depth) < depth]
        blocks = [(column[m], cap.pairs(m, q)) for m in earlier]
        matched.append([(c, b[:, 0], b[:, 1], pair_keys(*b.T)) for c, b in blocks])

    # Frames are (depth, rows, spans).  ``spans`` says where the children of
    # each row lie: (which neighbor's block they are gathered from, first
    # entry, end); it is worked out when a frame is first popped and kept
    # on the rest of a frame that was cut.
    stack = [(0, np.empty((1, 0), dtype=np.int32), None)]
    while stack:
        if deadline is not None:
            deadline.checkpoint("V_Delta enumeration")
        depth, rows, spans = stack.pop()
        neighbors = matched[depth]
        if spans is None and neighbors:
            # Gather from the neighbor whose AIVS entries are fewest.
            sides = ((src, rows[:, c]) for c, src, _, _ in neighbors)
            spans = min(
                ((g, s.searchsorted(v), s.searchsorted(v, "right")) for g, (s, v) in enumerate(sides)),
                key=lambda span: (span[2] - span[1]).sum(),
            )
        elif spans is None:
            # No matched neighbor yet (the candidate-size order can put a
            # vertex before all of its neighbors): the whole level.
            whole = np.full(len(rows), cap.candidate_count(order[depth]))
            spans = (None, np.zeros_like(whole), whole)
        gathered, lo, hi = spans
        pool = neighbors[gathered][2] if neighbors else cap.candidates(order[depth])
        ends = np.cumsum(hi - lo)
        cut = max(1, int(ends.searchsorted(_CHUNK, "right")))
        if cut < len(rows):
            stack.append((depth, rows[cut:], (gathered, lo[cut:], hi[cut:])))
        lo, counts, ends = lo[:cut], (hi - lo)[:cut], ends[:cut]
        parent = np.repeat(np.arange(cut), counts)
        # Entry j of parent p is pool[lo[p] + j]: flat index arithmetic.
        child = pool[np.arange(ends[-1]) + np.repeat(lo - (ends - counts), counts)]
        for g, (c, _, _, keys) in enumerate(neighbors):
            if g != gathered:
                keep = in_sorted(keys, pair_keys(rows[parent, c], child))
                parent, child = parent[keep], child[keep]
        children = np.concatenate((rows[parent], child[:, None]), axis=1)
        # 1-1: distinct data vertices (Definition 3.1).
        distinct = (children[:, :depth] != child[:, None]).all(axis=1)
        children = np.compress(distinct, children, axis=0)
        if not len(children):
            continue
        if depth + 1 == len(order):
            yield children
        else:
            stack.append((depth + 1, children, None))


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

    ``deadline`` adds a cooperative cancellation checkpoint per DFS chunk,
    so combinatorially exploding enumerations can be bounded
    (:class:`~repro.errors.DeadlineExceededError` at the next chunk)
    instead of holding the session hostage.
    """
    order = _resolve_order(query, cap, matching_order, reorder)
    for block in _full_rows(query, cap, order, deadline):
        yield from PartialMatches(order, block)


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
    report truncation explicitly (DESIGN.md, "no silent caps"): the result
    is ``truncated`` iff a ``max_results + 1``-th match exists.
    """
    order = _resolve_order(query, cap, matching_order, reorder)
    blocks = [np.empty((0, len(order)), dtype=np.int32)]
    found = 0
    for block in _full_rows(query, cap, order, deadline):
        blocks.append(block)
        found += len(block)
        if max_results is not None and found > max_results:
            break
    truncated = max_results is not None and found > max_results
    return PartialMatches(order, np.concatenate(blocks)[:max_results], truncated)
