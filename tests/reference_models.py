"""The container models the array CAP, the block DFS and the block
lower-bound verify replaced.

Kept here, and only here, as the references the conformance tests drive
beside the real thing: a dict-of-set CAP with the scalar ``add_pair`` /
``remove_pair`` and Algorithm 7's worklist prune, the recursive
depth-first enumeration over it, and Algorithms 13/14 as the per-match,
per-DFS-node oracle loop they are stated as.  Plus two helpers that turn
the array CAP's state into plain Python for ``==``.
"""

from __future__ import annotations

from repro.core.cap import CAPIndex
from repro.core.context import EngineContext
from repro.core.lowerbound import PathSearchStats, ResultSubgraph
from repro.core.query import BPHQuery, canonical_edge
from repro.obs.metrics import metrics


def ids(array) -> set[int]:
    """A level or an AIVS slice of the array CAP as a set of ints."""
    return set(array.tolist())


def cap_state(cap: CAPIndex):
    """Levels and directed pairs of the array CAP as plain containers."""
    return (
        {q: ids(cap.candidates(q)) for q in cap.levels()},
        {key: {tuple(row) for row in block.tolist()} for key, block in cap._blocks.items()},
    )


class SetCAP:
    """``dict[int, set[int]]`` levels, ``dict[int, set[int]]`` per direction."""

    def __init__(self, pruning_enabled: bool = True) -> None:
        self.pruning_enabled = pruning_enabled
        self.candidates: dict[int, set[int]] = {}
        self.aivs: dict[tuple[int, int], dict[int, set[int]]] = {}
        self.processed: set[tuple[int, int]] = set()
        self.prune_steps = 0
        self.peak_total = 0

    def add_level(self, q, candidates) -> None:
        self.candidates[q] = set(candidates)
        self._note_peak()

    def reset_level(self, q, candidates) -> None:
        self.candidates[q] = set(candidates)
        self.aivs = {k: v for k, v in self.aivs.items() if q not in k}
        self.processed = {e for e in self.processed if q not in e}

    def begin_edge(self, qi, qj) -> None:
        self.aivs[(qi, qj)] = {v: set() for v in self.candidates[qi]}
        self.aivs[(qj, qi)] = {v: set() for v in self.candidates[qj]}

    def add_pair(self, qi, qj, vi, vj) -> None:
        self.aivs[(qi, qj)][vi].add(vj)
        self.aivs[(qj, qi)][vj].add(vi)

    def remove_pair(self, qi, qj, vi, vj) -> None:
        self.aivs[(qi, qj)].get(vi, set()).discard(vj)
        self.aivs[(qj, qi)].get(vj, set()).discard(vi)

    def finish_edge(self, qi, qj) -> list[int]:
        self.processed.add(canonical_edge(qi, qj))
        self._note_peak()
        return self.prune_isolated(qi, qj)

    def prune_isolated(self, qi, qj) -> list[int]:
        removed: list[int] = []
        if self.pruning_enabled:
            for q, other in ((qi, qj), (qj, qi)):
                for v in [v for v in self.candidates[q] if not self.aivs[(q, other)].get(v)]:
                    self._prune(q, v, removed)
        return removed

    def _prune(self, q, v, removed) -> None:
        worklist = [(q, v)]
        while worklist:
            level, vertex = worklist.pop()
            if vertex not in self.candidates[level]:
                continue
            self.candidates[level].discard(vertex)
            removed.append(vertex)
            self.prune_steps += 1
            for (a, b), aivs in list(self.aivs.items()):
                if a != level:
                    continue
                for w in aivs.pop(vertex, ()):
                    reverse = self.aivs[(b, a)].get(w)
                    if reverse is None:
                        continue
                    reverse.discard(vertex)
                    if not reverse and w in self.candidates[b]:
                        worklist.append((b, w))

    def total(self) -> int:
        pairs = sum(len(s) for aivs in self.aivs.values() for s in aivs.values())
        return sum(map(len, self.candidates.values())) + pairs // 2

    def _note_peak(self) -> None:
        self.peak_total = max(self.peak_total, self.total())

    def state(self):
        """The same shape as :func:`cap_state`."""
        return (
            {q: set(c) for q, c in self.candidates.items()},
            {
                key: {(v, w) for v, targets in aivs.items() for w in targets}
                for key, aivs in self.aivs.items()
            },
        )


def recursive_dfs(
    query: BPHQuery, cap: CAPIndex, order: list[int], max_results: int | None = None
) -> tuple[list[dict[int, int]], bool]:
    """``(matches, truncated)`` of Algorithm 12 as the recursion it is
    stated as: intersect the AIVS sets of the matched query neighbors,
    candidates ascending, no data vertex twice; stop at the
    ``max_results + 1``-th match."""
    matches: list[dict[int, int]] = []
    assignment: dict[int, int] = {}

    class Full(Exception):
        pass

    def extend(position: int) -> None:
        if position == len(order):
            if max_results is not None and len(matches) >= max_results:
                raise Full
            matches.append(dict(assignment))
            return
        q_next = order[position]
        pool = ids(cap.candidates(q_next))
        for q_matched in query.neighbors(q_next):
            if q_matched in assignment:
                pool &= ids(cap.aivs(q_matched, q_next, assignment[q_matched]))
        for v in sorted(pool - set(assignment.values())):
            assignment[q_next] = v
            extend(position + 1)
            del assignment[q_next]

    try:
        if order:
            extend(0)
    except Full:
        return matches, True
    return matches, False


def scalar_detect_path(
    ctx: EngineContext,
    source: int,
    target: int,
    lower: int,
    upper: int,
    max_nodes: int = 100_000,
    stats: PathSearchStats | None = None,
) -> list[int] | None:
    """Find one simple path ``source -> target`` with length in [lower, upper].

    Returns the vertex list (including endpoints) or None when no such path
    exists.  ``max_nodes`` bounds the DFS expansion as a safety valve; the
    distance-guided pruning keeps real searches tiny (Exp 5 measures this).
    Pass a :class:`PathSearchStats` to learn whether a ``None`` meant
    "proved absent" or "gave up at the expansion budget" (``truncated``).

    The per-node pruning distances are fetched with one batched
    ``distances_from(target, unvisited_neighbors)`` call — distances are
    symmetric on the undirected data graph — instead of one oracle call
    per neighbor.
    """
    if stats is None:
        stats = PathSearchStats()
    else:
        stats.expanded = 0
        stats.truncated = False
    if source == target:
        return None  # matching paths are non-empty and simple
    d0 = ctx.distance(source, target)
    if d0 < 0 or d0 > upper:
        return None

    graph = ctx.graph
    path = [source]
    visited = {source}

    def dfs(current: int, steps: int) -> bool:
        stats.expanded += 1
        if stats.expanded > max_nodes:
            stats.truncated = True
            return False
        if current == target:
            return lower <= steps <= upper
        if steps >= upper:
            return False
        d_current = ctx.distance(current, target)
        neighbors = [
            w for w in (int(w) for w in graph.neighbors(current))
            if w not in visited
        ]
        progress: list[int] = []
        detour: list[int] = []
        if neighbors:
            dists = ctx.distances_from(target, neighbors)
            for w, d_w in zip(neighbors, dists):
                d_w = int(d_w)
                if d_w < 0 or steps + 1 + d_w > upper:
                    continue  # cannot reach target within upper any more
                if d_w == d_current - 1:
                    progress.append(w)
                else:
                    detour.append(w)
        # Algorithm 14 lines 15-19: if finishing via shortest continuation
        # already satisfies lower, try progress first; else detour first.
        ordered = progress + detour if steps + d_current >= lower else detour + progress
        for w in ordered:
            visited.add(w)
            path.append(w)
            if dfs(w, steps + 1):
                return True
            path.pop()
            visited.discard(w)
        return False

    if dfs(source, 0):
        return path
    return None


def scalar_filter_by_lower_bound(
    assignment: dict[int, int],
    query: BPHQuery,
    ctx: EngineContext,
    max_nodes: int = 100_000,
) -> ResultSubgraph | None:
    """Algorithm 13 for one match: a path per query edge, in edge order,
    stopping at the first edge without one (counted as a truncation when
    that search ran out of budget)."""
    result = ResultSubgraph(assignment=dict(assignment))
    stats = PathSearchStats()
    for edge in query.edges():
        path = scalar_detect_path(
            ctx, assignment[edge.u], assignment[edge.v], edge.lower, edge.upper,
            max_nodes=max_nodes, stats=stats,
        )
        if path is None:
            if stats.truncated:
                metrics.counter("repro_detect_path_truncations_total").inc()
            return None
        result.paths[edge.key] = path
    return result
