"""Just-in-time lower-bound checking and result-subgraph generation.

CAP construction deliberately ignores lower bounds (checking them for every
candidate pair during formulation would burn GUI latency for constraints
that only matter to *displayed* results).  Instead, when the user iterates
through matches on the Results Panel, BOOMER materializes — per query edge —
one *matching path* whose length satisfies ``[lower, upper]``
(Algorithms 13/14).  A match for which some edge has no such path is
rejected at this stage.

A Results page is verified as a block of (row, query edge) cells:
``d = dist(source, target)`` comes from the oracle once per distinct pair,
every other distance from one bounded BFS ball per distinct target
(:func:`~repro.indexing.twohop.bfs_levels`).  ``DetectPath`` is a
distance-guided DFS that prunes ``steps + dist(current, target) > upper`` and
prefers neighbours one level closer to the target (*progress*) whenever
finishing along a shortest path satisfies ``lower``, *detours* otherwise.
When ``lower <= d`` it never backtracks — a progress neighbour is unvisited
and never pruned — so those paths are read off the balls for the whole block
at once; only a cell with ``d < lower`` runs the DFS (docs/ALGORITHMS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.context import EngineContext
from repro.core.enumerate import PartialMatches
from repro.core.query import BPHQuery
from repro.graph.algorithms import region_around
from repro.graph.graph import Graph
from repro.graph.paths import bounded_paths
from repro.indexing.batch import checked_block
from repro.indexing.twohop import adjacent, bfs_levels, level_of
from repro.obs.metrics import metrics

__all__ = [
    "ResultSubgraph",
    "PathSearchStats",
    "detect_path",
    "filter_by_lower_bound",
    "valid_chunks",
]

#: DFS expansions one DetectPath search may spend before it gives up.
MAX_NODES = 100_000
#: ``V_Δ`` rows verified together when no limit says how many are needed.
RESULT_CHUNK = 32


@dataclass
class ResultSubgraph:
    """A fully validated bounded 1-1 p-hom match, ready to visualize.

    ``paths`` maps each query-edge key to the concrete matching path
    (vertex list, endpoints included) chosen for display; all path lengths
    satisfy the edge's ``[lower, upper]``.
    """

    assignment: dict[int, int]
    paths: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    @property
    def vertices(self) -> set[int]:
        """All data vertices participating (match vertices + path interiors)."""
        out = set(self.assignment.values())
        for path in self.paths.values():
            out.update(path)
        return out

    def path_length(self, u: int, v: int) -> int:
        """Length of the displayed matching path of query edge ``{u, v}``."""
        key = (u, v) if u <= v else (v, u)
        return len(self.paths[key]) - 1

    def region(self, graph: Graph, radius: int = 1):
        """Small visualization region around the match (Section 5.4).

        Returns ``(subgraph, original->region vertex mapping)``.
        """
        return region_around(graph, sorted(self.vertices), radius=radius)

    def all_path_embeddings(
        self,
        query: BPHQuery,
        ctx: EngineContext,
        limit_per_edge: int | None = 100,
    ) -> dict[tuple[int, int], list[list[int]]]:
        """Every bounded simple path realizing each query edge (Section 8).

        ``paths`` stores the one display path DetectPath picked; this
        enumerates *all* path embeddings (capped per edge), which is what
        distinguishes BOOMER from vertex-only distance-join systems.
        """
        out: dict[tuple[int, int], list[list[int]]] = {}
        for edge in query.edges():
            out[edge.key] = bounded_paths(
                ctx.graph,
                self.assignment[edge.u],
                self.assignment[edge.v],
                edge.lower,
                edge.upper,
                limit=limit_per_edge,
                oracle=ctx.oracle,
            )
        return out


@dataclass
class PathSearchStats:
    """What one :func:`detect_path` search did — beyond its yes/no answer.

    ``truncated`` distinguishes "no qualifying path exists" from "the
    ``max_nodes`` safety valve fired before the search could prove
    either" — a ``None`` result with ``truncated=True`` may have silently
    dropped a valid match, which callers (and the
    ``repro_detect_path_truncations_total`` metric) need to know.
    """

    expanded: int = 0
    truncated: bool = False


class _BlockSearch:
    """Algorithm 14 over a block of ``(source, target, lower, upper)`` cells.

    Construction does what the cells share (distance block, balls, the
    paths of all ``lower <= d`` cells); :meth:`path` then answers one cell,
    running the detour DFS only for a cell that is asked for.
    """

    def __init__(self, ctx, sources, targets, lowers, uppers, max_nodes, stats=None) -> None:
        graph, self.max_nodes = ctx.graph, max_nodes
        self.stats = stats if stats is not None else PathSearchStats()
        n = self.n = max(graph.num_vertices, 1)
        self.csr = offsets, neighbors = graph.raw_csr()
        s, t = checked_block(graph.num_vertices, sources, targets)
        pairs, pair = np.unique(t * n + s, return_inverse=True)
        pt, ps = pairs // n, pairs % n
        roots, root = np.unique(pt, return_inverse=True)
        # One counted batch query per distinct target, for its distinct sources.
        dist = np.empty(len(pairs), dtype=np.int64)
        starts = np.searchsorted(pt, roots).tolist() + [len(pairs)]
        for target, lo, hi in zip(roots.tolist(), starts, starts[1:]):
            dist[lo:hi] = ctx.distances_from(target, ps[lo:hi])
        d, lowers, uppers = dist[pair], np.asarray(lowers), np.asarray(uppers)
        ok = (d > 0) & (d <= uppers)  # d == 0: source == target, no simple path
        direct = ok & (lowers <= d)
        # Ball radii.  Direct: the levels below d.  Detour: a vertex w, steps + 1
        # hops out, has dist(w, target) <= d + steps + 1 and is pruned beyond
        # upper - steps - 1, so nothing farther than the smaller is ever told apart.
        reach = np.where(direct, d - 1, np.minimum(uppers - 1, (uppers + d) // 2))
        radii = np.zeros(len(roots), dtype=np.int64)
        np.maximum.at(radii, root[pair[ok]], reach[ok])
        self.keys, self.levels = keys, levels = bfs_levels(graph, roots, radii)
        self.spans = np.searchsorted(keys, np.arange(len(roots) + 1) * n).tolist()

        # Distinct pairs with a direct cell: column k of ``walk`` is the k-th
        # vertex of the pair's path, all pairs stepping together.
        wanted = np.zeros(len(pairs), dtype=bool)
        wanted[pair[direct]] = True
        rows = np.flatnonzero(wanted)
        length, base = dist[rows], root[rows] * n
        walk = np.full((len(rows), int(length.max(initial=0)) + 1), -1, dtype=np.int64)
        walk[:, 0] = ps[rows]
        walk[np.arange(len(rows)), length] = pt[rows]
        for k in range(1, walk.shape[1] - 1):
            active = np.flatnonzero(length > k)
            for owner, vertex in adjacent(offsets, neighbors, active, walk[active, k - 1], closed=False):
                closer = level_of(keys, levels, base[owner] + vertex, -1) == length[owner] - k
                # Repeated indices keep the last value assigned: reversed,
                # that is each owner's first closer neighbour in CSR order.
                walk[owner[closer][::-1], k] = vertex[closer][::-1]
        self.walk = walk.tolist()
        slot = (np.cumsum(wanted) - 1)[pair]
        columns = (s, t, lowers, uppers, d, ok, direct, slot, root[pair])
        self.cells = list(zip(*(column.tolist() for column in columns)))

    def path(self, cell: int) -> list[int] | None:
        """The path Algorithm 14 finds for ``cell``, or None (there is none,
        or ``stats.truncated``); ``stats`` describes this one search."""
        source, target, lower, upper, d, ok, direct, slot, root = self.cells[cell]
        stats, max_nodes = self.stats, self.max_nodes
        stats.expanded, stats.truncated = 0, False
        if not ok:
            return None
        if direct:  # the DFS expands the d + 1 path vertices and nothing else
            stats.expanded, stats.truncated = d + 1, d + 1 > max_nodes
            return None if stats.truncated else self.walk[slot][: d + 1]
        lo, hi = self.spans[root : root + 2]
        ball, level = self.keys[lo:hi] - root * self.n, self.levels[lo:hi]
        offsets, neighbors = self.csr
        path, visited = [source], {source}

        def dfs(current: int, steps: int, d_current: int) -> bool:
            stats.expanded += 1
            if stats.expanded > max_nodes:
                stats.truncated = True
                return False
            if current == target:
                return lower <= steps <= upper
            if steps >= upper:
                return False
            nearby = neighbors[offsets[current] : offsets[current + 1]]
            # Off the ball is too far to matter: pruned like unreachable.
            d_next = level_of(ball, level, nearby, upper)
            keep = steps + 1 + d_next <= upper
            # Algorithm 14 lines 15-19: if finishing via shortest continuation
            # already satisfies lower, try progress first; else detour first
            # (a stable sort: CSR order within either group).
            last = steps + d_current < lower
            for w, d_w in sorted(
                zip(nearby[keep].tolist(), d_next[keep].tolist()),
                key=lambda step: (step[1] == d_current - 1) == last,
            ):
                if w not in visited:
                    visited.add(w)
                    path.append(w)
                    if dfs(w, steps + 1, d_w):
                        return True
                    path.pop()
                    visited.discard(w)
            return False

        return path if dfs(source, 0, d) else None


def detect_path(
    ctx: EngineContext,
    source: int,
    target: int,
    lower: int,
    upper: int,
    max_nodes: int = MAX_NODES,
    stats: PathSearchStats | None = None,
) -> list[int] | None:
    """Find one simple path ``source -> target`` with length in [lower, upper].

    Returns the vertex list (including endpoints) or None when no such path
    exists.  ``max_nodes`` bounds the DFS expansion as a safety valve; the
    distance-guided pruning keeps real searches tiny (Exp 5 measures this).
    Pass a :class:`PathSearchStats` to learn whether a ``None`` meant
    "proved absent" or "gave up at the expansion budget" (``truncated``).
    """
    return _BlockSearch(ctx, [source], [target], [lower], [upper], max_nodes, stats).path(0)


def filter_by_lower_bound(
    matches: PartialMatches | dict[int, int],
    query: BPHQuery,
    ctx: EngineContext,
    max_nodes: int = MAX_NODES,
) -> list[ResultSubgraph | None] | ResultSubgraph | None:
    """Validate (and materialize) matches against all lower bounds.

    Implements Algorithm 13 for a block of ``V_Δ`` rows: per row the
    displayable :class:`ResultSubgraph`, or None when some edge admits no
    qualifying path (the match is spurious under lower bounds and must not
    be shown).  A single assignment dict gets its one verdict back.
    """
    if isinstance(matches, dict):
        block = PartialMatches.from_dicts([matches], order=list(matches))
        return filter_by_lower_bound(block, query, ctx, max_nodes)[0]
    edges = list(query.edges())
    column = {q: i for i, q in enumerate(matches.order)}
    search = _BlockSearch(
        ctx,
        matches.block[:, [column[e.u] for e in edges]].ravel(),
        matches.block[:, [column[e.v] for e in edges]].ravel(),
        np.tile([e.lower for e in edges], len(matches)),
        np.tile([e.upper for e in edges], len(matches)),
        max_nodes,
    )
    out: list[ResultSubgraph | None] = []
    for r, row in enumerate(matches.block.tolist()):
        result = ResultSubgraph(dict(zip(matches.order, row)))
        for cell, edge in enumerate(edges, start=r * len(edges)):
            path = search.path(cell)
            if path is None:
                if search.stats.truncated:
                    # Unproven: DetectPath ran out of budget, so this match
                    # *may* have been dropped wrongly — unlike a legitimate
                    # rejection, which a silent None looks exactly like.
                    metrics.counter(
                        "repro_detect_path_truncations_total",
                        "DetectPath searches that hit max_nodes before "
                        "proving path absence (potentially dropped matches)",
                    ).inc()
                result = None
                break  # later edges are not searched (nor their truncations counted)
            result.paths[edge.key] = path
        out.append(result)
    return out


def valid_chunks(matches: PartialMatches, limit: int | None, verify):
    """Yield the valid results of consecutive chunks of ``matches`` until
    ``limit`` are found; ``verify`` maps a chunk to its verdicts.

    A chunk is the rows still needed — a row is at most one result, so none
    is verified that a row-at-a-time loop would not have reached — or
    :data:`RESULT_CHUNK` rows without a limit.
    """
    start = found = 0
    while start < len(matches) and (limit is None or found < limit):
        size = RESULT_CHUNK if limit is None else limit - found
        chunk = PartialMatches(matches.order, matches.block[start : start + size])
        valid = [subgraph for subgraph in verify(chunk) if subgraph is not None]
        yield valid
        start, found = start + size, found + len(valid)
