"""The container models the array CAP, the block DFS, the block
lower-bound verify, the oracle kernels and the PML build's level kernel
replaced.

Kept here, and only here, as the references the conformance tests drive
beside the real thing: a dict-of-set CAP with the scalar ``add_pair`` /
``remove_pair`` and Algorithm 7's worklist prune, the recursive
depth-first enumeration over it, Algorithms 13/14 as the per-match,
per-DFS-node oracle loop they are stated as, the oracle kernels as
the per-pair loop of scalar calls (:class:`CountingOracle`), and the PML
build as every rank through the list kernel (:func:`list_kernel_build`).
Plus two helpers that turn the array CAP's state into plain Python for
``==``.

The brute-force references and inputs the tests use and nothing in the
package calls live here too: the generic random-graph generators
(Erdős–Rényi, Barabási–Albert, Watts–Strogatz), the bounded simple-path
DFS that is the edge-bound semantics of Definition 3.1, the k-hop
neighbourhood by BFS, a random landmark order, and the paper's query
population.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Sequence

import numpy as np

from repro.core.cap import CAPIndex
from repro.core.context import EngineContext
from repro.core.lowerbound import PathSearchStats, ResultSubgraph
from repro.core.query import BPHQuery, canonical_edge
from repro.errors import GraphBuildError
from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.indexing.order import degree_order
from repro.indexing.pml import PrunedLandmarkLabeling, _bfs_views, _pruned_bfs
from repro.obs.metrics import metrics
from repro.utils.rng import seeded_rng
from repro.workload.generator import QueryInstance, instantiate
from repro.workload.templates import template_names


def list_kernel_build(graph, order=None) -> PrunedLandmarkLabeling:
    """:meth:`PrunedLandmarkLabeling.build` with every rank, one after
    another, through the list kernel ``_pruned_bfs``."""
    if order is None:
        order = degree_order(graph)
    n = graph.num_vertices
    label_ranks: list[list[int]] = [[] for _ in range(n)]
    label_dists: list[list[int]] = [[] for _ in range(n)]
    views = _bfs_views(graph, label_ranks, label_dists)
    for rank, root in enumerate(np.asarray(order).tolist()):
        for w, d in _pruned_bfs(views, rank, root):
            label_ranks[w].append(rank)
            label_dists[w].append(d)
    return PrunedLandmarkLabeling(graph, label_ranks, label_dists, order)


def scalar_distances(oracle, source, targets) -> np.ndarray:
    """``distances_from`` as one ``oracle.distance`` call per target."""
    source = int(source)
    t = np.asarray(targets, dtype=np.int64).tolist()
    return np.array([oracle.distance(source, v) for v in t], dtype=np.int32)


def scalar_within_many(oracle, sources, targets, upper, skip_equal=False) -> np.ndarray:
    """``within_many`` as one ``oracle.within`` call per pair, in the
    kernel's block and row order (the diagonal never asked under
    ``skip_equal``)."""
    t = np.asarray(targets, dtype=np.int64).tolist()
    pairs = [
        (u, v)
        for u in np.asarray(sources, dtype=np.int64).tolist()
        for v in t
        if not (skip_equal and u == v) and oracle.within(u, v, upper)
    ]
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


class CountingOracle:
    """The scalar reference arm: a delegating oracle whose kernels are the
    per-pair loops above, counting every logical query it asks ``inner``.

    The counter is lock-guarded so one instance can wrap the shared oracle
    of many concurrent sessions without losing counts.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.query_count = 0

    def distance(self, u: int, v: int) -> int:
        with self._lock:
            self.query_count += 1
        return self._inner.distance(u, v)

    def within(self, u: int, v: int, upper: int) -> bool:
        with self._lock:
            self.query_count += 1
        return self._inner.within(u, v, upper)

    def distances_from(self, source, targets) -> np.ndarray:
        return scalar_distances(self, source, targets)

    def within_many(self, sources, targets, upper, skip_equal=False) -> np.ndarray:
        return scalar_within_many(self, sources, targets, upper, skip_equal)

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self.query_count = 0


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


def erdos_renyi(
    n: int,
    num_edges: int,
    seed: int = 0,
    labels: Sequence[Hashable] | None = None,
) -> Graph:
    """G(n, m) random graph with exactly ``num_edges`` distinct edges.

    ``labels`` (length ``n``) assigns vertex labels; defaults to ``"_"``.
    """
    if n < 0 or num_edges < 0:
        raise GraphBuildError("n and num_edges must be non-negative")
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise GraphBuildError(
            f"cannot place {num_edges} edges in a simple graph on {n} vertices"
        )
    rng = seeded_rng(seed)
    builder = GraphBuilder(name=f"er-{n}-{num_edges}")
    builder.add_vertices(labels if labels is not None else ["_"] * n)
    placed = 0
    while placed < num_edges:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if builder.add_edge_if_absent(u, v):
            placed += 1
    return builder.build()


def barabasi_albert(
    n: int,
    m_attach: int,
    seed: int = 0,
    labels: Sequence[Hashable] | None = None,
    name: str | None = None,
) -> Graph:
    """Barabási–Albert preferential attachment graph.

    Each new vertex attaches to ``m_attach`` distinct existing vertices with
    probability proportional to degree (implemented via the standard
    repeated-endpoint trick: sampling uniformly from the list of all edge
    endpoints is equivalent to degree-proportional sampling).
    """
    if m_attach < 1:
        raise GraphBuildError("m_attach must be >= 1")
    if n <= m_attach:
        raise GraphBuildError("n must exceed m_attach")
    rng = seeded_rng(seed)
    builder = GraphBuilder(name=name or f"ba-{n}-{m_attach}")
    builder.add_vertices(labels if labels is not None else ["_"] * n)

    # Seed clique-ish core: a path over the first m_attach + 1 vertices.
    endpoints: list[int] = []
    for v in range(1, m_attach + 1):
        builder.add_edge(v - 1, v)
        endpoints.extend((v - 1, v))

    for v in range(m_attach + 1, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for t in targets:
            builder.add_edge(v, t)
            endpoints.extend((v, t))
    return builder.build()


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    seed: int = 0,
    labels: Sequence[Hashable] | None = None,
) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice + rewiring).

    ``k`` must be even; each vertex starts connected to its ``k`` nearest
    ring neighbors and each lattice edge is rewired with probability
    ``beta``.
    """
    if k % 2 != 0 or k < 2:
        raise GraphBuildError("k must be even and >= 2")
    if not 0.0 <= beta <= 1.0:
        raise GraphBuildError("beta must be in [0, 1]")
    if n <= k:
        raise GraphBuildError("n must exceed k")
    rng = seeded_rng(seed)
    builder = GraphBuilder(name=f"ws-{n}-{k}-{beta}")
    builder.add_vertices(labels if labels is not None else ["_"] * n)
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            if rng.random() < beta:
                # Rewire to a uniform random non-neighbor; skip on failure
                # after a few tries to avoid pathological loops on dense k.
                for _ in range(8):
                    w = rng.randrange(n)
                    if builder.add_edge_if_absent(u, w):
                        break
                else:
                    builder.add_edge_if_absent(u, v)
            else:
                builder.add_edge_if_absent(u, v)
    return builder.build()


def has_path_within(graph: Graph, u: int, v: int, lower: int, upper: int) -> bool:
    """True iff a *simple* path of length in ``[lower, upper]`` joins u and v.

    This is the semantic ground truth of the edge-bound constraint
    (Definition 3.1), implemented as bounded DFS.  Exponential in the worst
    case — it exists for tests and small visual regions, not for the query
    engine (which uses the CAP index + DetectPath).
    """
    if lower > upper:
        return False
    if u == v:
        return False  # matching paths are non-empty (Definition in Sec. 2)
    offsets, neighbors = graph.raw_csr()
    on_path = {u}

    def dfs(x: int, steps: int) -> bool:
        if steps > upper:
            return False
        if x == v:
            return steps >= lower
        if steps == upper:
            return False
        for idx in range(int(offsets[x]), int(offsets[x + 1])):
            w = int(neighbors[idx])
            if w in on_path:
                continue
            on_path.add(w)
            if dfs(w, steps + 1):
                on_path.discard(w)
                return True
            on_path.discard(w)
        return False

    return dfs(u, 0)


def k_hop_neighborhood(graph: Graph, source: int, k: int) -> set[int]:
    """All vertices within ``k`` hops of ``source`` (excluding ``source``)."""
    if k <= 0:
        return set()
    result: set[int] = set()
    dist = bfs_distances(graph, source, cutoff=k)
    for v in np.nonzero((dist > 0))[0]:
        result.add(int(v))
    return result


def random_order(graph: Graph, seed: int = 0) -> np.ndarray:
    """A uniformly random landmark order (ablation baseline)."""
    rng = seeded_rng(seed)
    order = list(range(graph.num_vertices))
    rng.shuffle(order)
    return np.asarray(order, dtype=np.int32)


def paper_query_set(
    graph: Graph,
    dataset: str = "",
    seeds_per_template: int = 2,
) -> list[QueryInstance]:
    """The evaluation's query population for one dataset.

    The paper generates 103 unique queries over 3 datasets by varying
    vertex labels and bounds across the 6 templates; here every template
    contributes ``seeds_per_template`` label instantiations with default
    bounds (experiment modules apply their own bound overrides on top,
    which is how the paper derived its variations too).
    """
    instances: list[QueryInstance] = []
    for name in template_names():
        for seed in range(seeds_per_template):
            instances.append(
                instantiate(name, graph, seed=seed * 37 + 11, dataset=dataset)
            )
    return instances
