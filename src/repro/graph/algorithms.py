"""Classic graph algorithms over :class:`repro.graph.Graph`.

These are the unindexed primitives: breadth-first distances (the ground
truth the PML index is tested against, and the BFS distance oracle),
connected components (used when extracting the largest component of
generated datasets) and the small regions results are drawn on.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "bfs_distances",
    "distance",
    "connected_components",
    "largest_component",
    "region_around",
]

UNREACHABLE = -1


def bfs_distances(graph: Graph, source: int, cutoff: int | None = None) -> np.ndarray:
    """Single-source BFS distances.

    Returns an ``int32`` array of length ``|V|`` where unreachable vertices
    (and vertices beyond ``cutoff`` hops, when given) hold ``-1``.
    """
    graph._check_vertex(source)
    offsets, neighbors = graph.raw_csr()
    dist = np.full(graph.num_vertices, UNREACHABLE, dtype=np.int32)
    dist[source] = 0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = int(dist[u])
        if cutoff is not None and du >= cutoff:
            continue
        for idx in range(int(offsets[u]), int(offsets[u + 1])):
            w = int(neighbors[idx])
            if dist[w] == UNREACHABLE:
                dist[w] = du + 1
                frontier.append(w)
    return dist


def distance(graph: Graph, u: int, v: int, cutoff: int | None = None) -> int:
    """Exact shortest-path distance ``dist(u, v)``; ``-1`` if unreachable.

    A bidirectional-ish early-exit BFS is unnecessary at our scales; a plain
    BFS from ``u`` with an early exit at ``v`` keeps this simple and is used
    only where no PML index is available.
    """
    graph._check_vertex(u)
    graph._check_vertex(v)
    if u == v:
        return 0
    offsets, neighbors = graph.raw_csr()
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        x = frontier.popleft()
        dx = dist[x]
        if cutoff is not None and dx >= cutoff:
            continue
        for idx in range(int(offsets[x]), int(offsets[x + 1])):
            w = int(neighbors[idx])
            if w == v:
                return dx + 1
            if w not in dist:
                dist[w] = dx + 1
                frontier.append(w)
    return UNREACHABLE


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components as vertex-id lists, largest first."""
    offsets, neighbors = graph.raw_csr()
    seen = np.zeros(graph.num_vertices, dtype=bool)
    components: list[list[int]] = []
    for start in range(graph.num_vertices):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        frontier = deque([start])
        while frontier:
            u = frontier.popleft()
            for idx in range(int(offsets[u]), int(offsets[u + 1])):
                w = int(neighbors[idx])
                if not seen[w]:
                    seen[w] = True
                    component.append(w)
                    frontier.append(w)
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def largest_component(graph: Graph) -> Graph:
    """The induced subgraph on the largest connected component.

    Dataset generators call this so that distance queries are meaningful
    (the paper's real datasets are dominated by one giant component).
    """
    components = connected_components(graph)
    if not components:
        return graph
    return graph.induced_subgraph(sorted(components[0]))


def region_around(
    graph: Graph, vertices: Iterable[int], radius: int = 1
) -> tuple[Graph, dict[int, int]]:
    """Small subgraph containing ``vertices`` and their ``radius``-hop halo.

    BOOMER visualizes each result match on a *small region* of the network
    rather than on the full hairball (Section 5.4).  Returns the induced
    subgraph and a mapping from original vertex id -> region vertex id.
    """
    core = list(dict.fromkeys(int(v) for v in vertices))
    halo: set[int] = set(core)
    frontier = list(core)
    for _ in range(max(radius, 0)):
        next_frontier: list[int] = []
        for v in frontier:
            for w in graph.neighbors(v):
                w = int(w)
                if w not in halo:
                    halo.add(w)
                    next_frontier.append(w)
        frontier = next_frontier
    ordered = core + sorted(halo - set(core))
    region = graph.induced_subgraph(ordered)
    mapping = {orig: new for new, orig in enumerate(ordered)}
    return region, mapping
