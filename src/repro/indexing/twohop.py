"""Two-hop neighborhood utilities.

Section 5.2 of the paper: "we pre-compute the 2-hop neighbourhood of each
vertex in G.  Note that we only record the *count* and not the exact vertex
set" — the counts feed the out-scan/in-scan cost comparison of the two-hop
search (Lemma 5.4), while the actual 2-hop *sets* are enumerated on the fly
when a scan runs: :func:`hop_pairs` does it for a whole candidate level at
once over the CSR arrays; :func:`two_hop_neighbors` is its per-vertex
reference and what the counts are computed from.  :func:`bfs_levels` runs
the same expansion to any radius (the Results page's level arrays).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = [
    "two_hop_counts", "two_hop_neighbors", "adjacent", "hop_pairs", "bfs_levels",
    "level_of", "patch_two_hop_counts",
]

#: Adjacency entries :func:`hop_pairs` gathers per chunk (plus one row).
_HOP_BLOCK = 1 << 16


def two_hop_counts(graph: Graph) -> np.ndarray:
    """``TwoHop(v)`` for every vertex: |{u != v : dist(v, u) <= 2}|.

    One pass of neighbor-of-neighbor set unions per vertex; computed once
    per data graph by the preprocessor and cached with the dataset.
    """
    n = graph.num_vertices
    return np.fromiter(
        (len(two_hop_neighbors(graph, v)) for v in range(n)), dtype=np.int64, count=n
    )


def two_hop_neighbors(graph: Graph, v: int) -> set[int]:
    """The exact set of vertices within 2 hops of ``v`` (excluding ``v``).

    Enumerated lazily (not stored) — storing the sets "may store a large
    portion of the entire data graph" (paper Remark, Sec. 5.2).
    """
    graph._check_vertex(v)
    offsets, neighbors = graph.raw_csr()
    reach: set[int] = set()
    for i in range(int(offsets[v]), int(offsets[v + 1])):
        u = int(neighbors[i])
        reach.add(u)
        for j in range(int(offsets[u]), int(offsets[u + 1])):
            reach.add(int(neighbors[j]))
    reach.discard(v)
    return reach


def adjacent(offsets, neighbors, owners, rows, closed: bool):
    """Yield ``(owner, vertex)`` array chunks: ``owners[i]`` beside every
    neighbour of ``rows[i]`` (and beside ``rows[i]`` itself when ``closed``).

    Rows whose flat start falls in the same ``_HOP_BLOCK`` window share a
    chunk, so a chunk gathers at most ``_HOP_BLOCK`` entries plus one row.
    """
    if not len(rows):
        return
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    base = np.cumsum(counts) - counts
    window = base // _HOP_BLOCK
    cuts = [0] + (np.flatnonzero(window[1:] != window[:-1]) + 1).tolist()
    for lo, hi in zip(cuts, cuts[1:] + [len(rows)]):
        count = counts[lo:hi]
        flat = np.repeat(starts[lo:hi] - base[lo:hi], count)
        flat += np.arange(base[lo], base[hi - 1] + count[-1])
        owner, vertex = np.repeat(owners[lo:hi], count), neighbors[flat]
        if closed:
            owner = np.concatenate((owners[lo:hi], owner))
            vertex = np.concatenate((rows[lo:hi], vertex))
        yield owner, vertex


def _distinct(keys: np.ndarray) -> np.ndarray:
    """``keys`` ascending without repeats; faster than ``np.unique``."""
    keys = np.sort(keys)
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def hop_pairs(graph: Graph, scanned, member, hops: int) -> np.ndarray:
    """Every ``(s, t)`` with ``s`` in ``scanned``, ``t`` in ``member``,
    ``t != s`` and ``dist(s, t) <= hops`` (1 or 2), as an int32 ``(P, 2)``
    block sorted by ``(s, t)``.

    The bounded-hop search of a whole candidate level at once; the two
    sides are collections of vertices and may overlap.  The adjacency
    rows of ``scanned`` (for ``hops == 2`` also the rows of those
    neighbours) are gathered with flat index arithmetic on the CSR arrays,
    endpoints outside ``member`` are dropped, and what is left is
    de-duplicated, since a 2-hop target is reached along several paths.
    Chunks arrive in source order, so only the last source of a chunk can
    continue into the next one: its pairs are carried over and everything
    before them is final.  Scratch beyond the two sides is bounded by
    ``_HOP_BLOCK`` plus one adjacency row per level, never by the size of
    the balls.
    """
    offsets, neighbors = graph.raw_csr()
    n = max(graph.num_vertices, 1)
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(member, dtype=np.int64)] = True
    scanned = np.sort(np.asarray(scanned, dtype=np.int64))
    final, carry = [], np.empty(0, dtype=np.int64)
    for chunk in adjacent(offsets, neighbors, scanned, scanned, closed=False):
        pieces = [chunk] if hops == 1 else adjacent(offsets, neighbors, *chunk, closed=True)
        for s, t in pieces:
            keep = mask[t] & (t != s)
            keys = _distinct(np.concatenate((carry, s[keep] * n + t[keep])))
            cut = np.searchsorted(keys, keys[-1] // n * n) if len(keys) else 0
            final.append(keys[:cut])
            carry = keys[cut:]
    keys = np.concatenate(final + [carry])
    return np.stack((keys // n, keys % n), axis=1).astype(np.int32)


def bfs_levels(graph: Graph, roots, radii) -> tuple[np.ndarray, np.ndarray]:
    """Bounded BFS balls around distinct ``roots``: the sorted int64 keys
    ``i * n + v`` of every ``v`` within ``radii[i]`` hops of ``roots[i]``,
    and the hop count of each.

    All balls grow together, one :func:`adjacent` expansion of the joint
    frontier per level; a neighbour of level ``k`` is new unless it lies
    on level ``k - 1`` or ``k``, so only those two are looked up.  Scratch
    is the balls themselves plus ``_HOP_BLOCK`` and one adjacency row.
    """
    offsets, neighbors = graph.raw_csr()
    n = max(graph.num_vertices, 1)
    radii = np.asarray(radii, dtype=np.int64)
    frontier = np.arange(len(radii)) * n + np.asarray(roots, dtype=np.int64)
    keys, levels, recent = [frontier], [np.zeros(len(frontier), dtype=np.int64)], frontier
    while True:
        rows = frontier[radii[frontier // n] > len(keys) - 1]
        found = [
            _distinct(owner * n + vertex)
            for owner, vertex in adjacent(offsets, neighbors, rows // n, rows % n, closed=False)
        ]
        if not found:
            break
        found = _distinct(np.concatenate(found)) if len(found) > 1 else found[0]
        at = np.searchsorted(recent, found)
        at[at == len(recent)] = 0
        frontier = found[recent[at] != found]
        recent = np.sort(np.concatenate((keys[-1], frontier)))
        levels.append(np.full(len(frontier), len(keys), dtype=np.int64))
        keys.append(frontier)
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    return keys[order], np.concatenate(levels)[order]


def level_of(keys: np.ndarray, levels: np.ndarray, probes, missing: int) -> np.ndarray:
    """The level of each probe in a :func:`bfs_levels` ball, ``missing`` off it."""
    at = np.searchsorted(keys, probes)
    at[at == len(keys)] = 0
    return np.where(keys[at] == probes, levels[at], missing)


def patch_two_hop_counts(
    graph: Graph, counts: np.ndarray, affected: set[int]
) -> int:
    """Recompute ``counts`` in place for the vertices an edge update touched.

    Inserting or deleting edge ``{u, v}`` can only change ``TwoHop(w)``
    for ``w ∈ {u, v} ∪ N(u) ∪ N(v)`` (with the neighborhoods read on the
    side of the update where the edge exists — after an insert, before a
    delete): any other vertex's 2-hop set never walked through the edge.
    :mod:`repro.updates` computes that affected set and passes it here;
    mutating the shared array in place keeps every context holding it
    current.  Returns the number of vertices recomputed.
    """
    for w in affected:
        counts[w] = len(two_hop_neighbors(graph, int(w)))
    return len(affected)
