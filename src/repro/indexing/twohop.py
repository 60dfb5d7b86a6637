"""Two-hop neighborhood utilities.

Section 5.2 of the paper: "we pre-compute the 2-hop neighbourhood of each
vertex in G.  Note that we only record the *count* and not the exact vertex
set" — the counts feed the out-scan/in-scan cost comparison of the two-hop
search (Lemma 5.4), while the actual 2-hop *sets* are enumerated on the fly
when an out-scan is chosen.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = ["two_hop_counts", "two_hop_neighbors", "patch_two_hop_counts"]


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
