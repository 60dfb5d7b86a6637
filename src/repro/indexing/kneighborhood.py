"""SPath-style k-neighborhood signatures (the paper's §5.2 Remark).

SPath [Zhao & Han, VLDB'10] maintains, per data vertex, the labels of all
vertices within distance ``k`` — a *static*, query-independent structure.
The paper's Remark argues this is unsuitable for the blended paradigm: for
larger ``k`` "it may store a large portion of the entire data graph",
whereas the CAP index is built on the fly only for the current query's
candidates.

This module implements the signature index faithfully enough to quantify
that argument (exp4's ``§5.2 footprint`` table sets its footprint against
the CAP index, checked by claims C23 and C24) and to serve as an
alternative candidate-filtering primitive:

* ``signature(v)`` — ``{label: min distance <= k}`` around ``v``;
* ``vertices_with_label_within(label, b)`` — all vertices having some
  ``label``-vertex within ``b <= k`` hops, i.e. the static equivalent of
  one AIVS side before pair verification.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.errors import IndexError_
from repro.graph.algorithms import bfs_distances
from repro.graph.graph import Graph

__all__ = ["KNeighborhoodIndex"]

Label = Hashable


class KNeighborhoodIndex:
    """Per-vertex label signatures up to radius ``k``."""

    def __init__(self, graph: Graph, k: int) -> None:
        if k < 1:
            raise IndexError_("k must be >= 1")
        self.graph = graph
        self.k = k
        #: vertex -> {label: min distance in 1..k}
        self._signatures: list[dict[Label, int]] = []
        self._build()

    def _build(self) -> None:
        """Batched build: one cutoff BFS vector + label-bucket minima.

        Per source, the per-label minimum is a vectorized reduction over
        the label's vertex bucket instead of a Python frontier walk.
        ``d > 0`` excludes both the source itself (distance 0 — SPath
        signatures describe the *neighborhood*) and vertices unreachable
        or beyond the cutoff (``-1``) — the exact semantics of the old
        per-vertex BFS.
        """
        graph = self.graph
        k = self.k
        buckets = list(graph._label_index.items())
        for source in range(graph.num_vertices):
            dist = bfs_distances(graph, source, cutoff=k)
            signature: dict[Label, int] = {}
            for label, verts in buckets:
                d = dist[verts]
                d = d[d > 0]
                if d.size:
                    signature[label] = int(d.min())
            self._signatures.append(signature)

    # ------------------------------------------------------------------
    def signature(self, v: int) -> dict[Label, int]:
        """``{label: min distance}`` of vertices within k hops of ``v``."""
        self.graph._check_vertex(v)
        return dict(self._signatures[v])

    def has_label_within(self, v: int, label: Label, bound: int) -> bool:
        """Is some ``label``-vertex within ``bound`` hops of ``v``?

        ``bound`` must not exceed ``k`` (the index holds no information
        beyond its radius).
        """
        if bound > self.k:
            raise IndexError_(
                f"bound {bound} exceeds the index radius k={self.k}"
            )
        d = self._signatures[v].get(label)
        return d is not None and d <= bound

    def vertices_with_label_within(self, label: Label, bound: int) -> list[int]:
        """All vertices having a ``label``-vertex within ``bound`` hops."""
        return [
            v
            for v in range(self.graph.num_vertices)
            if self.has_label_within(v, label, bound)
        ]

    # ------------------------------------------------------------------
    def total_entries(self) -> int:
        """Stored (vertex, label, distance) triples — the memory figure."""
        return sum(len(sig) for sig in self._signatures)

    def average_signature_size(self) -> float:
        """Mean labels per signature."""
        n = self.graph.num_vertices
        return self.total_entries() / n if n else 0.0

    def __repr__(self) -> str:
        return (
            f"KNeighborhoodIndex(k={self.k}, |V|={self.graph.num_vertices}, "
            f"entries={self.total_entries()})"
        )
