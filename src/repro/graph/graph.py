"""Immutable labeled undirected simple graph in CSR form.

Why CSR rather than dict-of-sets: BOOMER's hot loops (neighbor scans during
PopulateVertexSet, pruned BFS during PML construction) iterate adjacency
lists millions of times.  A pair of numpy arrays (``offsets``/``neighbors``)
keeps those scans allocation-free and cache-friendly while still being pure
Python at the algorithm level, and lets the block kernels gather the rows
of a whole candidate level with flat index arithmetic
(:func:`repro.indexing.twohop.hop_pairs`).  Adjacency is sorted per vertex,
which gives O(log deg(v)) membership tests via binary search — the exact
primitive the in-scan cost model of Lemma 5.3 charges ``log(deg(v_i))`` for.

Instances are constructed through :class:`repro.graph.builder.GraphBuilder`
or the loaders/generators; direct construction expects already-validated
arrays and is considered an internal API.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Sequence

import numpy as np

from repro.errors import VertexNotFoundError

__all__ = ["Graph"]

Label = Hashable


class Graph:
    """Undirected, simple, vertex-labeled graph ``G = (V, E, L)``.

    Vertices are dense integers ``0..n-1``.  Labels are arbitrary hashable
    objects (the paper uses character codes for WordNet and synthetic
    integers for DBLP/Flickr).

    The class is immutable through its public API: all construction-time
    mutation happens in :class:`~repro.graph.builder.GraphBuilder` before
    :meth:`~repro.graph.builder.GraphBuilder.build`.  Post-build edge
    updates exist, but only through :mod:`repro.updates`, which swaps the
    CSR arrays in place and bumps :attr:`epoch` — the monotonic version
    counter every derived structure (PML labels, distance caches, stored
    bases) validates against before serving an answer.  boomerlint rule
    R8 flags any other module touching the CSR internals.
    """

    __slots__ = (
        "_offsets",
        "_neighbors",
        "_labels",
        "_label_index",
        "_num_edges",
        "_epoch",
        "name",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        neighbors: np.ndarray,
        labels: Sequence[Label],
        name: str = "graph",
        epoch: int = 0,
    ) -> None:
        self._offsets = offsets
        self._neighbors = neighbors
        self._labels = list(labels)
        self._num_edges = int(len(neighbors) // 2)
        self._epoch = int(epoch)
        self.name = name

        # Inverted index label -> sorted numpy array of vertex ids.  This is
        # what makes retrieving the candidate set V_q of a freshly drawn
        # query vertex (Algorithm 2, line 3) an O(1) lookup.
        buckets: dict[Label, list[int]] = {}
        for v, lab in enumerate(self._labels):
            buckets.setdefault(lab, []).append(v)
        self._label_index: dict[Label, np.ndarray] = {
            lab: np.asarray(vs, dtype=np.int32) for lab, vs in buckets.items()
        }

    # -- versioning ---------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic mutation counter; bumped by :mod:`repro.updates`.

        Every structure derived from the CSR (PML labels, memoized BFS
        vectors, stored bases) records the epoch it was computed at and
        checks it before answering — a mismatch means the graph moved
        underneath it.  ``getattr`` default covers graphs unpickled from
        disk caches written before the counter existed (epoch 0 by
        definition: nothing can have mutated them).
        """
        return getattr(self, "_epoch", 0)

    # -- size ---------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    def __len__(self) -> int:
        return self.num_vertices

    # -- vertex-level accessors ----------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise VertexNotFoundError(v)

    def degree(self, v: int) -> int:
        """Degree ``deg(v)``."""
        self._check_vertex(v)
        return int(self._offsets[v + 1] - self._offsets[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` as a read-only numpy view."""
        self._check_vertex(v)
        return self._neighbors[self._offsets[v] : self._offsets[v + 1]]

    def label(self, v: int) -> Label:
        """Label ``L(v)``."""
        self._check_vertex(v)
        return self._labels[v]

    def labels(self) -> list[Label]:
        """Per-vertex label list (index = vertex id); a defensive copy."""
        return list(self._labels)

    def distinct_labels(self) -> set[Label]:
        """The set of labels occurring in the graph."""
        return set(self._label_index)

    def vertices_with_label(self, label: Label) -> np.ndarray:
        """Sorted vertex ids carrying ``label`` (empty array if none do).

        This is the candidate set ``V_q`` for a query vertex ``q`` with
        ``L(q) == label``.  The returned array is shared — do not mutate.
        """
        hits = self._label_index.get(label)
        if hits is None:
            return np.empty(0, dtype=np.int32)
        return hits

    def label_frequency(self, label: Label) -> float:
        """``p_L`` — the probability that a uniform random vertex has ``label``.

        Used by the out-scan cost model of Lemma 5.3.
        """
        if self.num_vertices == 0:
            return 0.0
        return len(self.vertices_with_label(label)) / self.num_vertices

    # -- edge-level accessors --------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """True iff ``(u, v)`` is an edge.  O(log deg(u)) binary search."""
        self._check_vertex(u)
        self._check_vertex(v)
        nbrs = self._neighbors[self._offsets[u] : self._offsets[u + 1]]
        pos = int(np.searchsorted(nbrs, v))
        return pos < len(nbrs) and int(nbrs[pos]) == v

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        offsets, neighbors = self._offsets, self._neighbors
        for u in range(self.num_vertices):
            for idx in range(int(offsets[u]), int(offsets[u + 1])):
                v = int(neighbors[idx])
                if u < v:
                    yield (u, v)

    def iter_vertices(self) -> Iterator[int]:
        """Yield vertex ids ``0..n-1``."""
        return iter(range(self.num_vertices))

    # -- derived structures -----------------------------------------------------
    def degree_array(self) -> np.ndarray:
        """All degrees as an ``int64`` array (index = vertex id)."""
        return np.diff(self._offsets)

    def raw_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The underlying ``(offsets, neighbors)`` arrays (shared, read-only).

        Exposed for the index builders (PML's pruned BFS) which need the
        tightest possible inner loop.
        """
        return self._offsets, self._neighbors

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Vertex ids are re-densified to ``0..k-1`` following the order of
        ``vertices`` (duplicates are collapsed, order of first occurrence
        kept).  Used by the result-visualization region extraction.
        """
        seen: dict[int, int] = {}
        for v in vertices:
            self._check_vertex(v)
            if v not in seen:
                seen[v] = len(seen)
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(name=f"{self.name}[induced]")
        for v in seen:
            builder.add_vertex(self._labels[v])
        members = set(seen)
        for v, new_v in seen.items():
            for w in self.neighbors(v):
                w = int(w)
                if w in members and v < w:
                    builder.add_edge(new_v, seen[w])
        return builder.build()

    # -- dunder -------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, |V|={self.num_vertices:,}, "
            f"|E|={self.num_edges:,}, labels={len(self._label_index)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._labels == other._labels
            and np.array_equal(self._offsets, other._offsets)
            and np.array_equal(self._neighbors, other._neighbors)
        )

    def __hash__(self) -> int:  # structural identity is expensive; use id
        return id(self)
