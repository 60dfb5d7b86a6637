"""Pruned Landmark Labeling — exact shortest-path distance index.

Reimplementation (from the paper's description) of Akiba, Iwata, Yoshida,
"Fast exact shortest-path distance queries on large networks by pruned
landmark labeling", SIGMOD 2013 — the index the BOOMER preprocessor builds
once per data graph (Section 4) and that the large-upper search (Lemma 5.5),
the expensive-edge deferment machinery, and the just-in-time lower-bound
checker all query.

How it works
------------
Vertices are ranked (by decreasing degree).  For each vertex ``v_k`` in rank
order, a BFS is run from ``v_k``; when the BFS reaches ``w`` at distance
``d``, the current (partial) index is first consulted: if some
earlier-ranked landmark already certifies ``dist(v_k, w) <= d``, the visit
is *pruned* (no label stored, no expansion).  Otherwise the pair
``(rank_k, d)`` is appended to ``w``'s label and the BFS continues through
``w``.  The resulting per-vertex labels form a distance-aware 2-hop cover:

    dist(u, v) = min over common landmarks r of  d_u(r) + d_v(r)

and a query is a merge join over the two (rank-sorted) label lists —
exactly the ``O(|C(u)| + |C(v)|)`` cost that Lemma 5.5 charges.

Batch queries
-------------
At construction the per-vertex label lists are also finalized into CSR
numpy arrays (``offsets`` + concatenated rank/distance columns).  From
them :meth:`PrunedLandmarkLabeling.distances_from` answers one source
against many targets in one interpreter-level call (the source's label
spread into a dense rank-indexed array, every target's label slice
gathered in one fancy-index, a segmented ``np.minimum.reduceat``), and
:meth:`PrunedLandmarkLabeling.within_many` a whole (sources x targets)
block (packed target bitsets per landmark and distance, one OR-reduce
per source).  The scalar lists are kept beside the arrays: single-pair
queries stay on the tight Python merge, which beats numpy on the
typically short labels.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain

import numpy as np

from repro.errors import IndexNotBuiltError, StaleIndexError
from repro.graph.graph import Graph
from repro.indexing.batch import checked_block, pair_block
from repro.indexing.order import degree_order

__all__ = ["PrunedLandmarkLabeling"]

UNREACHABLE = -1
_INF = float("inf")

#: :meth:`PrunedLandmarkLabeling.within_many` blocks: targets per bitset
#: table (64-byte rows) and sources per gather (~13k rows, under 1 MB).
_TARGET_BLOCK = 512
_SOURCE_BLOCK = 256


class PrunedLandmarkLabeling:
    """Distance-aware 2-hop cover index over a :class:`Graph`.

    Usage::

        pml = PrunedLandmarkLabeling.build(graph)
        d = pml.distance(u, v)          # exact; -1 if disconnected
        pml.within(u, v, upper=3)       # d <= 3 ?

    Labels are stored per vertex as two parallel Python lists (landmark
    ranks ascending, distances), which keeps the merge join tight without
    numpy overhead on the typically short lists; a CSR copy of the same
    labels backs the vectorized batch queries (module docstring).
    """

    #: Full distance vectors are pure functions of the frozen index — safe
    #: to keep in :data:`repro.indexing.batch.shared_distance_cache` (its
    #: keys carry :attr:`epoch`: a superseded index's vectors are unreachable).
    cacheable_vectors = True

    #: Whether :meth:`apply_edge_insert` can patch this index in place.
    #: Label lists exist only on an index that can be patched: this one
    #: holds them (its build and insert form) beside the arrays; the
    #: storage layer's :class:`~repro.storage.basis.StoredPML` holds the
    #: read-only arrays and nothing else, says False, and must be rebuilt.
    supports_incremental = True

    def __init__(
        self,
        graph: Graph,
        label_ranks: list[list[int]],
        label_dists: list[list[int]],
        order: np.ndarray,
    ) -> None:
        self._graph = graph
        self._label_ranks = label_ranks
        self._label_dists = label_dists
        self._order = order
        self._epoch = graph.epoch
        self.query_count = 0  # instrumentation for t_avg / experiments
        self._finalize_labels()

    def _finalize_labels(self) -> None:
        """Freeze the label lists into CSR arrays for the batch kernels.

        Runs when the lists are set (``__init__``) and again each time
        they change (:meth:`apply_edge_insert`), nowhere else; an index
        assembled over arrays that arrived frozen (:mod:`repro.storage.basis`)
        never calls it.
        """
        n = len(self._label_ranks)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, self._label_ranks), dtype=np.int64, count=n),
            out=offsets[1:],
        )
        self._label_offsets = offsets
        total = int(offsets[-1])
        self._label_ranks_arr = np.fromiter(
            chain.from_iterable(self._label_ranks), dtype=np.int32, count=total
        )
        self._label_dists_arr = np.fromiter(
            chain.from_iterable(self._label_dists), dtype=np.int32, count=total
        )
        # Mean label size, for the dense-vs-merge crossover heuristic.
        self._avg_label = (total / n) if n else 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, graph: Graph, order: np.ndarray | None = None
    ) -> "PrunedLandmarkLabeling":
        """Build the index; ``order`` defaults to decreasing degree."""
        if order is None:
            order = degree_order(graph)
        n = graph.num_vertices
        offsets, neighbors = graph.raw_csr()

        label_ranks: list[list[int]] = [[] for _ in range(n)]
        label_dists: list[list[int]] = [[] for _ in range(n)]

        # Temporary dense arrays, reused across landmarks.
        tmp = np.full(n, _INF, dtype=np.float64)  # root's label spread by rank
        bfs_dist = np.full(n, UNREACHABLE, dtype=np.int32)
        touched: list[int] = []

        for rank in range(n):
            root = int(order[rank])
            # Spread the *root's* current label into tmp (indexed by rank of
            # the landmark) so pruning queries are O(|label(w)|).
            r_ranks = label_ranks[root]
            r_dists = label_dists[root]
            for lr, ld in zip(r_ranks, r_dists):
                tmp[lr] = ld
            tmp[rank] = 0.0

            bfs_dist[root] = 0
            touched.append(root)
            frontier = deque([root])
            while frontier:
                u = frontier.popleft()
                du = int(bfs_dist[u])

                # Pruning test: query(root, u) via current labels.
                w_ranks = label_ranks[u]
                w_dists = label_dists[u]
                pruned = False
                for lr, ld in zip(w_ranks, w_dists):
                    if tmp[lr] + ld <= du:
                        pruned = True
                        break
                if pruned:
                    continue

                w_ranks.append(rank)
                w_dists.append(du)

                for idx in range(int(offsets[u]), int(offsets[u + 1])):
                    w = int(neighbors[idx])
                    if bfs_dist[w] == UNREACHABLE:
                        bfs_dist[w] = du + 1
                        touched.append(w)
                        frontier.append(w)

            # Reset temporaries touched this round.
            for lr in r_ranks:
                tmp[lr] = _INF
            tmp[rank] = _INF
            for v in touched:
                bfs_dist[v] = UNREACHABLE
            touched.clear()

        return cls(graph, label_ranks, label_dists, order)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Graph epoch the labels currently describe."""
        return self._epoch

    def _check_fresh(self) -> None:
        """Refuse to answer from labels the graph has moved past.

        A PML label set is a pure function of the CSR it was built (or
        incrementally maintained) over; once :mod:`repro.updates` bumps
        the graph epoch without maintaining this index, every answer it
        could give is suspect — raising beats silently serving
        pre-mutation distances.
        """
        expected = self._graph.epoch
        actual = self.epoch
        if actual != expected:
            raise StaleIndexError("PML index", expected=expected, actual=actual)

    def distance(self, u: int, v: int) -> int:
        """Exact ``dist(u, v)``; ``-1`` when ``u`` and ``v`` are disconnected."""
        self._check_fresh()
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)
        self.query_count += 1
        if u == v:
            return 0
        return self._merge(u, v)

    def _merge(self, u: int, v: int) -> int:
        """Merge join over the two rank-sorted label lists (Lemma 5.5)."""
        ranks_u = self._label_ranks[u]
        dists_u = self._label_dists[u]
        ranks_v = self._label_ranks[v]
        dists_v = self._label_dists[v]
        i = j = 0
        len_u, len_v = len(ranks_u), len(ranks_v)
        best = -1
        while i < len_u and j < len_v:
            ru, rv = ranks_u[i], ranks_v[j]
            if ru == rv:
                total = dists_u[i] + dists_v[j]
                if best < 0 or total < best:
                    best = total
                i += 1
                j += 1
            elif ru < rv:
                i += 1
            else:
                j += 1
        return best

    def within(self, u: int, v: int, upper: int) -> bool:
        """True iff ``dist(u, v) <= upper`` (and the pair is connected)."""
        d = self.distance(u, v)
        return 0 <= d <= upper

    # -- batch contract (see repro.indexing.batch) ---------------------
    #: Sentinel well above any finite distance; sums of two stay < 2^62.
    _UNREACHED = np.int64(1) << 40

    def distances_from(self, source: int, targets) -> np.ndarray:
        """``dist(source, t)`` for every target, as one vectorized merge.

        Returns int32 with ``-1`` for unreachable targets, exactly like
        ``len(targets)`` scalar :meth:`distance` calls (and counted as
        that many queries).  Validation matches the scalar path: the
        source, then each target in order, first offender raises.
        """
        self._check_fresh()
        source = int(source)
        n = self._graph.num_vertices
        _, t = checked_block(n, [source], targets)
        self.query_count += int(t.size)
        if t.size == 0:
            return np.empty(0, dtype=np.int32)

        # Crossover: a dense pass costs ~O(n) regardless of |targets|; the
        # scalar merges cost ~|targets| * 2*avg_label interpreter steps.
        # Python steps are ~two orders slower than vectorized ones, hence
        # the 1/16 discount before preferring the per-target merges.
        small = t.size * 2.0 * max(self._avg_label, 1.0) < n / 16.0
        if not small:
            gather, counts = self._label_entries(t)
        if small or int(counts.min()) == 0:
            # (An empty label is only possible in a hand-built index --
            # pruned BFS labels every vertex with itself -- and reduceat
            # needs non-empty segments.)
            return np.array(
                [0 if v == source else self._merge(source, v) for v in t.tolist()],
                dtype=np.int32,
            )

        # Spread the source's label into a dense rank-indexed array ...
        dense = np.full(n, self._UNREACHED, dtype=np.int64)
        lo, hi = self._label_offsets[source], self._label_offsets[source + 1]
        dense[self._label_ranks_arr[lo:hi]] = self._label_dists_arr[lo:hi]
        # ... add every target's label slice, gathered in one fancy-index ...
        sums = (
            dense[self._label_ranks_arr[gather]]
            + self._label_dists_arr[gather]
        )
        # ... and take the per-target minimum over common landmarks.
        best = np.minimum.reduceat(sums, np.cumsum(counts) - counts)
        out = np.where(best >= self._UNREACHED, -1, best).astype(np.int32)
        out[t == source] = 0  # same self-distance special case as distance()
        return out

    def _label_entries(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """CSR positions of all label entries of ``vertices``, vertex by
        vertex, and how many each vertex has."""
        starts = self._label_offsets[vertices]
        counts = self._label_offsets[vertices + 1] - starts
        ends = np.cumsum(counts)
        entries = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(
            ends - counts - starts, counts
        )
        return entries, counts

    def within_many(
        self, sources, targets, upper: int, skip_equal: bool = False
    ) -> np.ndarray:
        """The batch contract's int32 ``(P, 2)`` block, by one block kernel.

        Counted as ``|sources| * |targets|`` queries.  Exact by the 2-hop
        cover: a pair qualifies iff some common landmark ``l`` has
        ``d(u, l) + d(l, v) <= upper``, so per block of targets the
        kernel tabulates, per landmark and ``k <= upper``, the packed
        bitset of the targets within ``k`` of it, and a source's answer
        is the OR of row ``(upper - d(u, l), l)`` over its label.  The
        block constants bound the scratch, whatever the sides' sizes.
        """
        self._check_fresh()
        n = self._graph.num_vertices
        s, t = checked_block(n, sources, targets)
        self.query_count += s.size * t.size
        upper = min(int(upper), n)  # no finite distance reaches n
        if upper < 0 or not (s.size and t.size):
            return np.empty((0, 2), dtype=np.int32)
        blocks, rows = [], []
        for t0 in range(0, t.size, _TARGET_BLOCK):
            t_block = t[t0 : t0 + _TARGET_BLOCK]
            table, landmarks = self._target_bitsets(t_block, upper)
            for s0 in range(0, s.size, _SOURCE_BLOCK):
                s_block = s[s0 : s0 + _SOURCE_BLOCK]
                words = self._or_rows(s_block, table, landmarks, upper)
                hit = np.unpackbits(words.view(np.uint8), axis=1, count=t_block.size)
                block, r = pair_block(s_block, t_block, hit.view(np.bool_), not skip_equal)
                blocks.append(block)
                rows.append(r + s0)
        block = np.concatenate(blocks)
        if t.size > _TARGET_BLOCK:  # the blocks came target-block-major
            block = block[np.argsort(np.concatenate(rows), kind="stable")]
        return block

    def _near_entries(
        self, vertices: np.ndarray, upper: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Label entries ``(l, d <= upper)`` of ``vertices``: the owner's
        position in ``vertices``, the landmark rank and the distance."""
        entries, counts = self._label_entries(vertices)
        dist = self._label_dists_arr[entries]
        near = dist <= upper
        owner = np.repeat(np.arange(vertices.size), counts)[near]
        return owner, self._label_ranks_arr[entries[near]], dist[near]

    def _target_bitsets(
        self, t_block: np.ndarray, upper: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """``table[k, i]`` = packed bitset (uint64 words) of the block's
        targets within ``k`` of landmark ``landmarks[i]``, ``k <= upper``."""
        position, rank, dist = self._near_entries(t_block, upper)
        landmarks, column = np.unique(rank, return_inverse=True)
        table = np.zeros(
            (int(dist.max(initial=0)) + 1, landmarks.size, -(-t_block.size // 64) * 8),
            dtype=np.uint8,
        )
        # A (landmark, target) pair occurs once, so among the entries of
        # one bit plane no two name the same byte: a plain fancy |= is exact.
        for plane in range(8):
            pick = (position & 7) == plane
            table[dist[pick], column[pick], position[pick] >> 3] |= 128 >> plane
        table = table.view(np.uint64)
        for k in range(1, len(table)):  # "exactly k away" -> "within k"
            table[k] |= table[k - 1]
        return table, landmarks

    def _or_rows(
        self, s_block: np.ndarray, table: np.ndarray, landmarks: np.ndarray, upper: int
    ) -> np.ndarray:
        """Per source, the OR of row ``table[upper - d, l]`` over its label
        entries ``(l, d <= upper)`` whose landmark is tabulated."""
        owner, rank, dist = self._near_entries(s_block, upper)
        column = np.searchsorted(landmarks, rank)
        live = np.append(landmarks, -1)[column] == rank
        owner, level = owner[live], np.minimum(upper - dist[live], len(table) - 1)
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        words = np.zeros((s_block.size, table.shape[2]), dtype=np.uint64)
        words[owner[first]] = np.bitwise_or.reduceat(
            table[level, column[live]], first, axis=0
        )
        return words

    # ------------------------------------------------------------------
    # Incremental maintenance (driven by repro.updates)
    # ------------------------------------------------------------------
    def apply_edge_insert(self, u: int, v: int) -> tuple[int, int]:
        """Patch the labels for an already-applied edge insert ``{u, v}``.

        The dynamic-PLL insertion rule (Akiba, Iwata & Yoshida, WWW'14):
        the new edge can only *shorten* distances, and any newly optimal
        path root→…→u→v→… must pass through the edge, so for every label
        entry ``(r, d)`` of ``u`` it suffices to resume the pruned BFS of
        landmark ``order[r]`` from ``v`` at distance ``d + 1`` (and
        symmetrically from ``u``).  Resumed visits use the same
        query-based prune as the static build, so the patched label set
        stays a valid 2-hop cover — possibly a superset of what a fresh
        build would store, but answer-identical (the conformance suite
        asserts exactly that).

        Must be called *after* :mod:`repro.updates` mutated the graph;
        returns ``(entries_added, entries_updated)`` and syncs
        :attr:`epoch` to the graph's.
        """
        if not self.supports_incremental:
            raise StaleIndexError(
                f"{type(self).__name__} holds read-only label arrays and "
                "cannot be patched in place"
            )
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)
        # Snapshot both endpoints' labels first: the first pass may add
        # entries to u or v, and resuming from those would double-walk.
        # The R10 suppressions mark the one legitimate stale read in the
        # tree: this method *is* the repair path, invoked while the epoch
        # intentionally lags the graph, and it syncs self._epoch at exit.
        seeds = [
            (start, list(zip(self._label_ranks[end], self._label_dists[end])))  # boomerlint: disable=R10
            for start, end in ((v, u), (u, v))
        ]
        added = updated = 0
        for start, entries in seeds:
            for rank, dist in entries:
                a, b = self._resume_pruned_bfs(int(rank), start, int(dist) + 1)
                added += a
                updated += b
        if added or updated:
            self._finalize_labels()
        self._epoch = self._graph.epoch
        return added, updated

    def _resume_pruned_bfs(self, rank: int, start: int, dist: int) -> tuple[int, int]:
        """Resume landmark ``order[rank]``'s pruned BFS from one vertex."""
        root = int(self._order[rank])
        offsets, neighbors = self._graph.raw_csr()
        added = updated = 0
        best_seen = {start: dist}
        frontier = deque([(start, dist)])
        while frontier:
            w, dw = frontier.popleft()
            # Prune exactly like the static build: if the current labels
            # already certify dist(root, w) <= dw, neither w's label nor
            # anything beyond it can improve.  (root's own label holds
            # (rank, 0), so an existing entry (rank, d<=dw) at w prunes.)
            cur = self._merge(root, w) if w != root else 0
            if 0 <= cur <= dw:
                continue
            ranks_w = self._label_ranks[w]
            dists_w = self._label_dists[w]
            pos = bisect_left(ranks_w, rank)
            if pos < len(ranks_w) and ranks_w[pos] == rank:
                dists_w[pos] = dw  # shorter path via the new edge
                updated += 1
            else:
                ranks_w.insert(pos, rank)
                dists_w.insert(pos, dw)
                added += 1
            for idx in range(int(offsets[w]), int(offsets[w + 1])):
                x = int(neighbors[idx])
                dx = dw + 1
                if best_seen.get(x, dx + 1) > dx:
                    best_seen[x] = dx
                    frontier.append((x, dx))
        return added, updated

    def rebuild_inplace(self) -> None:
        """Conservative fallback: rebuild the labels over the current CSR.

        Edge deletes can *lengthen* distances, which would require
        retracting label entries whose shortest paths died — identifying
        those precisely costs about as much as rebuilding the affected
        landmarks, so the fallback rebuilds outright (fresh degree
        order, exactly what a cold build would produce) while keeping
        this object's identity: every context, session, and cache key
        holding the oracle sees the repaired index without re-plumbing.
        """
        fresh = PrunedLandmarkLabeling.build(self._graph)
        fresh.query_count = self.query_count
        self.__dict__.pop("_rank_of", None)  # landmark order may have changed
        self.__dict__.update(fresh.__dict__)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The indexed data graph."""
        return self._graph

    def label_size(self, v: int) -> int:
        """``|C(v)|`` — size of the distance-aware 2-hop cover entry of v."""
        self._graph._check_vertex(v)
        # Introspection reads label *sizes*, never distances: a stale
        # epoch can only skew a statistic, so no freshness gate here.
        return len(self._label_ranks[v])  # boomerlint: disable=R10

    def total_label_entries(self) -> int:
        """Total number of (landmark, distance) pairs stored."""
        # Size statistic only — see label_size for why R10 is waived.
        return sum(len(lst) for lst in self._label_ranks)  # boomerlint: disable=R10

    def average_label_size(self) -> float:
        """Mean label size — the main space/speed figure of merit of PML."""
        n = self._graph.num_vertices
        return self.total_label_entries() / n if n else 0.0

    def landmark_rank(self, v: int) -> int:
        """Rank of vertex ``v`` in the landmark order used at build time."""
        # order[rank] = vertex  =>  invert lazily (only introspection needs it)
        if not hasattr(self, "_rank_of"):
            rank_of = np.empty(self._graph.num_vertices, dtype=np.int32)
            rank_of[self._order] = np.arange(self._graph.num_vertices)
            self._rank_of = rank_of
        return int(self._rank_of[v])

    def __repr__(self) -> str:
        return (
            f"PrunedLandmarkLabeling(|V|={self._graph.num_vertices:,}, "
            f"avg_label={self.average_label_size():.1f})"
        )


def require_built(index: PrunedLandmarkLabeling | None) -> PrunedLandmarkLabeling:
    """Raise :class:`IndexNotBuiltError` when ``index`` is missing."""
    if index is None:
        raise IndexNotBuiltError(
            "a PML index is required here; run the preprocessor first"
        )
    return index
