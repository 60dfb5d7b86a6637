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

Most pruned BFSs run on one kernel over plain Python lists,
:func:`_pruned_bfs`: every one an insert resumes, and every rank but the
wide ones below.  The landmarks that sweep most of the graph run through
:func:`_level_bfs` instead: the same BFS one level at a time in numpy,
pruning against a table of the earlier landmarks' distances, one uint8
row each.  The build runs its top ranks there and hands over to the list
kernel between two ranks, never inside one, so both kernels label exactly
what the other would.  A delete re-runs each landmark that held at least
``_LEVEL_MIN_ENTRIES`` entries there too, and diffs its old and new
entries as two such rows.  The landmark order is fixed at build time and
kept across updates.

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

import heapq
import mmap
from bisect import bisect_left
from itertools import chain

import numpy as np

from repro.errors import StaleIndexError
from repro.graph.graph import Graph
from repro.indexing.batch import checked_block, pair_block
from repro.indexing.order import degree_order
from repro.indexing.twohop import _distinct

__all__ = ["PrunedLandmarkLabeling"]

#: A spread slot no landmark fills: ``_FAR + d`` exceeds every BFS depth.
_FAR = 1 << 40

#: :meth:`PrunedLandmarkLabeling.within_many` blocks: targets per bitset
#: table (64-byte rows) and sources per gather (~13k rows, under 1 MB).
_TARGET_BLOCK = 512
_SOURCE_BLOCK = 256

#: The build's level kernel keeps one uint8 row of distances per landmark
#: it ran, in a table of at most this many bytes (DESIGN.md 4g) ...
_TABLE_BYTES = 8 << 20
#: ... and hands every later rank to the list kernel after the first rank
#: whose BFS labels fewer vertices than this.
_LEVEL_MIN_LABELLED = 16
#: An edge delete re-runs a landmark through the level kernel when it held
#: at least this many entries before the delete (DESIGN.md 4g).
_LEVEL_MIN_ENTRIES = 150
#: A table cell its landmark left empty; the first distance a row cannot hold.
_NO_ENTRY = 255
#: Table cells one prune gather reads at most: its int64 index stays a
#: small heap allocation (a freed large one would raise glibc's mmap
#: threshold, and the heap would then hold on to later temporaries).
_PRUNE_BLOCK = 1 << 13


def _bfs_views(graph: Graph, ranks: list[list[int]], dists: list[list[int]]) -> tuple:
    """What :func:`_pruned_bfs` runs over: the CSR as lists, the label
    lists, and two clean scratch lists (spread slots, BFS depths)."""
    offsets, neighbors = graph.raw_csr()
    n = graph.num_vertices
    return offsets.tolist(), neighbors.tolist(), ranks, dists, [_FAR] * n, [-1] * n


def _pruned_bfs(
    views: tuple, rank: int, root: int, start: int | None = None, depth: int = 0
) -> list[tuple[int, int]]:
    """Landmark ``rank``'s pruned BFS from ``root``: ``[(w, d)]`` for every
    vertex it labels, in visit order; the labels are not written.

    The prune reads only entries of rank < ``rank`` (the root's are spread
    into their slots, every other slot is ``_FAR``).  Resumed from
    ``start`` at ``depth`` (an insert), ``rank``'s own entry prunes too.
    """
    adj_off, adj, ranks, dists, spread, seen = views
    root_ranks = ranks[root]
    below = root_ranks[: bisect_left(root_ranks, rank)]
    for lr, ld in zip(below, dists[root]):
        spread[lr] = ld
    spread[rank] = _FAR if start is None else 0
    start = root if start is None else start
    labelled = []
    seen[start] = depth
    queue = [start]
    for w in queue:  # grows while iterated: FIFO order, BFS depths
        dw = seen[w]
        for lr, ld in zip(ranks[w], dists[w]):
            if spread[lr] + ld <= dw:
                break
        else:
            labelled.append((w, dw))
            dw += 1
            for x in adj[adj_off[w] : adj_off[w + 1]]:
                if seen[x] < 0:
                    seen[x] = dw
                    queue.append(x)
    for lr in below:
        spread[lr] = _FAR
    spread[rank] = _FAR
    for w in queue:
        seen[w] = -1
    return labelled


def _level_bfs(
    graph: Graph, table: np.ndarray, root: int, root_ranks: list[int],
    root_dists: list[int], seen: np.ndarray,
) -> list[np.ndarray] | None:
    """:func:`_pruned_bfs` of the next rank from ``root``, one BFS level at
    a time: the vertices it labels, one array per depth.  None if it would
    label a vertex at depth ``_NO_ENTRY`` or more.

    ``table[k * n + w]`` is landmark ``k``'s distance to ``w``
    (``_NO_ENTRY`` where it stored none) for every rank ``k`` the root's
    label names.  A frontier vertex ``w`` at depth ``d`` is pruned iff one
    of those ``k`` has ``d(root, k) + d(k, w) <= d``: the list kernel's
    test, with the same entries.  ``seen`` is all False in and out.
    """
    offsets, neighbors = graph.raw_csr()
    rows = np.array(root_ranks, dtype=np.int64)[:, None] * graph.num_vertices
    slack = -np.array(root_dists, dtype=np.int16)[:, None]
    step = _PRUNE_BLOCK // max(len(root_ranks), 1) + 1
    frontier = np.array([root])
    seen[root] = True
    reached, levels = [frontier], []
    while True:
        keep = np.empty(len(frontier), dtype=bool)
        for lo in range(0, len(frontier), step):
            part = table.take(rows + frontier[lo : lo + step])
            keep[lo : lo + step] = (part > slack + len(levels)).all(axis=0)
        frontier = frontier[keep]
        if not frontier.size:
            break
        if len(levels) == _NO_ENTRY:
            levels = None
            break
        levels.append(frontier)
        starts = offsets[frontier]
        counts = offsets[frontier + 1] - starts
        ends = np.cumsum(counts)
        flat = np.repeat(starts - ends + counts, counts)
        flat += np.arange(ends[-1])
        frontier = neighbors[flat]
        frontier = _distinct(frontier[~seen[frontier]])
        seen[frontier] = True
        reached.append(frontier)
    for level in reached:
        seen[level] = False
    return levels


def _level_ranks(
    graph: Graph, roots: list[int], ranks: list[list[int]], dists: list[list[int]]
) -> int:
    """Run the top ranks through :func:`_level_bfs`, appending their entries
    to the label lists; return how many ranks ran.

    It stops between ranks only: after the first rank that labels fewer
    than ``_LEVEL_MIN_LABELLED`` vertices, when the ``_TABLE_BYTES``
    table is full, or before a rank that would store a distance the table
    cannot hold (that rank is left whole to the list kernel).
    """
    n = graph.num_vertices
    top = min(n, _TABLE_BYTES // max(n, 1))
    # An anonymous mapping, not the heap: a freed multi-MB malloc chunk
    # raises glibc's mmap threshold, and the heap then keeps what the
    # later allocations free instead of returning it.  Rows fill on use.
    table = np.frombuffer(mmap.mmap(-1, max(top * n, 1)), dtype=np.uint8)
    seen = np.zeros(n, dtype=bool)
    for rank, root in enumerate(roots[:top]):
        levels = _level_bfs(graph, table, root, ranks[root], dists[root], seen)
        if levels is None:
            return rank
        row = table[rank * n : (rank + 1) * n]
        row.fill(_NO_ENTRY)
        for d, level in enumerate(levels):
            row[level] = d
            for w in level.tolist():
                ranks[w].append(rank)
                dists[w].append(d)
        if sum(map(len, levels)) < _LEVEL_MIN_LABELLED:
            return rank + 1
    return top


def _put(w_ranks: list[int], w_dists: list[int], rank: int, d: int) -> bool:
    """Set entry ``(rank, d)`` in one rank-sorted label; True if it is new."""
    pos = bisect_left(w_ranks, rank)
    if pos < len(w_ranks) and w_ranks[pos] == rank:
        w_dists[pos] = d
        return False
    w_ranks.insert(pos, rank)
    w_dists.insert(pos, d)
    return True


def _far_where_none(row: np.ndarray) -> np.ndarray:
    """A uint8 row's distances as int64, ``_FAR`` where it holds ``_NO_ENTRY``."""
    return np.where(row == _NO_ENTRY, _FAR, row.astype(np.int64))


def _level_rerun(
    graph: Graph, root: int, entries: list[tuple], root_dists: list[int], seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Re-run a landmark whole from ``root`` through :func:`_level_bfs`:
    its old and its new entries as uint8 rows, ``_NO_ENTRY`` where none.

    ``entries`` holds the ``(owners, distances)`` of every earlier rank in
    the root's label, at ``root_dists`` from it, then the landmark's own
    old ones.  None if one of them, or a new entry, does not fit a byte:
    the list kernel re-runs the landmark then.
    """
    n = graph.num_vertices
    table = np.full((len(entries), n), _NO_ENTRY, dtype=np.uint8)
    for row, (owners, dists) in zip(table, entries):
        dists = np.asarray(dists)
        if dists.size and int(dists.max()) >= _NO_ENTRY:
            return None
        row[owners] = dists
    levels = _level_bfs(graph, table.ravel(), root, list(range(len(root_dists))), root_dists, seen)
    if levels is None:
        return None
    new = np.full(n, _NO_ENTRY, dtype=np.uint8)
    for d, level in enumerate(levels):
        new[level] = d
    return table[-1], new


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

    #: Whether updates (:meth:`apply_edge_insert`, :meth:`rebuild_inplace`)
    #: can patch this index in place.  Label lists exist only on an index
    #: that can be patched: this one holds them beside the arrays; the
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

        Runs when the lists are set (``__init__``) and again each time an
        update changes them, nowhere else; an index
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
        """Build the index; ``order`` defaults to decreasing degree.

        The top ranks run through the level kernel while they label many
        vertices (:func:`_level_ranks`), the rest through the list kernel.
        """
        if order is None:
            order = degree_order(graph)
        n = graph.num_vertices
        label_ranks: list[list[int]] = [[] for _ in range(n)]
        label_dists: list[list[int]] = [[] for _ in range(n)]
        roots = np.asarray(order).tolist()
        top = _level_ranks(graph, roots, label_ranks, label_dists)
        views = _bfs_views(graph, label_ranks, label_dists)
        for rank in range(top, n):
            for w, d in _pruned_bfs(views, rank, roots[rank]):
                label_ranks[w].append(rank)
                label_dists[w].append(d)
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
        symmetrically from ``u``).  Resumed visits prune on ranks up to
        the landmark's own, never above, which :meth:`rebuild_inplace`
        relies on.  The patched labels may be a superset of a fresh
        build's and are answer-identical (the conformance suite asserts
        exactly that).

        Must be called *after* :mod:`repro.updates` mutated the graph;
        returns ``(entries_added, entries_updated)`` and syncs
        :attr:`epoch` to the graph's.
        """
        self._require_patchable(u, v)
        # No freshness check, here or in rebuild_inplace: a repair path
        # reads the labels while the epoch intentionally lags the graph,
        # and syncs it at exit.
        ranks, dists = self._label_ranks, self._label_dists
        views = _bfs_views(self._graph, ranks, dists)
        # Snapshot both endpoints' labels first: the first pass may add
        # entries to u or v, and resuming from those would double-walk.
        seeds = [(start, list(zip(ranks[end], dists[end]))) for start, end in ((v, u), (u, v))]
        added = updated = 0
        for start, entries in seeds:
            for rank, dist in entries:
                root = int(self._order[rank])
                for w, d in _pruned_bfs(views, rank, root, start, dist + 1):
                    new = _put(ranks[w], dists[w], rank, d)
                    added += new
                    updated += not new
        if added or updated:
            self._finalize_labels()
        self._epoch = self._graph.epoch
        return added, updated

    def _require_patchable(self, u: int, v: int) -> None:
        if not self.supports_incremental:
            raise StaleIndexError(
                f"{type(self).__name__} holds read-only label arrays and "
                "cannot be patched in place"
            )
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)

    def rebuild_inplace(self, u: int, v: int) -> tuple[int, int]:
        """Repair the labels for an already-applied edge delete ``{u, v}``.

        Off its root, every entry ``(r, d)`` has a neighbour holding
        ``(r, <= d - 1)``, so only a landmark labelling ``u`` and ``v`` at
        different distances, the farther keeping no such neighbour, can
        hold a now-invalid entry.  Those ranks seed a min-heap; rank ``k``
        popped is re-run whole (pruning on ranks < ``k``, repaired by
        then) and the difference spliced in.  A rank that held at least
        ``_LEVEL_MIN_ENTRIES`` entries re-runs on the level kernel, over
        byte rows of the entries it prunes on, and is diffed as two byte
        rows; the rest, and any rank whose distances a byte cannot hold,
        re-run on the list kernel.  Both write the same entries.  A
        rank-``k`` entry that grew or went can lift a later landmark's
        prune: anywhere if it sits at that landmark's root, else at ``w``
        if the landmark reached ``w`` from a pre-delete neighbour and the
        old entry could have pruned it there.  Those landmarks are queued.
        Every vertex keeps the exact entry of the lowest-ranked landmark
        on its shortest paths, so answers stay exact; docs/UPDATES.md has
        the argument.

        Returns ``(entries_added, entries_updated)``, removals counted as
        updates, and syncs :attr:`epoch` to the graph's.
        """
        self._require_patchable(u, v)
        ranks, dists = self._label_ranks, self._label_dists  # epoch lags, as above
        owners, old_dists, bounds = self._entries_by_rank()
        views = _bfs_views(self._graph, ranks, dists)
        adj_off, adj = views[:2]
        order = np.asarray(self._order).tolist()

        def entry(w: int, rank: int) -> int:
            pos = bisect_left(ranks[w], rank)
            hit = pos < len(ranks[w]) and ranks[w][pos] == rank
            return dists[w][pos] if hit else _FAR

        def later(w: int, k: int) -> zip:  # w's entries of rank > k
            i = bisect_left(ranks[w], k + 1)
            return zip(ranks[w][i:], dists[w][i:])

        heap = []
        for r in set(ranks[u]).intersection(ranks[v]):
            (d_near, _), (d_far, far) = sorted([(entry(u, r), u), (entry(v, r), v)])
            support = adj[adj_off[far] : adj_off[far + 1]]
            if d_near < d_far and all(entry(x, r) >= d_far for x in support):
                heap.append(r)
        heapq.heapify(heap)
        queued = set(heap)
        fresh: dict[int, tuple] = {}  # re-run ranks' new entries: owners, distances

        def current(j: int) -> tuple:  # rank j's entries as this repair left them
            if j in fresh:
                return fresh[j]
            return owners[bounds[j] : bounds[j + 1]], old_dists[bounds[j] : bounds[j + 1]]

        seen = np.zeros(self._graph.num_vertices, dtype=bool)
        added = updated = 0
        while heap:
            k = heapq.heappop(heap)
            root = order[k]
            rows = None
            if bounds[k + 1] - bounds[k] >= _LEVEL_MIN_ENTRIES:
                below = bisect_left(ranks[root], k)
                rows = _level_rerun(
                    self._graph, root, [*map(current, ranks[root][:below]), current(k)],
                    dists[root][:below], seen,
                )
            if rows is None:
                lo, hi = bounds[k], bounds[k + 1]
                old = dict(zip(owners[lo:hi].tolist(), old_dists[lo:hi].tolist()))
                now = dict(_pruned_bfs(views, k, root))
                fresh[k] = list(now), list(now.values())
                changes = [(w, _FAR) for w in old if w not in now]
                changes += [(w, d) for w, d in now.items() if d != old.get(w, _FAR)]
            else:
                old_row, new_row = rows
                changed = np.flatnonzero(old_row != new_row)
                changes = list(zip(changed.tolist(), _far_where_none(new_row[changed]).tolist()))
                kept = np.flatnonzero(new_row != _NO_ENTRY)
                fresh[k] = kept, new_row[kept]
            for w, d in changes:
                if d == _FAR:  # labelled before, pruned or unreached now
                    pos = bisect_left(ranks[w], k)
                    del ranks[w][pos], dists[w][pos]
                    updated += 1
                else:
                    new = _put(ranks[w], dists[w], k, d)
                    added += new
                    updated += not new
            if rows is not None:
                grew = changed[old_row[changed] < new_row[changed]]  # 255: went
                suspects = self._lifted(k, grew, _far_where_none(old_row), u, v)
            else:
                longer = [w for w, d in changes if d > old.get(w, _FAR)]
                suspects = {r for r in map(self.landmark_rank, longer) if r > k}
                for w in longer:
                    reached = adj[adj_off[w] : adj_off[w + 1]]
                    if w in (u, v):
                        reached.append(u + v - w)  # across the deleted edge
                    depth: dict[int, int] = {}
                    for x in reached:
                        for r, e in later(x, k):
                            depth[r] = min(depth.get(r, _FAR), e + 1)
                    suspects.update(
                        r for r, dr in depth.items() if old.get(order[r], _FAR) + old[w] <= dr
                    )
            for r in suspects - queued:
                queued.add(r)
                heapq.heappush(heap, r)
        if added or updated:
            self._finalize_labels()
        self._epoch = self._graph.epoch
        return added, updated

    def _lifted(self, k: int, grew: np.ndarray, old: np.ndarray, u: int, v: int) -> set[int]:
        """:meth:`rebuild_inplace`'s cascade over arrays, for the vertices
        ``grew`` where a rank-``k`` entry grew or went: the later ranks
        rooted at one of them, and those whose least depth ``e + 1`` at
        some ``w`` in ``grew``, over ``w``'s neighbours, the old entries
        could have pruned (``old`` by vertex, ``_FAR`` where none).  No
        rank above ``k`` is re-run yet, so the frozen CSR holds theirs."""
        lifted = {r for r in self._ranks_of(grew).tolist() if r > k}
        offsets, neighbors = self._graph.raw_csr()
        starts = offsets[grew]
        counts = offsets[grew + 1] - starts
        flat = np.repeat(starts - np.cumsum(counts) + counts, counts)
        flat += np.arange(flat.size)
        owner, reached = np.repeat(grew, counts), neighbors[flat]
        across = [w for w in (u, v) if w in grew]  # over the deleted edge
        if across:
            owner = np.concatenate((owner, across))
            reached = np.concatenate((reached, [u + v - w for w in across]))
        if not reached.size:
            return lifted
        entries, per = self._label_entries(reached)
        rank = self._label_ranks_arr[entries]
        above = rank > k
        owner, rank = np.repeat(owner, per)[above], rank[above]
        depth = self._label_dists_arr[entries[above]] + 1
        key = owner * len(old) + rank  # one per (w, later rank): its least depth
        by_key = np.argsort(key, kind="stable")
        first = np.flatnonzero(np.diff(key[by_key], prepend=-1))
        depth = np.minimum.reduceat(depth[by_key], first)
        owner, rank = owner[by_key[first]], rank[by_key[first]]
        roots = np.asarray(self._order)[rank]
        lifted.update(rank[old[roots] + old[owner] <= depth].tolist())
        return lifted

    def _entries_by_rank(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The frozen label CSR, rank-major: rank ``k``'s entries are
        ``owners[b[k]:b[k + 1]]`` at ``dists[b[k]:b[k + 1]]``."""
        offsets, by_rank = self._label_offsets, np.argsort(self._label_ranks_arr, kind="stable")
        owners = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))[by_rank]
        bounds = np.searchsorted(self._label_ranks_arr[by_rank], np.arange(offsets.size))
        return owners, self._label_dists_arr[by_rank], bounds.tolist()

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
        return len(self._label_ranks[v])

    def total_label_entries(self) -> int:
        """Total number of (landmark, distance) pairs stored."""
        # Size statistic only — see label_size for why there is no gate.
        return sum(len(lst) for lst in self._label_ranks)

    def average_label_size(self) -> float:
        """Mean label size — the main space/speed figure of merit of PML."""
        n = self._graph.num_vertices
        return self.total_label_entries() / n if n else 0.0

    def landmark_rank(self, v: int) -> int:
        """Rank of vertex ``v`` in the landmark order used at build time."""
        return int(self._ranks_of(v))

    def _ranks_of(self, vertices):
        """Landmark ranks of ``vertices`` (an int or an array)."""
        # order[rank] = vertex  =>  invert lazily (only updates need it)
        if not hasattr(self, "_rank_of"):
            rank_of = np.empty(self._graph.num_vertices, dtype=np.int32)
            rank_of[self._order] = np.arange(self._graph.num_vertices)
            self._rank_of = rank_of
        return self._rank_of[vertices]

    def __repr__(self) -> str:
        return (
            f"PrunedLandmarkLabeling(|V|={self._graph.num_vertices:,}, "
            f"avg_label={self.average_label_size():.1f})"
        )
