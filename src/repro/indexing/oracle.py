"""Distance-oracle abstraction.

The BOOMER framework "is orthogonal to the choice of exact shortest-path
distance computation technique" (paper, footnote 5): any oracle exposing
the four methods of :class:`DistanceOracle` can be plugged into the CAP
machinery.  Two are scalar (``distance``, ``within``); two are kernels
answering one source against many targets (``distances_from``) or a whole
(sources x targets) block (``within_many``) in one interpreter-level
call.  The engine sends every batch query to the kernels.  Kernel
answers must be bit-identical to the equivalent loop of scalar calls,
errors included.

Beside PML this module ships :class:`BFSOracle` — plain per-source BFS
with memoization; the reference oracle for correctness tests and the
"no index" arm of the PML ablation.

Thread safety
-------------
One oracle instance may back many concurrent sessions (the
:mod:`repro.service` layer shares a single PML index across every hosted
session).  PML queries are pure reads over frozen label arrays and need no
synchronization; :class:`BFSOracle` takes a lock around its mutable bits
(memo cache and query counter), so shared use never produces racy stats
or a torn cache.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph.algorithms import bfs_distances
from repro.graph.graph import Graph
from repro.indexing.batch import checked_block, pair_block

__all__ = ["DistanceOracle", "BFSOracle"]


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers exact shortest-path distance queries.

    The kernels must be answer- and error-identical to the scalar loop:
    same int32 distances (``-1`` unreachable), same
    ``VertexNotFoundError`` for the first invalid id in iteration order,
    and ``within_many`` returns its pairs as an int32 ``(P, 2)`` block,
    source-major with each source's targets in the given target order.
    """

    def distance(self, u: int, v: int) -> int:
        """Exact ``dist(u, v)``; ``-1`` when disconnected."""
        ...

    def within(self, u: int, v: int, upper: int) -> bool:
        """True iff ``0 <= dist(u, v) <= upper``."""
        ...

    def distances_from(self, source: int, targets) -> "np.ndarray":
        """``dist(source, t)`` for every ``t`` (int32; -1 unreachable)."""
        ...

    def within_many(
        self, sources, targets, upper: int, skip_equal: bool = False
    ) -> "np.ndarray":
        """Int32 ``(P, 2)`` block of the pairs with ``0 <= dist <= upper``."""
        ...


class BFSOracle:
    """Exact distances via memoized single-source BFS.

    Each distinct source triggers one full BFS whose distance vector is
    cached (bounded LRU by insertion order).  Suitable for tests and small
    graphs; the ablation bench uses it to quantify what PML buys.

    Safe to share across threads: the memo cache and query counter are
    guarded by a lock (the BFS itself runs outside the lock so concurrent
    misses on *different* sources still parallelize).

    Graph mutation safe: every memoized vector records the graph epoch it
    was computed at (see :attr:`repro.graph.graph.Graph.epoch`); a hit
    whose stored epoch trails the graph's is treated as a miss and
    recomputed.  BFS has no build step, so unlike PML the oracle
    self-heals instead of raising
    :class:`~repro.errors.StaleIndexError`.
    """

    def __init__(self, graph: Graph, cache_size: int = 1024) -> None:
        self._graph = graph
        #: source -> (graph epoch at compute time, distance vector).
        self._cache: dict[int, tuple[int, np.ndarray]] = {}
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self.query_count = 0

    @property
    def graph(self) -> Graph:
        """The underlying data graph."""
        return self._graph

    @property
    def epoch(self) -> int:
        """The graph epoch this oracle currently answers for.

        BFS recomputes on demand, so the oracle is never behind its
        graph — the shared distance-vector cache keys on this to drop
        pre-mutation vectors.
        """
        return self._graph.epoch

    def _cached_fresh(self, source: int) -> bool:
        """Caller holds the lock: is there a current-epoch vector for source?"""
        entry = self._cache.get(source)
        return entry is not None and entry[0] == self._graph.epoch

    def _vector(self, source: int) -> np.ndarray:
        epoch = self._graph.epoch
        vec = None
        with self._lock:
            entry = self._cache.pop(source, None)
            if entry is not None and entry[0] == epoch:
                # Re-insert at the end: a hit must refresh recency, or the
                # "LRU" degenerates to FIFO and hot sources get evicted.
                self._cache[source] = entry
                vec = entry[1]
            # An epoch-mismatched entry stays popped: the graph moved and
            # the vector describes distances that no longer exist.
        if vec is None:
            vec = bfs_distances(self._graph, source)
            with self._lock:
                current = self._cache.get(source)
                if current is None or current[0] != epoch:
                    if source not in self._cache and (
                        len(self._cache) >= self._cache_size
                    ):
                        # Evict the least recently used (front of the dict).
                        self._cache.pop(next(iter(self._cache)))
                    self._cache[source] = (epoch, vec)
                else:  # another thread raced us; keep its identical vector
                    vec = current[1]
        return vec

    def distance(self, u: int, v: int) -> int:
        # Validate both endpoints up front (like PML): a negative id would
        # otherwise wrap the numpy indexing below and return a *wrong*
        # distance instead of raising.
        self._graph._check_vertex(u)
        self._graph._check_vertex(v)
        with self._lock:
            self.query_count += 1
            # Run BFS from whichever endpoint already has a fresh vector,
            # else from u.  Stale entries do not count as cached — picking
            # one would just recompute from the other endpoint anyway.
            source, target = (
                (v, u)
                if self._cached_fresh(v) and not self._cached_fresh(u)
                else (u, v)
            )
        if u == v:
            return 0
        return int(self._vector(source)[target])

    def within(self, u: int, v: int, upper: int) -> bool:
        d = self.distance(u, v)
        return 0 <= d <= upper

    # -- kernels ------------------------------------------------------
    def distances_from(self, source: int, targets) -> np.ndarray:
        """One cached BFS vector sliced against the whole target set."""
        _, t = checked_block(self._graph.num_vertices, [source], targets)
        with self._lock:
            self.query_count += int(t.size)
        if t.size == 0:
            return np.empty(0, dtype=np.int32)
        return self._vector(int(source))[t]

    def within_many(
        self, sources, targets, upper: int, skip_equal: bool = False
    ) -> np.ndarray:
        """The sources' cached BFS vectors, stacked and masked at once."""
        s, t = checked_block(self._graph.num_vertices, sources, targets)
        with self._lock:
            self.query_count += s.size * t.size
        dists = np.array([self._vector(u)[t] for u in s.tolist()], dtype=np.int32)
        dists = dists.reshape(s.size, t.size)  # also when a side is empty
        hit = (dists >= 0) & (dists <= upper)
        return pair_block(s, t, hit, upper >= 0 and not skip_equal)[0]

