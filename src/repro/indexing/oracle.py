"""Distance-oracle abstraction.

The BOOMER framework "is orthogonal to the choice of exact shortest-path
distance computation technique" (paper, footnote 5): any oracle exposing
``distance``/``within`` can be plugged into the CAP machinery.  This module
defines that protocol plus two implementations used beside PML:

* :class:`BFSOracle` — plain per-source BFS with memoization; the reference
  oracle for correctness tests and the "no index" arm of the PML ablation.
* :class:`CountingOracle` — a wrapper counting/delegating queries, used by
  experiments to report how many distance queries each strategy issues.

Batch contract
--------------
Oracles may additionally implement :class:`BatchDistanceOracle` —
``distances_from(source, targets)`` and ``within_many(sources, targets,
upper, skip_equal)`` — answering one source against many targets, or a
whole (sources x targets) block, in one interpreter-level call.  PML and
:class:`BFSOracle` do; consumers go through :mod:`repro.indexing.batch`,
whose per-pair shim keeps scalar-only oracles (:class:`CountingOracle`,
the fault injectors) working unchanged.  Batch answers must be
bit-identical to the equivalent loop of scalar calls, errors included.

Thread safety
-------------
One oracle instance may back many concurrent sessions (the
:mod:`repro.service` layer shares a single PML index across every hosted
session).  PML queries are pure reads over frozen label arrays and need no
synchronization; the two *stateful* oracles here take a lock around their
mutable bits — :class:`BFSOracle`'s memo cache and both classes' query
counters — so shared use never produces racy stats or a torn cache.

:func:`shared_bfs_oracle` memoizes one :class:`BFSOracle` per data graph.
The degradation ladder (PR 1) builds a BFS fallback whenever the session
oracle dies; caching it means N failed Runs in one process pay for one
fallback's BFS frontier instead of N cold caches.
"""

from __future__ import annotations

import threading
from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph.algorithms import bfs_distances
from repro.graph.graph import Graph
from repro.indexing.batch import checked_block, pair_block

__all__ = [
    "DistanceOracle",
    "BatchDistanceOracle",
    "BFSOracle",
    "CountingOracle",
    "shared_bfs_oracle",
]


@runtime_checkable
class DistanceOracle(Protocol):
    """Anything that answers exact shortest-path distance queries."""

    def distance(self, u: int, v: int) -> int:
        """Exact ``dist(u, v)``; ``-1`` when disconnected."""
        ...

    def within(self, u: int, v: int, upper: int) -> bool:
        """True iff ``0 <= dist(u, v) <= upper``."""
        ...


@runtime_checkable
class BatchDistanceOracle(DistanceOracle, Protocol):
    """A distance oracle with native one-source-vs-many kernels.

    Implementations must be answer- and error-identical to the scalar
    loop: same int32 distances (``-1`` unreachable), same
    ``VertexNotFoundError`` for the first invalid id in iteration order,
    and ``within_many`` returns its pairs as an int32 ``(P, 2)`` block,
    source-major with each source's targets in the given target order.
    """

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

    # -- batch contract (see repro.indexing.batch) ---------------------
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


class CountingOracle:
    """Delegating oracle that counts queries (experiment instrumentation).

    The counter increment is lock-guarded so one instance can wrap the
    shared oracle of many concurrent sessions without losing counts
    (``+=`` on an int is not atomic across bytecode boundaries).
    """

    #: Scalar-only on purpose (R3): batch dispatch must fall back to the
    #: per-pair shim so every logical query still increments the counter.
    batch_via_shim = True

    def __init__(self, inner: DistanceOracle) -> None:
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

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self.query_count = 0


#: One shared BFS fallback per data graph, identity-keyed.  ``Graph`` is
#: slotted without ``__weakref__``, so entries pin their graph; the cache is
#: bounded (oldest-out) to keep that pinning harmless in long processes
#: that churn through many graphs.  Guarded by a lock because fallback
#: construction can race when several sessions degrade at once.
_shared_bfs: dict[int, tuple[Graph, BFSOracle]] = {}
_shared_bfs_lock = threading.Lock()
_SHARED_BFS_MAX = 8


def shared_bfs_oracle(graph: Graph) -> BFSOracle:
    """The process-wide BFS fallback oracle for ``graph`` (built once).

    The degradation ladder and post-Run result generation both reach for
    an index-free BFS oracle when the session oracle is unusable; within
    one process every such fallback on the same graph shares one instance
    (and therefore one warm BFS cache).
    """
    key = id(graph)
    with _shared_bfs_lock:
        entry = _shared_bfs.get(key)
        if entry is None or entry[0] is not graph:
            if len(_shared_bfs) >= _SHARED_BFS_MAX:
                _shared_bfs.pop(next(iter(_shared_bfs)))
            entry = (graph, BFSOracle(graph))
            _shared_bfs[key] = entry
        return entry[1]
