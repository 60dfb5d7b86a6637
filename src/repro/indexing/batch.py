"""Batched distance kernels and the shared distance-vector cache.

AIVS materialization (PVS / Algorithm 8) and the BU baseline are dominated
by interpreter-level ``oracle.within(u, v, upper)`` loops over candidate
pairs.  This module is the batch side of the oracle contract:

* :func:`distances_from` — routes a one-source-vs-many query to an
  oracle's native kernel (:class:`~repro.indexing.pml.PrunedLandmarkLabeling`
  answers over CSR label arrays, :class:`~repro.indexing.oracle.BFSOracle`
  over cached BFS vectors) and otherwise falls back to the per-pair
  scalar loop; :class:`~repro.core.context.EngineContext` makes the same
  choice (:func:`supports_batch`) for a whole (sources x targets)
  ``within_many`` block.  The fallback (:func:`scalar_distances`,
  :func:`scalar_within_many`) is what keeps
  :class:`~repro.indexing.oracle.CountingOracle` and the fault injectors
  working unchanged: every logical query still reaches ``distance``/
  ``within`` one call at a time, so counts and fault schedules are
  preserved.  ``within_many`` returns, on every path, the same int32
  ``(P, 2)`` block of qualifying pairs; :func:`checked_block` and
  :func:`pair_block` are the pieces of that contract the native kernels
  share.
* :class:`DistanceVectorCache` — a process-wide bounded LRU of full
  distance vectors for :func:`distances_from` (``within_many``, the Run
  path, never consults it), keyed so that neither a graph update nor a
  recycled ``id()`` can serve a wrong vector; hits and misses go to
  :mod:`repro.obs.metrics` (``repro_distcache_hits_total`` /
  ``repro_distcache_misses_total``).

Batch answers are bit-identical to the scalar path by construction, and
every consumer that batches preserves its scalar iteration order.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Sequence

import numpy as np

from repro.errors import VertexNotFoundError
from repro.obs.metrics import metrics

__all__ = [
    "supports_batch",
    "distances_from",
    "checked_block",
    "pair_block",
    "scalar_distances",
    "scalar_within_many",
    "DistanceVectorCache",
    "shared_distance_cache",
]

#: Vertex ids on one side of a batch query.
Ids = Sequence[int] | np.ndarray

#: Below this many targets a full-vector cache fill costs more than it
#: saves; the query goes straight to the oracle's native kernel.
FULL_VECTOR_MIN_TARGETS = 32

#: The cache detour computes dist(source, *) for ALL n vertices, which is
#: only close to free when the requested targets already cover a good
#: fraction of the graph (a narrow target set pays n/|targets| times the
#: direct kernel): require ``|targets| * FULL_VECTOR_MAX_OVERFILL >= n``.
FULL_VECTOR_MAX_OVERFILL = 4


def supports_batch(oracle: object) -> bool:
    """True iff ``oracle`` implements the native batch contract."""
    return hasattr(oracle, "distances_from") and hasattr(oracle, "within_many")


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
def distances_from(oracle: object, source: int, targets: Ids) -> np.ndarray:
    """``dist(source, t)`` for every ``t`` in ``targets`` (int32, -1 = unreachable).

    Uses the oracle's native vectorized kernel when it has one (routing
    large target sets through :data:`shared_distance_cache` for oracles
    that advertise ``cacheable_vectors``), else falls back to one scalar
    ``distance`` call per target.
    """
    t = np.asarray(targets, dtype=np.int64)
    if not supports_batch(oracle):
        return scalar_distances(oracle, source, t)
    graph = getattr(oracle, "graph", None)
    if (
        t.size >= FULL_VECTOR_MIN_TARGETS
        and getattr(oracle, "cacheable_vectors", False)
        and graph is not None
        and t.size * FULL_VECTOR_MAX_OVERFILL >= graph.num_vertices
    ):
        vec = shared_distance_cache.lookup(oracle, source)
        if vec is None:
            vec = oracle.distances_from(
                source, np.arange(graph.num_vertices, dtype=np.int64)
            )
            shared_distance_cache.store(oracle, source, vec)
        # The cached vector skipped the oracle's own target validation.
        return vec[checked_block(vec.shape[0], (), t)[1]]
    return oracle.distances_from(source, t)


def checked_block(
    num_vertices: int, sources: Ids, targets: Ids
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of a block query as int64 arrays, validated: the id
    raised is the one the per-pair double loop would reject first (the
    first source, then the targets in order, then the other sources)."""
    s = np.asarray(sources, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    ids = np.concatenate((s[:1], t, s[1:]))
    bad = (ids < 0) | (ids >= num_vertices)
    if bad.any():
        raise VertexNotFoundError(int(ids[np.argmax(bad)]))
    return s, t


def pair_block(
    sources: np.ndarray, targets: np.ndarray, hit: np.ndarray, diagonal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The int32 ``(P, 2)`` block of a boolean ``(sources, targets)`` mask,
    row-major, and the position in ``sources`` of each row's source.

    The mask's diagonal is forced to ``diagonal``: off under
    ``skip_equal``, else on (``dist(v, v) = 0`` whatever the labels say).
    """
    equal = sources[:, None] == targets[None, :]
    rows, cols = np.nonzero(hit | equal if diagonal else hit & ~equal)
    block = np.empty((rows.size, 2), dtype=np.int32)
    block[:, 0] = sources[rows]
    block[:, 1] = targets[cols]
    return block, rows


# ----------------------------------------------------------------------
# Per-pair fallback shim
# ----------------------------------------------------------------------
def scalar_distances(oracle: object, source: int, targets: Ids) -> np.ndarray:
    """The per-pair shim, one ``oracle.distance`` call per target: the
    fallback for batch-incapable oracles (counting wrappers, fault
    injectors) and the reference arm batch kernels are verified against."""
    t = np.asarray(targets, dtype=np.int64).tolist()
    source = int(source)
    return np.array([oracle.distance(source, v) for v in t], dtype=np.int32)


def scalar_within_many(
    oracle: object, sources: Ids, targets: Ids, upper: int, skip_equal: bool = False
) -> np.ndarray:
    """One ``within`` per pair, same block and row order as the kernel."""
    t = np.asarray(targets, dtype=np.int64).tolist()
    pairs = [
        (u, v)
        for u in np.asarray(sources, dtype=np.int64).tolist()
        for v in t
        if not (skip_equal and u == v) and oracle.within(u, v, upper)
    ]
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


# ----------------------------------------------------------------------
# Shared full-vector cache
# ----------------------------------------------------------------------
def _oracle_epoch(oracle: object) -> int:
    """The mutation counter a cached vector must match to be served: the
    oracle's own ``epoch`` (PML's is the one its labels were maintained
    to), else its graph's, else 0 for epoch-unaware test doubles."""
    epoch = getattr(oracle, "epoch", None)
    if epoch is None:
        epoch = getattr(getattr(oracle, "graph", None), "epoch", 0)
    return int(epoch)


class DistanceVectorCache:
    """Bounded LRU of full single-source distance vectors.

    One instance (:data:`shared_distance_cache`) is shared process-wide:
    the service layer hosts many sessions over one PML oracle, and hot
    sources (high-degree candidates re-probed across sessions) hit the
    same vectors.  Thread-safe; hits refresh recency.

    Keys are ``(id(oracle), epoch, source)``.  The epoch makes graph
    mutation a cache flush for free: after :mod:`repro.updates` bumps
    the counter, every pre-mutation vector sits under a key no lookup
    will ever form again.  Because ``id()`` values are recycled once an
    oracle is collected, each entry also holds a *weak* reference to its
    oracle and a hit requires ``entry.ref() is oracle`` — a stale entry
    is evicted on sight and never pins a dead oracle (and its graph).
    Oracles without weak-reference support (plain test doubles) are held
    strongly.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: (id(oracle), epoch, source) -> (ref-or-oracle, vector);
        #: dict order is LRU order.
        self._entries: dict[
            tuple[int, int, int], tuple[object, np.ndarray]
        ] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _deref(holder: object) -> object:
        """The held oracle (None once a weakly-held one is collected)."""
        return holder() if isinstance(holder, weakref.ref) else holder

    def lookup(self, oracle: object, source: int) -> np.ndarray | None:
        """The cached full vector for ``(oracle, source)``, or None."""
        key = (id(oracle), _oracle_epoch(oracle), int(source))
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None and self._deref(entry[0]) is oracle:
                self._entries[key] = entry  # re-insert: most recently used
                self.hits += 1
                hit = True
            else:
                # A different object (or None): id() was recycled after
                # the original oracle died; the stale entry stays evicted.
                self.misses += 1
                hit = False
        self._record(hit)
        return entry[1] if hit else None

    def store(self, oracle: object, source: int, vector: np.ndarray) -> None:
        """Insert (or refresh) the full vector for ``(oracle, source)``."""
        key = (id(oracle), _oracle_epoch(oracle), int(source))
        try:
            holder: object = weakref.ref(oracle)
        except TypeError:  # slotted without __weakref__, or builtins
            holder = oracle
        with self._lock:
            self._entries.pop(key, None)
            while len(self._entries) >= self.max_entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = (holder, vector)
            size = len(self._entries)
        self._record_size(size)

    def invalidate(self, oracle: object) -> int:
        """Drop every entry held for ``oracle`` (any epoch); returns how many.

        The epoch key already makes stale vectors unreachable; this frees
        their memory at once, and :mod:`repro.updates` calls it after
        every mutation.
        """
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if key[0] == id(oracle) and self._deref(entry[0]) is oracle
            ]
            for key in doomed:
                del self._entries[key]
            size = len(self._entries)
        self._record_size(size)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (tests / memory pressure)."""
        with self._lock:
            self._entries.clear()
        self._record_size(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _record(hit: bool) -> None:
        # Instruments are fetched per update (not cached) so a registry
        # reset between runs cannot strand increments on forgotten series.
        if hit:
            metrics.counter(
                "repro_distcache_hits_total", "shared distance-vector cache hits"
            ).inc()
        else:
            metrics.counter(
                "repro_distcache_misses_total", "shared distance-vector cache misses"
            ).inc()

    @staticmethod
    def _record_size(size: int) -> None:
        metrics.gauge(
            "repro_distcache_entries", "distance vectors currently cached"
        ).set(size)

    def __repr__(self) -> str:
        return (
            f"DistanceVectorCache(entries={len(self)}/{self.max_entries}, "
            f"hits={self.hits}, misses={self.misses})"
        )


#: The process-wide cache shared by every session (see class docstring).
shared_distance_cache = DistanceVectorCache()
