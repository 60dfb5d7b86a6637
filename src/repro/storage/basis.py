"""The :class:`EngineBasis` — the one immutable value every holder stores.

The expensive part of an :class:`~repro.core.context.EngineContext` is a
handful of flat numpy arrays: the CSR graph (``graph_offsets`` /
``graph_neighbors``), the finalized PML label CSR (``pml_offsets`` /
``pml_ranks`` / ``pml_dists`` plus the landmark ``pml_order``), and the
per-vertex ``two_hop`` counts.  Everything else — labels, cost-model
constants, the graph epoch — is small scalar metadata.

:class:`EngineBasis` is the single value every holder of that bundle
carries — the dataset registry's disk cache (a saved basis directory,
:mod:`repro.datasets.registry`) and a hosted
:class:`~repro.storage.backends.BasisDirectory` alike:

* :func:`basis_from_context` extracts it from a live context (outside
  :mod:`repro.indexing`, the only reader of the PML label-CSR
  internals);
* :func:`context_from_basis` rebuilds a full, query-identical
  :class:`~repro.core.context.EngineContext` over the basis' buffers —
  resident numpy arrays or read-only ``numpy.memmap`` files;
* :func:`heap_context_from_basis` rebuilds the *patchable* form instead
  — private array copies and per-vertex label lists, what a fresh
  :func:`~repro.core.preprocessor.preprocess` gives — which is how a
  registry cache hit comes back able to take edge updates.

Byte identity is the contract: two contexts built from equal bases
answer every distance query and enumerate every match identically,
whether the heap or a directory held the bytes in between
(``tests/test_storage_conformance.py`` proves it for both).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.errors import StaleIndexError, StorageError
from repro.graph.graph import Graph
from repro.indexing.pml import PrunedLandmarkLabeling

__all__ = [
    "ARRAY_NAMES",
    "EngineBasis",
    "StoredPML",
    "basis_from_context",
    "context_from_basis",
    "heap_context_from_basis",
]

#: Canonical array manifest, in serialization order.  A saved basis
#: stores exactly these seven arrays under exactly these names.
ARRAY_NAMES = (
    "graph_offsets",
    "graph_neighbors",
    "pml_offsets",
    "pml_ranks",
    "pml_dists",
    "pml_order",
    "two_hop",
)


@dataclass(frozen=True)
class EngineBasis:
    """Everything needed to reconstruct an engine context, as plain data.

    ``arrays`` maps each :data:`ARRAY_NAMES` entry to a 1-D numpy array
    (resident or memmap — the consumer does not care).  Everything else
    is small by-value metadata: the label list, and the
    :meth:`scalars` — graph name, cost-model constants and the graph
    epoch — which ``meta.json`` carries as one mapping, so a field added
    here cannot be missed by the store.
    """

    graph_name: str
    labels: tuple
    arrays: Mapping[str, np.ndarray]
    cost_model: dict[str, float] = field(default_factory=dict)
    avg_label: float = 0.0
    #: Graph epoch the arrays were extracted at (see
    #: :attr:`repro.graph.graph.Graph.epoch`).  Persisted in
    #: ``meta.json``; a live graph that has moved past a saved basis
    #: makes that directory *stale*, and reopening it is refused (see
    #: :class:`repro.storage.backends.BasisDirectory`).
    epoch: int = 0

    def __post_init__(self) -> None:
        missing = [name for name in ARRAY_NAMES if name not in self.arrays]
        if missing:
            raise StorageError(f"engine basis is missing arrays: {missing}")

    @classmethod
    def scalar_names(cls) -> tuple[str, ...]:
        """The fields of :meth:`scalars`: all but ``labels`` and ``arrays``."""
        return tuple(
            f.name for f in fields(cls) if f.name not in ("labels", "arrays")
        )

    def scalars(self) -> dict[str, Any]:
        """The JSON-safe by-value fields, by name: what a saved basis
        stores beside the arrays and the label list (``meta.json`` keys)
        and passes back as keywords to rebuild the basis."""
        return {name: getattr(self, name) for name in self.scalar_names()}

    def nbytes(self) -> int:
        """Fully-resident footprint of the arrays."""
        return int(sum(self.arrays[name].nbytes for name in ARRAY_NAMES))

    def equal_bytes(
        self, other: "EngineBasis", names: tuple[str, ...] = ARRAY_NAMES
    ) -> bool:
        """True iff every array of ``names`` matches ``other`` byte for byte."""
        for name in names:
            mine, theirs = self.arrays[name], other.arrays[name]
            if mine.dtype != theirs.dtype or mine.shape != theirs.shape:
                return False
            if not np.array_equal(np.asarray(mine), np.asarray(theirs)):
                return False
        return True

    def with_arrays(self, arrays: Mapping[str, np.ndarray]) -> "EngineBasis":
        """The same metadata over a different set of buffers."""
        return replace(self, arrays=dict(arrays))


class StoredPML(PrunedLandmarkLabeling):
    """A PML index whose backing arrays arrive frozen: heap or memmap.

    Assembled by :func:`context_from_basis` from already-finalized CSR
    arrays — never by
    :meth:`~repro.indexing.pml.PrunedLandmarkLabeling.build`.  Query
    behavior is bit-identical to the original index (same arrays, same
    kernels); only storage differs.  The index holds the three label
    arrays and nothing else: there are no per-vertex label lists (lists
    exist only on an index that can be patched, see
    :attr:`supports_incremental`), and a scalar query slices the columns
    where they lie, retaining nothing between calls — so its footprint
    is the same after a million queries as after none
    (``docs/STORAGE.md``, "How a stored index is read").
    """

    #: Stored label columns are read-only views (mmap pages) —
    #: :meth:`~repro.indexing.pml.PrunedLandmarkLabeling.apply_edge_insert`
    #: cannot splice them, so :mod:`repro.updates` refuses this index
    #: with a typed :class:`~repro.errors.StaleIndexError` *before*
    #: mutating the graph (fallback policy: rebuild the basis).
    supports_incremental = False

    def _merge(self, u: int, v: int) -> int:
        """The heap index's merge join, over the two stored label columns.

        Four slices of the label CSR are boxed for the duration of one
        join (a Python merge over ndarray scalars is ~4x slower than
        over ints) and dropped with it.  The loop is the base class' own,
        restated: routing both through one helper function measured 4-9 %
        on the heap index's scalar ``distance``, which times ``t_avg``.
        """
        offsets, ranks, dists = (
            self._label_offsets, self._label_ranks_arr, self._label_dists_arr
        )
        u0, u1, v0, v1 = offsets[u], offsets[u + 1], offsets[v], offsets[v + 1]
        ranks_u, dists_u = ranks[u0:u1].tolist(), dists[u0:u1].tolist()
        ranks_v, dists_v = ranks[v0:v1].tolist(), dists[v0:v1].tolist()
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

    def label_size(self, v: int) -> int:
        self._graph._check_vertex(v)
        return int(self._label_offsets[v + 1] - self._label_offsets[v])

    def total_label_entries(self) -> int:
        return int(self._label_offsets[-1])


def basis_from_context(ctx: EngineContext) -> EngineBasis:
    """Extract the immutable engine basis from a live context.

    Requires a PML oracle (a basis holds *finalized label arrays*; a
    BFS oracle has no frozen index to store).  The returned
    arrays are the context's own buffers when already contiguous — no
    copy is taken here; :func:`~repro.storage.mmapstore.save_basis`
    copies on save.
    """
    oracle = ctx.oracle
    if not isinstance(oracle, PrunedLandmarkLabeling):
        raise StorageError(
            f"an engine basis requires a PML oracle; got "
            f"{type(oracle).__name__}"
        )
    if oracle.epoch != ctx.graph.epoch:
        # Persisting labels the graph has moved past would freeze wrong
        # distances into a directory that outlives this process.
        raise StaleIndexError(
            "PML index", expected=ctx.graph.epoch, actual=oracle.epoch
        )
    offsets, neighbors = ctx.graph.raw_csr()
    arrays = {
        "graph_offsets": np.ascontiguousarray(offsets),
        "graph_neighbors": np.ascontiguousarray(neighbors),
        "pml_offsets": np.ascontiguousarray(oracle._label_offsets),
        "pml_ranks": np.ascontiguousarray(oracle._label_ranks_arr),
        "pml_dists": np.ascontiguousarray(oracle._label_dists_arr),
        "pml_order": np.ascontiguousarray(np.asarray(oracle._order)),
        "two_hop": np.ascontiguousarray(np.asarray(ctx.two_hop)),
    }
    cost = ctx.cost_model
    return EngineBasis(
        graph_name=ctx.graph.name,
        labels=tuple(ctx.graph.labels()),
        arrays=arrays,
        cost_model={
            "t_avg": cost.t_avg,
            "t_lat": cost.t_lat,
            "mean_degree": cost.mean_degree,
            "mean_two_hop": cost.mean_two_hop,
        },
        avg_label=float(oracle._avg_label),
        epoch=ctx.graph.epoch,
    )


def _graph_of(basis: EngineBasis, arrays: Mapping[str, np.ndarray]) -> Graph:
    return Graph(
        offsets=arrays["graph_offsets"],
        neighbors=arrays["graph_neighbors"],
        labels=list(basis.labels),
        name=basis.graph_name,
        epoch=basis.epoch,
    )


def _index_over(
    cls: type[PrunedLandmarkLabeling],
    graph: Graph,
    arrays: Mapping[str, np.ndarray],
    avg_label: float,
) -> PrunedLandmarkLabeling:
    """Assemble an index over label arrays that arrive frozen.

    The arrays are kept as plain-``ndarray`` views of the basis'
    buffers: a slice of an ``np.memmap`` pays its subclass dispatch
    (``__array_finalize__``) on every scalar query, a view of the
    same pages does not.
    """
    pml = cls.__new__(cls)
    pml._graph = graph
    pml._order = arrays["pml_order"]
    pml.query_count = 0
    pml._label_offsets = arrays["pml_offsets"].view(np.ndarray)
    pml._label_ranks_arr = arrays["pml_ranks"].view(np.ndarray)
    pml._label_dists_arr = arrays["pml_dists"].view(np.ndarray)
    pml._avg_label = avg_label
    pml._epoch = graph.epoch  # the basis restored graph + labels together
    return pml


def _context_over(
    basis: EngineBasis, arrays: Mapping[str, np.ndarray], pml: PrunedLandmarkLabeling
) -> EngineContext:
    return EngineContext(
        graph=pml.graph,
        oracle=pml,
        two_hop=arrays["two_hop"],
        cost_model=CostModel(**basis.cost_model),
    )


def context_from_basis(basis: EngineBasis) -> EngineContext:
    """Rebuild a full :class:`EngineContext` over a basis' buffers.

    The context is query-identical to the one the basis was extracted
    from: same arrays, same kernels, fresh counters.
    """
    arrays = basis.arrays
    pml = _index_over(StoredPML, _graph_of(basis, arrays), arrays, basis.avg_label)
    return _context_over(basis, arrays, pml)


def heap_context_from_basis(basis: EngineBasis) -> EngineContext:
    """Rebuild the patchable heap context a fresh preprocess would give.

    Every array is copied off the basis' buffers (a memmap page must not
    outlive its file, and :mod:`repro.updates` rewrites the CSR and the
    two-hop counts in place); the index keeps the copied label arrays as
    its frozen half and gets back the per-vertex lists it patches, split
    from the label CSR.  The cost model is the stored one: ``t_avg`` is
    not measured again.
    """
    arrays = {name: np.array(basis.arrays[name]) for name in ARRAY_NAMES}
    pml = _index_over(
        PrunedLandmarkLabeling, _graph_of(basis, arrays), arrays, basis.avg_label
    )
    bounds = arrays["pml_offsets"].tolist()
    spans = list(zip(bounds, bounds[1:]))
    # Boxed vertex by vertex: slicing two |labels|-long intermediate
    # lists instead costs twice as much, the collector walking both once
    # per generation the 2|V| small lists fill.
    ranks, dists = pml._label_ranks_arr, pml._label_dists_arr
    pml._label_ranks = [ranks[lo:hi].tolist() for lo, hi in spans]
    pml._label_dists = [dists[lo:hi].tolist() for lo, hi in spans]
    return _context_over(basis, arrays, pml)
