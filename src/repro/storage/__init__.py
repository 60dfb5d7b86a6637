"""Unified engine-basis storage: one API, two interchangeable backends.

Everything expensive about a prepared engine — the CSR graph, the
finalized PML label arrays, the two-hop counts — is an immutable
:class:`~repro.storage.basis.EngineBasis`.  This package is the single
seam through which that basis is stored, transported, and reopened:

* :mod:`repro.storage.basis` — the basis value itself plus the only
  sanctioned conversions to/from a live
  :class:`~repro.core.context.EngineContext` (boomerlint rule R7
  enforces "only sanctioned": direct label-array plumbing outside this
  package is a lint violation);
* :mod:`repro.storage.backends` — ``resident`` (heap arrays, one
  process) and ``mmap`` (read-only npy files, demand-paged — the one
  medium a basis crosses a process boundary through);
* :mod:`repro.storage.mmapstore` — the on-disk layout (npy per array +
  ``meta.json`` manifest, the commit mark of a save).

A stored index is its arrays: :class:`~repro.storage.basis.StoredPML`
reads label columns where they lie and keeps nothing between queries, so
no backend has a cache to size.  See ``docs/STORAGE.md`` for the backend
matrix and how a stored index is read.
"""

from repro.storage.backends import (
    BACKEND_NAMES,
    MmapBackend,
    ResidentBackend,
    StorageBackend,
    attach,
    open_backend,
)
from repro.storage.basis import (
    ARRAY_NAMES,
    EngineBasis,
    StoredPML,
    basis_from_context,
    context_from_basis,
    heap_context_from_basis,
)
from repro.storage.mmapstore import (
    MmapSpec,
    load_basis,
    read_meta,
    save_basis,
)

__all__ = [
    "ARRAY_NAMES",
    "BACKEND_NAMES",
    "EngineBasis",
    "StoredPML",
    "basis_from_context",
    "context_from_basis",
    "heap_context_from_basis",
    "StorageBackend",
    "ResidentBackend",
    "MmapBackend",
    "open_backend",
    "attach",
    "MmapSpec",
    "save_basis",
    "load_basis",
    "read_meta",
]
