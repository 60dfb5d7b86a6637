"""Unified engine-basis storage: a basis lives on the heap or in one directory.

Everything expensive about a prepared engine — the CSR graph, the
finalized PML label arrays, the two-hop counts — is an immutable
:class:`~repro.storage.basis.EngineBasis`.  This package is the single
seam through which that basis is stored, shared, and reopened:

* :mod:`repro.storage.basis` — the basis value itself plus the only
  sanctioned conversions to/from a live
  :class:`~repro.core.context.EngineContext` (boomerlint rule R7
  enforces "only sanctioned": direct label-array plumbing outside this
  package is a lint violation);
* :mod:`repro.storage.backends` — :class:`BasisDirectory`, a basis a
  hosting process serves from one saved directory (read-only npy files,
  demand-paged — the one medium a basis crosses a process boundary
  through);
* :mod:`repro.storage.mmapstore` — the on-disk layout (npy per array +
  ``meta.json`` manifest, the commit mark of a save).

A stored index is its arrays: :class:`~repro.storage.basis.StoredPML`
reads label columns where they lie and keeps nothing between queries, so
nothing has a cache to size.  See ``docs/STORAGE.md`` for where a basis
lives and how a stored index is read.
"""

from repro.storage.backends import BACKEND_NAMES, BasisDirectory
from repro.storage.basis import (
    ARRAY_NAMES,
    EngineBasis,
    StoredPML,
    basis_from_context,
    context_from_basis,
    heap_context_from_basis,
)
from repro.storage.mmapstore import load_basis, read_meta, save_basis

__all__ = [
    "ARRAY_NAMES",
    "BACKEND_NAMES",
    "EngineBasis",
    "StoredPML",
    "basis_from_context",
    "context_from_basis",
    "heap_context_from_basis",
    "BasisDirectory",
    "save_basis",
    "load_basis",
    "read_meta",
]
