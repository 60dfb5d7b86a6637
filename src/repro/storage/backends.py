"""The two interchangeable engine-basis backends and the worker attach.

========== ===================== ============================== =================
backend    medium                per-consumer cost              handle / spec
========== ===================== ============================== =================
resident   process heap          full copy (today's default)    none (one process)
mmap       read-only npy files   demand-paged by the kernel      MmapSpec
========== ===================== ============================== =================

Both expose :meth:`StorageBackend.context`, which builds a
query-identical :class:`~repro.core.context.EngineContext` over the
backend's buffers.  A basis crosses a process boundary as files and as
nothing else: :meth:`MmapBackend.spec` yields the small picklable
:class:`~repro.storage.mmapstore.MmapSpec` (a directory path) that
:mod:`repro.service.pool.worker` turns back into a context via
:func:`attach`, and the kernel page cache is what the processes share.

Byte identity across backends is load-bearing (the conformance suite
asserts it): checkpoint/restore, requeue-after-SIGKILL, and the SLO
gates all compare matches produced by different processes over the same
basis.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.core.context import EngineContext
from repro.errors import BasisFormatError, StaleIndexError, StorageError
from repro.storage.basis import EngineBasis, context_from_basis
from repro.storage.mmapstore import MmapSpec, load_basis, read_meta, save_basis

__all__ = [
    "BACKEND_NAMES",
    "StorageBackend",
    "ResidentBackend",
    "MmapBackend",
    "open_backend",
    "attach",
]

#: Valid ``--storage`` values, in documentation order.
BACKEND_NAMES = ("resident", "mmap")


class StorageBackend:
    """Common surface of the two backends (abstract).

    Subclasses own whatever medium holds the basis bytes; ``close()``
    releases it (idempotent).  ``spec()`` returns the picklable handle a
    spawned worker feeds to :func:`attach`; a backend without a
    cross-process story raises :class:`~repro.errors.StorageError`.
    """

    name = "abstract"

    def context(self) -> EngineContext:
        raise NotImplementedError

    def spec(self) -> MmapSpec:
        raise StorageError(
            f"the {self.name} backend has no cross-process handle; "
            "use the mmap backend for pool workers"
        )

    def close(self) -> None:
        """Release the medium (idempotent)."""


class ResidentBackend(StorageBackend):
    """Today's default: the basis arrays live on this process's heap."""

    name = "resident"

    def __init__(self, basis: EngineBasis) -> None:
        self.basis = basis

    def context(self) -> EngineContext:
        return context_from_basis(self.basis)


class MmapBackend(StorageBackend):
    """Basis on disk as npy files, opened read-only via ``numpy.memmap``.

    Nothing sits between a context and the files but the kernel page
    cache: queries fault in the pages they touch, and the process pins
    no copy of its own.

    ``owns_directory=True`` (set by :meth:`create` for anonymous temp
    bases) makes ``close()`` delete the directory.
    """

    name = "mmap"

    def __init__(self, directory: str | Path, owns_directory: bool = False) -> None:
        self.directory = Path(directory)
        self._owns_directory = owns_directory
        self.basis = load_basis(self.directory)

    @classmethod
    def create(
        cls, basis: EngineBasis, directory: str | Path | None = None
    ) -> "MmapBackend":
        """Save ``basis`` to ``directory`` (a fresh temp dir if None) and open it."""
        owns = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-basis-")
        save_basis(basis, directory)
        return cls(directory, owns_directory=owns)

    def context(self) -> EngineContext:
        return context_from_basis(self.basis)

    def spec(self) -> MmapSpec:
        return MmapSpec(
            directory=str(self.directory), graph_name=self.basis.graph_name
        )

    def close(self) -> None:
        if self._owns_directory and self.directory.exists():
            shutil.rmtree(self.directory, ignore_errors=True)
            self._owns_directory = False


def _holds_basis_for(directory: str | Path, basis: EngineBasis | None) -> bool:
    """True when ``directory`` holds a valid saved basis (for this graph).

    A directory holding the right graph at the *wrong epoch* is stale —
    its label arrays describe a graph that has since mutated — and is
    refused outright with :class:`~repro.errors.StaleIndexError` rather
    than silently reused (reuse would resurrect pre-mutation distances)
    or silently rewritten (the caller's basis may be memmapped from the
    very files a rewrite would truncate).
    """
    try:
        meta = read_meta(directory)
    except BasisFormatError:
        return False
    if basis is None:
        return True
    if meta.get("graph_name") != basis.graph_name:
        return False
    stored = int(meta.get("epoch", 0))
    if stored != basis.epoch:
        raise StaleIndexError(
            f"saved engine basis in {directory}",
            expected=basis.epoch,
            actual=stored,
        )
    return True


def open_backend(
    name: str,
    *,
    basis: EngineBasis | None = None,
    directory: str | Path | None = None,
) -> StorageBackend:
    """Open a backend by ``--storage`` name.

    ``basis`` is required for resident and for creating a fresh mmap
    basis; an mmap backend over an existing saved basis needs only
    ``directory``.

    When both are given and ``directory`` already holds a valid saved
    basis *for the same graph*, it is reused as-is (no rewrite).  Reuse
    matters twice: a named ``--storage-dir`` survives service restarts
    without a multi-gigabyte re-save, and when ``basis`` is itself
    memmapped from that very directory, re-saving would truncate the
    files its arrays are reading from.
    """
    if name not in BACKEND_NAMES:
        raise StorageError(
            f"unknown storage backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name == "mmap":
        if directory is not None and _holds_basis_for(directory, basis):
            return MmapBackend(directory)
        if basis is not None:
            return MmapBackend.create(basis, directory)
        if directory is None:
            raise StorageError("the mmap backend needs a basis or a directory")
        raise BasisFormatError(
            f"{directory} does not hold a saved engine basis and no basis "
            "was given to create one"
        )
    if basis is None:
        raise StorageError("the resident backend needs a basis")
    return ResidentBackend(basis)


def attach(spec: MmapSpec) -> EngineContext:
    """Open the saved basis ``spec`` points at as a context, in any process.

    What a pool worker calls: nothing was published per worker and
    nothing is held to release — the files are the shared medium.
    """
    if not isinstance(spec, MmapSpec):
        raise StorageError(f"unknown storage spec {type(spec).__name__}")
    return MmapBackend(spec.directory).context()
