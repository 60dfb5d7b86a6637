"""The three interchangeable engine-basis backends and the attach dispatch.

========== ===================== ============================== =================
backend    medium                per-consumer cost              handle / spec
========== ===================== ============================== =================
resident   process heap          full copy (today's default)    the basis itself
shm        SharedMemory segments page tables only               SharedContextSpec
mmap       read-only npy files   demand-paged by the kernel      MmapSpec
========== ===================== ============================== =================

All three expose the same two operations: :meth:`StorageBackend.context`
builds a query-identical :class:`~repro.core.context.EngineContext` over
the backend's buffers, and :meth:`StorageBackend.spec` yields the small
picklable handle a pool worker turns back into a context via
:func:`attach` — the single dispatch point
:mod:`repro.service.pool.worker` calls regardless of transport.

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
from repro.storage.shm import (
    SharedContextSpec,
    attach_basis,
    publish_basis,
    unlink_segments,
)

__all__ = [
    "BACKEND_NAMES",
    "StorageBackend",
    "ResidentBackend",
    "ShmBackend",
    "MmapBackend",
    "open_backend",
    "attach",
]

#: Valid ``--storage`` values, in documentation order.
BACKEND_NAMES = ("resident", "shm", "mmap")


class StorageBackend:
    """Common surface of the three backends (abstract).

    Subclasses own whatever medium holds the basis bytes; ``close()``
    releases it (idempotent).  ``spec()`` returns the picklable handle a
    spawned worker feeds to :func:`attach`; backends without a
    cross-process story raise :class:`~repro.errors.StorageError`.
    """

    name = "abstract"

    def context(self) -> EngineContext:
        raise NotImplementedError

    def spec(self) -> SharedContextSpec | MmapSpec:
        raise StorageError(
            f"the {self.name} backend has no cross-process handle; "
            "use the shm or mmap backend for pool workers"
        )

    def segment_names(self) -> list[str]:
        """Shared-memory segments owned by this backend (leak checks)."""
        return []

    def close(self) -> None:
        """Release the medium (idempotent)."""


class ResidentBackend(StorageBackend):
    """Today's default: the basis arrays live on this process's heap."""

    name = "resident"

    def __init__(self, basis: EngineBasis) -> None:
        self.basis = basis

    def context(self) -> EngineContext:
        return context_from_basis(self.basis)


class ShmBackend(StorageBackend):
    """Basis published into shared memory; consumers attach zero-copy.

    Publishing copies each array once (into the segments); this process
    owns them and must stay alive for attachers.  ``close()`` unlinks.
    """

    name = "shm"

    def __init__(self, basis: EngineBasis) -> None:
        self._spec, self._segments = publish_basis(basis)
        # The publisher's own contexts attach like everyone else's —
        # one storage path, no publisher special case.
        self._attached: list = []

    def context(self) -> EngineContext:
        basis, handles = attach_basis(self._spec)
        self._attached.extend(handles)
        return context_from_basis(basis)

    def spec(self) -> SharedContextSpec:
        return self._spec

    def segment_names(self) -> list[str]:
        return self._spec.segment_names()

    def close(self) -> None:
        for shm in self._attached:
            try:
                shm.close()
            except OSError:
                pass
        self._attached.clear()
        unlink_segments(self._segments)
        self._segments = []


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

    ``basis`` is required for resident/shm and for creating a fresh mmap
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
        raise StorageError(f"the {name} backend needs a basis")
    if name == "shm":
        return ShmBackend(basis)
    return ResidentBackend(basis)


def attach(spec: SharedContextSpec | MmapSpec) -> tuple[EngineContext, list]:
    """Turn a backend spec back into a context, in any process.

    The single dispatch point pool workers call: a
    :class:`~repro.storage.shm.SharedContextSpec` attaches the published
    segments (returned handles must be kept alive and ``close()``-d at
    exit); an :class:`~repro.storage.mmapstore.MmapSpec` opens the
    on-disk basis (no handles — the kernel page cache is the shared
    medium).
    """
    if isinstance(spec, SharedContextSpec):
        basis, handles = attach_basis(spec)
        return context_from_basis(basis), handles
    if isinstance(spec, MmapSpec):
        return MmapBackend(spec.directory).context(), []
    raise StorageError(f"unknown storage spec {type(spec).__name__}")
