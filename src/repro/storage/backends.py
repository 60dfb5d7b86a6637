"""A hosted basis is one directory: :class:`BasisDirectory`.

A basis lives either on the heap (a live context,
:func:`~repro.storage.basis.context_from_basis` of a basis value) or in
one saved basis directory (:mod:`repro.storage.mmapstore`), read through
``numpy.memmap``.  :class:`BasisDirectory` is the second: a hosting
process (:func:`repro.service.host.open_host`) opens it once, serves
:meth:`BasisDirectory.context` from it, and hands pool workers nothing
but its path — each opens the files itself with
``context_from_basis(load_basis(path))``, and the kernel page cache is
what the processes share.

Byte identity between the heap and the directory is load-bearing (the
conformance suite asserts it): checkpoint/restore, requeue-after-SIGKILL,
and the SLO gates all compare matches produced by different processes
over the same basis.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from repro.core.context import EngineContext
from repro.errors import BasisFormatError, StaleIndexError
from repro.storage.basis import EngineBasis, context_from_basis
from repro.storage.mmapstore import load_basis, save_basis

__all__ = ["BACKEND_NAMES", "BasisDirectory"]

#: Valid ``--storage`` values, in documentation order.
BACKEND_NAMES = ("resident", "mmap")

#: What a saved basis must hold, beyond its name and epoch, to be this
#: graph's: the CSR itself (the vertex labels are compared too).
_GRAPH_ARRAYS = ("graph_offsets", "graph_neighbors")


class BasisDirectory:
    """``basis`` as a saved basis directory, opened read-only via memmap.

    ``directory`` already holding this graph's basis is opened in place
    and nothing is written; any other directory is saved over; None
    saves into a fresh temp dir, which :meth:`close` deletes.  Reuse
    matters twice: a named ``--storage-dir`` survives service restarts
    without a multi-gigabyte re-save, and when ``basis`` is itself
    memmapped from that very directory, re-saving would truncate the
    files its arrays are reading from.
    """

    def __init__(self, basis: EngineBasis, directory: str | Path | None = None) -> None:
        self._owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-basis-")
        self.directory = Path(directory)
        saved = None if self._owns_directory else _saved_basis_of(self.directory, basis)
        if saved is None:
            save_basis(basis, self.directory)
            saved = load_basis(self.directory)
        self.basis = saved

    def context(self) -> EngineContext:
        return context_from_basis(self.basis)

    def close(self) -> None:
        """Delete the directory if this object made it (idempotent)."""
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)
            self._owns_directory = False


def _saved_basis_of(directory: Path, basis: EngineBasis) -> EngineBasis | None:
    """The basis saved in ``directory`` when it is ``basis``' graph, else None.

    Graph name and epoch alone do not identify a graph (generator graphs
    share names), so the CSR arrays and vertex labels must match too.  A
    directory holding the right graph at the *wrong epoch* is stale — its
    label arrays describe a graph that has since mutated — and is refused
    outright with :class:`~repro.errors.StaleIndexError` rather than
    silently reused (reuse would resurrect pre-mutation distances) or
    silently rewritten (the caller's basis may be memmapped from the very
    files a rewrite would truncate).
    """
    try:
        saved = load_basis(directory)
    except BasisFormatError:
        return None
    if saved.graph_name != basis.graph_name:
        return None
    if saved.epoch != basis.epoch:
        raise StaleIndexError(
            f"saved engine basis in {directory}",
            expected=basis.epoch,
            actual=saved.epoch,
        )
    if saved.labels != basis.labels or not saved.equal_bytes(basis, _GRAPH_ARRAYS):
        return None
    return saved
