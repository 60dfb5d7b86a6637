"""On-disk engine-basis layout: one npy file per array plus a manifest.

A saved basis is a directory::

    <dir>/meta.json           # format version, graph name, scalars,
                              # per-array dtype/shape, finalized flag;
                              # the commit mark
    <dir>/labels.pkl          # per-vertex label list (arbitrary hashables)
    <dir>/graph_offsets.npy   # ... one npy per ARRAY_NAMES entry
    <dir>/graph_neighbors.npy
    <dir>/pml_offsets.npy
    <dir>/pml_ranks.npy
    <dir>/pml_dists.npy
    <dir>/pml_order.npy
    <dir>/two_hop.npy

:func:`save_basis` makes ``meta.json`` the commit mark: a manifest
already there is unlinked before the first array is touched, every
array file and the label list reach the disk, and the new manifest is
renamed into place last — so a save interrupted anywhere, over an empty
directory or over another basis, leaves a directory that
:func:`read_meta` refuses, never a mix of arrays under a manifest that
validates.  :func:`load_basis` opens every array with
``np.load(mmap_mode="r")`` — nothing is read into memory until a page is
touched, which is the whole point: a paper-scale basis opens in
milliseconds and the OS pages in only what queries actually visit.

``meta.json`` records ``"finalized": true`` — the arrays on disk *are*
the frozen PML label CSR, and an attaching process reads them as they
lie (:class:`repro.storage.basis.StoredPML`); a manifest without the
flag is outside input we refuse.

:class:`MmapSpec` is the picklable handle pool workers receive: just the
directory path.  Every worker opens the same files; the page cache is
shared by the kernel, not by us.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import BasisFormatError
from repro.storage.basis import ARRAY_NAMES, EngineBasis
from repro.utils.files import flush_to_disk, write_atomic

__all__ = [
    "FORMAT_VERSION",
    "MmapSpec",
    "save_basis",
    "load_basis",
    "read_meta",
]

#: Bump on any incompatible change to the directory layout.
FORMAT_VERSION = 1

_META = "meta.json"
_LABELS = "labels.pkl"


@dataclass(frozen=True)
class MmapSpec:
    """Picklable pointer to an on-disk basis (what pool workers attach).

    There is nothing to publish or unlink per worker — the directory is
    the shared medium and the kernel page cache deduplicates residency
    across processes.
    """

    directory: str
    graph_name: str


def save_basis(basis: EngineBasis, directory: str | Path) -> Path:
    """Write ``basis`` to ``directory`` (created if needed); returns it.

    Arrays are written with :func:`np.save` (plain npy, no pickle) and
    the label list with pickle (labels are arbitrary hashables).
    ``meta.json`` is the commit mark (module docstring): withdrawn
    first, written last, and only over files that are already on disk.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / _META).unlink(missing_ok=True)
    dtypes: dict[str, dict] = {}
    for name in ARRAY_NAMES:
        arr = np.ascontiguousarray(basis.arrays[name])
        with open(path / f"{name}.npy", "wb") as fh:
            np.save(fh, arr, allow_pickle=False)
            flush_to_disk(fh)
        dtypes[name] = {"dtype": str(arr.dtype), "shape": list(arr.shape)}
    with open(path / _LABELS, "wb") as fh:
        pickle.dump(list(basis.labels), fh, protocol=pickle.HIGHEST_PROTOCOL)
        flush_to_disk(fh)
    meta = {
        "format_version": FORMAT_VERSION,
        **basis.scalars(),
        "finalized": True,
        "arrays": dtypes,
        "nbytes": basis.nbytes(),
    }
    write_atomic(path / _META, json.dumps(meta, indent=2, sort_keys=True))
    return path


def read_meta(directory: str | Path) -> dict:
    """The parsed ``meta.json`` of a saved basis (validated)."""
    path = Path(directory)
    meta_path = path / _META
    if not meta_path.is_file():
        raise BasisFormatError(
            f"{path} is not a saved engine basis (no {_META}; "
            "was save_basis interrupted?)"
        )
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BasisFormatError(f"unreadable basis manifest {meta_path}: {exc}") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise BasisFormatError(
            f"basis format version {version!r} in {path} is not the "
            f"supported version {FORMAT_VERSION}"
        )
    if not meta.get("finalized", False):
        raise BasisFormatError(
            f"basis in {path} is not marked finalized; refusing to attach "
            "non-frozen label arrays read-only"
        )
    return meta


def load_basis(directory: str | Path) -> EngineBasis:
    """Open a saved basis with every array memory-mapped read-only.

    Validates the manifest (format version, finalized flag, per-array
    dtype/shape) before touching any array file; raises
    :class:`~repro.errors.BasisFormatError` on mismatch.
    """
    path = Path(directory)
    meta = read_meta(path)
    arrays: dict[str, np.ndarray] = {}
    for name in ARRAY_NAMES:
        npy = path / f"{name}.npy"
        if not npy.is_file():
            raise BasisFormatError(f"basis in {path} is missing {npy.name}")
        try:
            arr = np.load(npy, mmap_mode="r", allow_pickle=False)
        except (OSError, ValueError) as exc:  # truncated or not an npy file
            raise BasisFormatError(f"unreadable array file {npy}: {exc}") from exc
        want = meta["arrays"].get(name, {})
        if str(arr.dtype) != want.get("dtype") or list(arr.shape) != want.get("shape"):
            raise BasisFormatError(
                f"{npy.name}: on-disk {arr.dtype}{arr.shape} does not match "
                f"manifest {want.get('dtype')}{tuple(want.get('shape', ()))}"
            )
        arrays[name] = arr
    try:
        with open(path / _LABELS, "rb") as fh:
            labels = pickle.load(fh)
    except (OSError, EOFError, pickle.UnpicklingError) as exc:
        raise BasisFormatError(f"unreadable label list in {path}: {exc}") from exc
    # A scalar an older writer did not record keeps its default (epoch 0);
    # a key no field answers to any more ("batch_enabled") is ignored.
    scalars = {
        name: meta[name] for name in EngineBasis.scalar_names() if name in meta
    }
    try:
        return EngineBasis(labels=tuple(labels), arrays=arrays, **scalars)
    except TypeError as exc:  # a scalar without a default is missing
        raise BasisFormatError(f"incomplete basis manifest in {path}: {exc}") from exc
