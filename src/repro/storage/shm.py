"""Shared-memory engine-basis transport over ``multiprocessing.shared_memory``.

The shm backend moves an :class:`~repro.storage.basis.EngineBasis`
across a process boundary with zero copies on the consumer side: the
publisher copies each array once into a named ``SharedMemory`` segment
and hands attachers a small picklable :class:`SharedContextSpec`
(segment names + dtypes + shapes + the by-value leftovers).  Attaching
costs page-table entries, not bytes, so per-worker memory for the basis
is ~zero regardless of worker count.

Two deliberate asymmetries:

* **Ownership.** Only the publisher unlinks.  Attaching processes must
  also tell *their* ``resource_tracker`` to forget the segment —
  CPython registers every ``SharedMemory(name=...)`` attach for
  leak-tracking and would otherwise *destroy* the shared segments when
  the first worker exits, yanking the graph out from under its siblings
  (bpo-39959).
* **Specs travel by value, arrays by name.** The per-vertex label list,
  graph name, and cost-model constants ride the spawn pickle; the seven
  basis arrays ride the segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import StorageError
from repro.storage.basis import ARRAY_NAMES, EngineBasis

__all__ = [
    "SharedContextSpec",
    "publish_basis",
    "attach_basis",
    "unlink_segments",
]


@dataclass(frozen=True)
class _ArraySpec:
    """One published array: where it lives and how to view it."""

    segment: str
    dtype: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class SharedContextSpec:
    """Everything an attacher needs to rebuild the basis, picklable.

    The arrays travel by *name* (shared segments); the per-vertex label
    list and the basis' :meth:`~repro.storage.basis.EngineBasis.scalars`
    (graph name, cost-model constants, epoch, ...) travel by value in the
    spawn pickle.
    """

    labels: tuple
    scalars: dict[str, Any]
    arrays: dict[str, _ArraySpec] = field(default_factory=dict)

    @property
    def graph_name(self) -> str:
        return self.scalars["graph_name"]

    def segment_names(self) -> list[str]:
        return [spec.segment for spec in self.arrays.values()]


# --------------------------------------------------------------------------
# Publish (owner side)
# --------------------------------------------------------------------------
def _publish_array(
    arr: np.ndarray, segments: list[shared_memory.SharedMemory]
) -> _ArraySpec:
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    segments.append(shm)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return _ArraySpec(segment=shm.name, dtype=str(arr.dtype), shape=arr.shape)


def publish_basis(
    basis: EngineBasis,
) -> tuple[SharedContextSpec, list[shared_memory.SharedMemory]]:
    """Publish a basis into shared memory; returns (spec, owned segments).

    The caller owns the returned segments: keep them referenced for the
    consumers' lifetime, then :func:`unlink_segments` exactly once.
    """
    segments: list[shared_memory.SharedMemory] = []
    try:
        arrays = {
            name: _publish_array(basis.arrays[name], segments)
            for name in ARRAY_NAMES
        }
    except Exception:
        unlink_segments(segments)
        raise
    spec = SharedContextSpec(
        labels=basis.labels, scalars=basis.scalars(), arrays=arrays
    )
    return spec, segments


def unlink_segments(segments: list[shared_memory.SharedMemory]) -> None:
    """Close and destroy published segments (publisher side, idempotent)."""
    for shm in segments:
        try:
            shm.close()
        except OSError:
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


# --------------------------------------------------------------------------
# Attach (consumer side)
# --------------------------------------------------------------------------
def _attach_array(
    spec: _ArraySpec, attached: list[shared_memory.SharedMemory]
) -> np.ndarray:
    # CPython registers every attach with the resource_tracker, which the
    # spawned workers *share* with the publisher — so a worker's attach
    # registration (and the automatic cleanup it implies) would fight the
    # publisher's ownership: the tracker would unlink segments while
    # siblings still map them, or double-book the name (bpo-39959).
    # Suppress registration for the attach: only the publisher owns the
    # segment's lifetime.
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=spec.segment)
    finally:
        resource_tracker.register = original_register
    attached.append(shm)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view


def attach_basis(
    spec: SharedContextSpec,
) -> tuple[EngineBasis, list[shared_memory.SharedMemory]]:
    """Rebuild the basis over the published segments, zero-copy.

    Returns the basis plus the attached handles — the caller must keep
    them referenced as long as the basis (or any context built from it)
    lives, and ``close()`` (never ``unlink()``) them at exit.
    """
    if not isinstance(spec, SharedContextSpec):
        raise StorageError(
            f"attach_basis expects a SharedContextSpec, got {type(spec).__name__}"
        )
    attached: list[shared_memory.SharedMemory] = []
    try:
        views = {
            name: _attach_array(arr_spec, attached)
            for name, arr_spec in spec.arrays.items()
        }
    except Exception:
        for shm in attached:
            try:
                shm.close()
            except OSError:
                pass
        raise
    basis = EngineBasis(labels=tuple(spec.labels), arrays=views, **spec.scalars)
    return basis, attached
