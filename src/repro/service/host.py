"""One way up: the configuration of a hosting process and the one door in.

Everything that differs between two ways of hosting the service is one
frozen :class:`ServeConfig`.  It travels whole from the caller (``repro
serve``, the soak harness, a benchmark, a test) through :func:`open_host`
to every :class:`~repro.service.manager.SessionManager` hosting sessions
under it, pool workers included (it is picklable, spawn-shipped as is).

:func:`open_host` is the only place the hosting policy is decided:

* ``workers > 0`` selects the worker pool, else the threaded manager;
* a pool cannot share heap arrays and a basis crosses a process boundary
  as files only, so any ``workers > 0`` means ``mmap``
  (:attr:`ServeConfig.basis_kind`);
* an ``mmap`` basis is opened here, once, for either hosting mode, as a
  :class:`~repro.storage.BasisDirectory`: in place when ``storage_dir``
  already holds this graph's basis (the dataset registry's cache entry,
  a previous run), else saved once — into ``storage_dir``, or into a
  temp dir it deletes; ``close()`` on what is returned — the
  dispatch/drain/close seam of :mod:`repro.service.dispatch` — releases
  it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AdmissionError, StorageError, WorkerPoolError
from repro.service.overload import OverloadPolicy
from repro.storage import BACKEND_NAMES, BasisDirectory, basis_from_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import EngineContext
    from repro.service.dispatch import LocalDispatcher
    from repro.service.pool.dispatcher import PoolDispatcher

__all__ = ["ServeConfig", "open_host"]


@dataclass(frozen=True)
class ServeConfig:
    """How one process (or fleet) hosts sessions (immutable, picklable)."""

    #: Worker processes sharing the basis; 0 is the in-process threaded path.
    workers: int = 0
    #: Hard bound on concurrently open sessions (a pool splits it evenly).
    max_sessions: int = 64
    #: Total CAP entries across sessions before LRU eviction (None = no bound).
    cap_entry_budget: int | None = 1_000_000
    #: Wall-clock budget of every hosted session's Run phase (None =
    #: unbounded); a Run past it answers ``deadline_exceeded``.
    deadline_seconds: float | None = None
    #: Watermark backpressure; None disables shedding (hard budgets and
    #: :class:`~repro.errors.AdmissionError` still apply).
    overload: OverloadPolicy | None = None
    #: Write-through checkpoints land here after every mutating op, so a
    #: session survives the death of its process; None keeps checkpoints
    #: in memory, taken at eviction and drain only (a pool, whose workers
    #: can die alone, makes itself a private temp dir instead).
    checkpoint_dir: str | None = None
    #: Engine-basis storage, one of :data:`repro.storage.BACKEND_NAMES`.
    storage: str = "resident"
    #: Where a basis held as files lives (:attr:`basis_kind` ``mmap``); a
    #: directory already holding this graph's saved basis is opened in
    #: place, None is a private temp dir.
    storage_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise WorkerPoolError("workers must be >= 0")
        if self.max_sessions < 1:
            raise AdmissionError("max_sessions must be at least 1")
        if self.storage not in BACKEND_NAMES:
            raise StorageError(
                f"unknown storage backend {self.storage!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        if self.storage_dir and self.basis_kind != "mmap":
            raise StorageError(
                "--storage-dir only applies to a basis held as files "
                "(--storage mmap, or any --workers N)"
            )

    @property
    def basis_kind(self) -> str:
        """Where the host keeps the basis: ``mmap`` files or the
        ``resident`` heap (module docstring)."""
        return "mmap" if self.storage == "mmap" or self.workers > 0 else "resident"


def open_host(
    ctx: "EngineContext", config: ServeConfig
) -> "LocalDispatcher | PoolDispatcher":
    """Bring the service up over ``ctx`` the way ``config`` says."""
    # Imported here: the manager and the pool import this module for
    # ServeConfig.
    from repro.service.dispatch import LocalDispatcher
    from repro.service.manager import SessionManager
    from repro.service.pool.dispatcher import PoolDispatcher

    if config.basis_kind == "resident":
        return LocalDispatcher(SessionManager(ctx, config))
    basis = BasisDirectory(basis_from_context(ctx), config.storage_dir)
    if config.workers > 0:
        return PoolDispatcher(basis, config)
    return LocalDispatcher(SessionManager(basis.context(), config), basis=basis)
