"""One way up: the configuration of a hosting process and the one door in.

Everything that differs between two ways of hosting the service is one
frozen :class:`ServeConfig`.  It travels whole from the caller (``repro
serve``, the soak harness, a benchmark, a test) through :func:`open_host`
to the :class:`~repro.service.manager.SessionManager` hosting sessions
under it.

:func:`open_host` is the only place the hosting policy is decided: a
``resident`` basis (:attr:`ServeConfig.basis_kind`) is the caller's heap
context as is; an ``mmap`` basis is opened here, once, as a
:class:`~repro.storage.BasisDirectory` — in place when ``storage_dir``
already holds this graph's basis (the dataset registry's cache entry, a
previous run), else saved once, into ``storage_dir`` or into a temp dir
it deletes.  ``close()`` on what is returned — the dispatch/drain/close
seam of :mod:`repro.service.dispatch` — releases it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import AdmissionError, StorageError
from repro.service.overload import OverloadPolicy
from repro.storage import BACKEND_NAMES, BasisDirectory, basis_from_context

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import EngineContext
    from repro.service.dispatch import LocalDispatcher

__all__ = ["ServeConfig", "open_host"]


@dataclass(frozen=True)
class ServeConfig:
    """How one process hosts sessions (immutable)."""

    #: Hard bound on concurrently open sessions.
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
    #: in memory, taken at eviction and drain only.
    checkpoint_dir: str | None = None
    #: Engine-basis storage, one of :data:`repro.storage.BACKEND_NAMES`.
    storage: str = "resident"
    #: Where a basis held as files lives (:attr:`basis_kind` ``mmap``); a
    #: directory already holding this graph's saved basis is opened in
    #: place, None is a private temp dir.
    storage_dir: str | None = None

    def __post_init__(self) -> None:
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
                "(--storage mmap)"
            )

    @property
    def basis_kind(self) -> str:
        """Where the host keeps the basis: ``mmap`` files or the
        ``resident`` heap (module docstring)."""
        return "mmap" if self.storage == "mmap" else "resident"


def open_host(ctx: "EngineContext", config: ServeConfig) -> "LocalDispatcher":
    """Bring the service up over ``ctx`` the way ``config`` says."""
    # Imported here: the manager imports this module for ServeConfig.
    from repro.service.dispatch import LocalDispatcher
    from repro.service.manager import SessionManager

    if config.basis_kind == "resident":
        return LocalDispatcher(SessionManager(ctx, config))
    basis = BasisDirectory(basis_from_context(ctx), config.storage_dir)
    return LocalDispatcher(SessionManager(basis.context(), config), basis=basis)
