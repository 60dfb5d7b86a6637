"""Runtime lock-order race detector (a miniature lockdep).

The multi-session service takes locks at three levels — the manager
lock, per-session locks, the scheduler lock — and a deadlock needs no
actual collision to be latent in the code: it only needs two code paths
that *can* take the same pair of locks in opposite orders.  This module
catches that statically-invisible hazard dynamically, the way the Linux
kernel's lockdep does:

* every instrumented lock is tagged with its **allocation site**
  (``manager.py:110``) — the class of lock, not the instance, because an
  inversion between *any* two sessions' locks is the same bug;
* each thread tracks the locks it currently holds; a successful
  **blocking** acquisition of ``B`` while holding ``A`` records the
  directed edge ``site(A) -> site(B)``;
* a cycle in that graph is a lock-order inversion, reported immediately
  with the witnessing edge and thread — no deadlock, timeout, or lucky
  schedule required.

Non-blocking acquisitions (``acquire(blocking=False)``) record no edge:
a trylock cannot deadlock, and the scheduler's donation path relies on
exactly that to touch beneficiary sessions safely.  Reentrant
acquisitions of an :class:`MonitoredRLock` the thread already owns are
likewise edge-free.

Use :func:`patch_locks` to instrument everything a code region creates::

    monitor = LockOrderMonitor()
    with patch_locks(monitor):
        manager = SessionManager(ctx)   # its locks are now monitored
        ... run the concurrency test ...
    monitor.assert_clean()              # raises LockOrderViolationError

(The test suite runs the service concurrency tests under this monitor
when ``REPRO_LOCK_MONITOR=1`` — the CI ``lint-invariants`` job's second
half.)
"""

from __future__ import annotations

import os.path
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import LockOrderViolationError

__all__ = [
    "Inversion",
    "LockOrderMonitor",
    "MonitoredLock",
    "MonitoredRLock",
    "patch_locks",
]

# Captured at import so wrappers keep working while threading.Lock/RLock
# are patched to produce wrappers (no infinite recursion).
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_THIS_FILE = os.path.abspath(__file__)
_THREADING_FILE = os.path.abspath(threading.__file__)


def _call_site() -> str:
    """``file.py:line`` of the nearest frame outside this module/threading."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = os.path.abspath(frame.f_code.co_filename)
        if filename not in (_THIS_FILE, _THREADING_FILE):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


@dataclass(frozen=True)
class Inversion:
    """One detected lock-order cycle."""

    #: The allocation sites forming the cycle, starting and ending at the
    #: same site (``("a.py:1", "b.py:2", "a.py:1")``).
    cycle: tuple[str, ...]
    #: The edge whose insertion closed the cycle.
    edge: tuple[str, str]
    #: Name of the thread that closed it.
    thread: str

    def describe(self) -> str:
        chain = " -> ".join(self.cycle)
        return (
            f"lock-order inversion: acquiring {self.edge[1]} while holding "
            f"{self.edge[0]} (thread {self.thread!r}) closes the cycle {chain}"
        )


class LockOrderMonitor:
    """Records per-thread acquisition graphs and flags order cycles."""

    def __init__(self) -> None:
        self._state_lock = _REAL_LOCK()
        self._edges: dict[str, set[str]] = {}
        self._inversions: list[Inversion] = []
        self._local = threading.local()
        self.locks_created = 0
        self.acquisitions = 0

    # -- per-thread held stack -------------------------------------------
    def _held(self) -> list:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def held_sites(self) -> tuple[str, ...]:
        """Sites of the locks the calling thread currently holds."""
        return tuple(site for _, site in self._held())

    # -- wrapper callbacks -----------------------------------------------
    def note_created(self) -> None:
        with self._state_lock:
            self.locks_created += 1

    def note_acquired(self, lock: object, site: str, blocking: bool) -> None:
        """Called by a wrapper after a successful first-entry acquisition."""
        held = self._held()
        if blocking:
            with self._state_lock:
                self.acquisitions += 1
                for _, held_site in held:
                    self._add_edge(held_site, site)
        held.append((lock, site))

    def note_released(self, lock: object) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] is lock:
                del held[i]
                return

    # -- the order graph (caller holds _state_lock) ----------------------
    def _add_edge(self, a: str, b: str) -> None:
        if a == b:
            # Two locks from the same allocation site taken while one is
            # already held (e.g. two sessions' locks): order within the
            # class is undefined, which IS the inversion.
            self._inversions.append(
                Inversion(
                    cycle=(a, b),
                    edge=(a, b),
                    thread=threading.current_thread().name,
                )
            )
            return
        successors = self._edges.setdefault(a, set())
        if b in successors:
            return  # known-consistent order, nothing new to check
        successors.add(b)
        path = self._find_path(b, a)
        if path is not None:
            self._inversions.append(
                Inversion(
                    cycle=tuple(path) + (b,),
                    edge=(a, b),
                    thread=threading.current_thread().name,
                )
            )

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """BFS path ``start -> ... -> goal`` over recorded edges."""
        if start == goal:
            return [start]
        parents: dict[str, str] = {}
        frontier = [start]
        seen = {start}
        while frontier:
            nxt: list[str] = []
            for node in frontier:
                for succ in self._edges.get(node, ()):
                    if succ in seen:
                        continue
                    parents[succ] = node
                    if succ == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        return list(reversed(path))
                    seen.add(succ)
                    nxt.append(succ)
            frontier = nxt
        return None

    # -- reporting --------------------------------------------------------
    def inversions(self) -> list[Inversion]:
        """Every inversion recorded so far."""
        with self._state_lock:
            return list(self._inversions)

    def edges(self) -> dict[str, set[str]]:
        """A copy of the site-order graph (for diagnostics/tests)."""
        with self._state_lock:
            return {a: set(bs) for a, bs in self._edges.items()}

    def assert_clean(self) -> None:
        """Raise :class:`LockOrderViolationError` if any cycle was seen."""
        found = self.inversions()
        if found:
            raise LockOrderViolationError(
                "; ".join(inv.describe() for inv in found), inversions=found
            )


class MonitoredLock:
    """Drop-in :func:`threading.Lock` recording order edges on acquire."""

    def __init__(self, monitor: LockOrderMonitor, name: str | None = None) -> None:
        self._monitor = monitor
        self._inner = _REAL_LOCK()
        self.site = name or _call_site()
        monitor.note_created()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            # Timed acquires cannot hang forever; treat like blocking
            # anyway — the *order* hazard they witness is real.
            self._monitor.note_acquired(self, self.site, blocking)
        return ok

    def release(self) -> None:
        self._monitor.note_released(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MonitoredLock site={self.site} locked={self.locked()}>"


class MonitoredRLock:
    """Drop-in :func:`threading.RLock`; reentry records no edges.

    Implements the private ``_is_owned``/``_release_save``/
    ``_acquire_restore`` trio so :class:`threading.Condition` built on a
    monitored lock (directly or via the patched factory) works unchanged,
    and ``_recursion_count`` for the standard library's other caller.
    """

    def __init__(self, monitor: LockOrderMonitor, name: str | None = None) -> None:
        self._monitor = monitor
        self._inner = _REAL_RLOCK()
        self.site = name or _call_site()
        self._owner: int | None = None
        self._count = 0
        monitor.note_created()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            ident = threading.get_ident()
            if self._owner == ident:
                self._count += 1  # reentrant: no new edge
            else:
                self._owner = ident
                self._count = 1
                self._monitor.note_acquired(self, self.site, blocking)
        return ok

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError("cannot release un-acquired lock")
        if self._count == 1:
            self._owner = None
            self._count = 0
            self._monitor.note_released(self)
        else:
            self._count -= 1
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- Condition-variable protocol -------------------------------------
    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self):
        count = self._count
        self._owner = None
        self._count = 0
        self._monitor.note_released(self)
        return (count, self._inner._release_save())

    def _acquire_restore(self, state) -> None:
        count, inner_state = state
        self._inner._acquire_restore(inner_state)
        self._owner = threading.get_ident()
        self._count = count
        self._monitor.note_acquired(self, self.site, blocking=True)

    def _recursion_count(self) -> int:
        # multiprocessing.resource_tracker guards its own reentry with
        # this; its lock is made on first import, which a spawn inside
        # ``patch_locks`` can be.
        return self._count if self._is_owned() else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MonitoredRLock site={self.site} count={self._count}>"


@contextmanager
def patch_locks(monitor: LockOrderMonitor) -> Iterator[LockOrderMonitor]:
    """Instrument every lock created while the context is active.

    Swaps the ``threading.Lock``/``threading.RLock`` factories for ones
    returning monitored wrappers tagged with their allocation site.
    Locks created *before* entry (module-level registries, the pytest
    machinery) stay raw — instrumentation follows object creation, which
    is exactly the scope a test controls.
    """
    originals = (threading.Lock, threading.RLock)

    def make_lock() -> MonitoredLock:
        return MonitoredLock(monitor)

    def make_rlock() -> MonitoredRLock:
        return MonitoredRLock(monitor)

    threading.Lock = make_lock  # type: ignore[assignment]
    threading.RLock = make_rlock  # type: ignore[assignment]
    try:
        yield monitor
    finally:
        threading.Lock, threading.RLock = originals  # type: ignore[assignment]
