"""Defer-to-Idle for hosted sessions: each idle window probes its own pool.

In the single-user system, Defer-to-Idle spends a session's leftover GUI
latency probing *its own* edge pool (Algorithm 10).  A hosted session
does exactly that: every idle window it reports is *donated* to the
manager's :class:`IdleScheduler`, which counts the donation and calls
the donor's :meth:`~repro.core.blender.Boomer.probe_idle` (the caller
already holds the donor's lock).  No window is spent on another
session's pool, so a session's CAP progress depends on its own script
alone.

Restored sessions (:mod:`repro.service.checkpoint`) carry no CAP
entries; their pooled edges are rebuilt by their own idle windows or
their Run, and deferral neutrality (ARCHITECTURE.md invariant 3)
guarantees the rebuilt fixpoint, and hence ``V_Δ``, is the one the
session would have reached uninterrupted.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.obs.metrics import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.session import ManagedSession

__all__ = ["IdleScheduler"]


class IdleScheduler:
    """Counts donated idle windows and spends each on its donor's pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.donations = 0
        self.donated_seconds = 0.0

    def donate(self, donor: "ManagedSession", idle_seconds: float) -> float:
        """Probe ``donor``'s own pool for ``idle_seconds`` (Algorithm 10);
        returns the compute seconds spent, which advance the donor's
        virtual ``busy_until``."""
        if idle_seconds <= 0.0:
            return 0.0
        with self._lock:
            self.donations += 1
            self.donated_seconds += idle_seconds
        donor.donated_idle_seconds += idle_seconds
        metrics.counter(
            "repro_idle_donated_seconds_total",
            "GUI-latency idle seconds donated to the scheduler",
        ).inc(idle_seconds)
        return donor.boomer.probe_idle(idle_seconds)

    def stats(self) -> dict[str, object]:
        """Scheduler-level counters for the wire ``stats`` op."""
        with self._lock:
            return {
                "donations": self.donations,
                "donated_seconds": self.donated_seconds,
                # Always 0 since no window serves another session's pool;
                # kept because perf/run.py reads the key.
                "cross_session_edges": 0,
            }
