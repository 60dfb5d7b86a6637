"""Cooperative cross-session Defer-to-Idle scheduling.

In the single-user system, Defer-to-Idle spends a session's leftover GUI
latency probing *its own* edge pool (Algorithm 10).  With many hosted
sessions that is wasteful: one user's engine sits idle inside a latency
window while another user's cheap edges wait in a pool.  The
:class:`IdleScheduler` generalizes the probe — every idle window is
*donated* to the scheduler, which spends it on pending CAP work across
all sessions:

1. the donor's own pool is probed first (preserving exact single-session
   DI behavior when the service hosts one session);
2. the remainder goes to other sessions' pools, cheapest-edge-fits-first
   among the sessions with the least service received so far (fair share,
   so a chatty session cannot starve a quiet one), one edge per pick so
   priorities are re-evaluated as candidate sets shrink.

Only *timing* moves between sessions — never correctness: by deferral
neutrality (ARCHITECTURE.md invariant 3), the CAP fixpoint and therefore
``V_Δ`` are independent of where and when pooled edges get processed.

Sessions being operated on by another thread are skipped via a
non-blocking lock probe, so donation never deadlocks with a concurrent
request on the beneficiary.

Restored sessions (:mod:`repro.service.checkpoint`) re-register here on
re-admission: their checkpoints carry no CAP entries, so the scheduler
is what rebuilds their deferred work *warm*, inside whatever idle
windows the traffic donates next — deferral neutrality again guarantees
the rebuilt fixpoint, and hence ``V_Δ``, is the one the session would
have reached uninterrupted.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.obs.clock import now
from repro.obs.metrics import metrics
from repro.utils.timing import TimeBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.session import ManagedSession

__all__ = ["IdleScheduler"]

#: Safety margin on a cost estimate before it is believed to fit the
#: remaining window (estimates are optimistic; the budget still hard-stops
#: overdraw at the next probe iteration).
_FIT_MARGIN = 1.0


class IdleScheduler:
    """Fair-share multiplexer of donated idle time over session pools."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, "ManagedSession"] = {}
        self.donations = 0
        self.donated_seconds = 0.0
        self.cross_session_seconds = 0.0
        self.cross_session_edges = 0

    # -- registry --------------------------------------------------------
    def register(self, session: "ManagedSession") -> None:
        """Make ``session`` eligible to receive donated idle time."""
        with self._lock:
            self._sessions[session.id] = session

    def unregister(self, session_id: str) -> None:
        """Remove a closed/evicted session from scheduling."""
        with self._lock:
            self._sessions.pop(session_id, None)

    # -- the donation path ----------------------------------------------
    def donate(self, donor: "ManagedSession", idle_seconds: float) -> float:
        """Spend ``donor``'s idle window across all pools; returns the
        compute seconds spent on the *donor's own* engine.

        Only the donor-local share is returned because only it advances
        the donor's virtual ``busy_until``; cross-session work happens on
        other engines and is accounted on the beneficiaries
        (``serviced_seconds``/``serviced_edges``).
        """
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

        budget = TimeBudget(idle_seconds)
        # 1. Donor first: identical to plain DI when alone (caller already
        #    holds the donor's lock).
        own_spent = donor.boomer.probe_idle(idle_seconds)

        # 2. Remainder to the least-serviced sessions, one edge per pick.
        skip = {donor.id}
        while not budget.exhausted:
            target = self._pick(budget.remaining(), skip=skip)
            if target is None:
                break
            if not target.lock.acquire(blocking=False):
                # Busy serving its own request; it needs no charity now.
                skip.add(target.id)
                continue
            try:
                start = now()
                try:
                    processed = target.boomer.engine.probe_one(budget.remaining())
                except Exception:
                    # The target's failure is not the donor's: the edge is
                    # back in the target's pool, and the target meets it
                    # again at its own Run.
                    metrics.counter(
                        "repro_idle_cross_session_failures_total",
                        "donated edges that failed and went back to their pool",
                    ).inc()
                    skip.add(target.id)
                    continue
                spent = now() - start
                if processed == 0:
                    # Its cheapest edge no longer fits this window; another
                    # session's might, so only this target is retired.
                    skip.add(target.id)
                    continue
                target.serviced_seconds += spent
                target.serviced_edges += processed
                with self._lock:
                    self.cross_session_seconds += spent
                    self.cross_session_edges += processed
                metrics.counter(
                    "repro_idle_cross_session_edges_total",
                    "pooled edges processed with another session's idle time",
                ).inc(processed)
            finally:
                target.lock.release()
        return own_spent

    def _edge_cost(self, session: "ManagedSession") -> float:
        engine = session.boomer.engine
        cost = engine.pool.cheapest_cost(engine.cap, engine.cost_model)
        return cost if cost is not None else 0.0

    def _pick(
        self, remaining: float, skip: set[str]
    ) -> "ManagedSession | None":
        """Least-serviced session whose cheapest pooled edge fits."""
        with self._lock:
            candidates = [
                s
                for s in self._sessions.values()
                if s.id not in skip and s.state == "formulating"
            ]
        best: "ManagedSession | None" = None
        best_key: tuple[float, int, str] | None = None
        for session in candidates:
            engine = session.boomer.engine
            if not engine.pool:
                continue
            cost = self._edge_cost(session)
            if cost > remaining * _FIT_MARGIN:
                continue
            # Fairness first, then cheapest work, then stable id order so
            # scheduling (and hence stats) is deterministic under tests.
            key = (session.serviced_seconds, session.serviced_edges, session.id)
            if best_key is None or key < best_key:
                best, best_key = session, key
        return best

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Scheduler-level counters for the wire ``stats`` op."""
        with self._lock:
            return {
                "registered_sessions": len(self._sessions),
                "donations": self.donations,
                "donated_seconds": self.donated_seconds,
                "cross_session_seconds": self.cross_session_seconds,
                "cross_session_edges": self.cross_session_edges,
            }
