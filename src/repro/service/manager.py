"""The session host: admission, accounting, eviction, dispatch.

One :class:`SessionManager` owns one immutable engine basis — data graph,
shared PML oracle, two-hop counts, cost model — and hosts many
:class:`~repro.service.session.ManagedSession`\\ s over it.  Contexts are
cheap per-session shells (fresh counters over shared indexes), so the
expensive preprocessing is paid once per process, not once per user.

Resource model
--------------
The retained state of a session is its CAP index (candidates + AIVS
pairs) plus its pooled edges; :meth:`ManagedSession.cap_entries` counts
exactly that.  The manager enforces two budgets:

* ``max_sessions`` — a hard bound on concurrently open sessions;
* ``cap_entry_budget`` — a bound on total CAP entries across sessions.

When either would be exceeded, the manager evicts **idle** sessions in
LRU order (least-recently-touched first; a session being operated on is
never idle — idleness is a non-blocking lock probe, not a wall-clock
timer, so behavior is deterministic).  If nothing evictable remains, the
request is refused with :class:`~repro.errors.AdmissionError` — the
service degrades by shedding load, never by swapping.

Evicted ids are remembered (bounded) so clients get the distinct
:class:`~repro.errors.SessionEvictedError` — "recreate and replay" — and
not a confusing "no such session".

Threading
---------
A manager-level lock guards the session table and LRU bookkeeping only;
engine compute runs under the *per-session* lock, so different sessions'
requests execute genuinely concurrently (the shared oracle is read-only
or internally locked — see :mod:`repro.indexing.oracle`).
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from repro.core.actions import Action
from repro.core.blender import ActionReport, RunResult
from repro.core.context import EngineContext
from repro.core.enumerate import PartialMatches
from repro.errors import (
    AdmissionError,
    CheckpointError,
    GraphMutationError,
    SessionEvictedError,
    SessionNotFoundError,
)
from repro.obs.metrics import metrics
from repro.service.checkpoint import (
    CheckpointStore,
    checkpoint_session as _capture_checkpoint,
    restore_session as _rebuild_from_checkpoint,
)
from repro.service.host import ServeConfig
from repro.service.overload import OverloadPolicy
from repro.service.scheduler import IdleScheduler
from repro.service.session import ManagedSession, SessionLimits
from repro.updates import UpdateReport, delete_edge, insert_edge

__all__ = ["SessionManager", "ManagerStats", "DRAIN_TIMEOUT"]

#: Seconds a drain waits for in-flight requests to retire before it
#: checkpoints the idle sessions and reports the rest as busy.
DRAIN_TIMEOUT = 5.0


@dataclass
class ManagerStats:
    """Counters the service exposes on the wire ``stats`` op."""

    sessions_created: int = 0
    sessions_closed: int = 0
    sessions_evicted: int = 0
    admission_rejections: int = 0
    requests_shed: int = 0
    sessions_checkpointed: int = 0
    sessions_restored: int = 0
    runs_completed: int = 0
    runs_failed: int = 0
    updates_applied: int = 0
    eviction_log: list[str] = field(default_factory=list)

    def snapshot(self) -> dict[str, object]:
        out: dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "eviction_log"
        }
        out["recent_evictions"] = self.eviction_log[-16:]
        return out


class SessionManager:
    """Hosts concurrent :class:`ManagedSession`\\ s over one shared context."""

    def __init__(
        self,
        base_ctx: EngineContext,
        config: ServeConfig | None = None,
    ) -> None:
        self.base_ctx = base_ctx
        #: Budgets, the Run deadline, backpressure and the
        #: checkpoint directory (see :class:`~repro.service.host.ServeConfig`).
        self.config = config = config or ServeConfig()
        #: Verdict builder for drain refusals even when shedding is off.
        self._shed_policy = config.overload or OverloadPolicy()
        self.checkpoints = CheckpointStore(directory=config.checkpoint_dir)
        #: Write-through mode: with a checkpoint directory, checkpoint
        #: after every successful mutating op, so a killed host process
        #: loses at most the request it was servicing (which the client
        #: retries).
        self._write_through_on = config.checkpoint_dir is not None
        self.scheduler = IdleScheduler()
        self.stats_counters = ManagerStats()
        self._lock = threading.RLock()
        #: Signalled whenever an in-flight request retires (drain waits).
        self._idle_cv = threading.Condition(self._lock)
        self._inflight = 0
        self._draining = False
        self._sessions: dict[str, ManagedSession] = {}
        self._evicted: dict[str, str] = {}  # id -> reason (bounded)
        self._id_counter = itertools.count(1)
        self._touch_counter = itertools.count(1)

    # -- backpressure ------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` ran; new work is refused."""
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently dispatched into engine work."""
        with self._lock:
            return self._inflight

    def _shed(self, reason: str, detail: str, admission: bool = False) -> None:
        """Refuse work with the typed retryable verdict (and count it).

        ``admission=True`` marks sheds that refused a *session admission*
        (create/restore past a watermark): those also count as
        ``admission_rejections``, so overload refusals no longer bypass
        the admission counter and read 0 under load.
        """
        self.stats_counters.requests_shed += 1
        metrics.counter(
            "repro_requests_shed_total",
            "requests refused by backpressure",
            reason=reason,
        ).inc()
        if admission:
            self._count_admission_rejection()
        raise self._shed_policy.shed(reason, detail)

    def _count_admission_rejection(self) -> None:
        self.stats_counters.admission_rejections += 1
        metrics.counter(
            "repro_admission_rejections_total",
            "session creations refused for lack of budget",
        ).inc()

    @contextmanager
    def _track_request(self, mutating: bool = True):
        """Count one dispatched request; shed at the door when over load.

        Mutating verbs (create/action/run/restore) shed while draining
        and past the queue-depth watermark; read-only verbs (results,
        matches, trace) always pass — clients must be able to collect
        answers from a server that is backing off or going away — but
        still count as in-flight so drain waits for them.
        """
        with self._lock:
            if mutating:
                if self._draining:
                    self._shed("draining", "server is draining for shutdown")
                overload = self.config.overload
                limit = overload.max_inflight if overload is not None else None
                if limit is not None and self._inflight >= limit:
                    self._shed(
                        "queue",
                        f"{self._inflight} requests in flight (limit {limit})",
                    )
            self._inflight += 1
        try:
            yield
        finally:
            with self._lock:
                self._inflight -= 1
                self._idle_cv.notify_all()

    # -- lifecycle -------------------------------------------------------
    def create_session(self, strategy: str | None = None) -> ManagedSession:
        """Admit a new session (evicting idle LRU sessions if needed).

        ``strategy`` defaults to DI; a name
        :func:`~repro.core.strategies.make_strategy` does not know raises
        :class:`ValueError` before anything is admitted.  The session's Run
        takes the host's :attr:`ServeConfig.deadline_seconds`.  With an
        :class:`OverloadPolicy` set, admissions past the session
        or CAP watermarks first try to reclaim idle sessions (which now
        checkpoints them) and, failing that, *shed* with the retryable
        :class:`~repro.errors.ServiceOverloadedError` — the hard
        :class:`~repro.errors.AdmissionError` is reserved for a budget
        that is exhausted outright.
        """
        limits = SessionLimits() if strategy is None else SessionLimits(strategy)

        def new_session() -> ManagedSession:
            # A fresh id never names a checkpoint the store holds: a host
            # restarted over a checkpoint directory counts from 1 again,
            # and handing out a stored id would overwrite that session's
            # checkpoint and answer its restore with a stranger's session.
            session_id = f"s{next(self._id_counter)}"
            while session_id in self._sessions or session_id in self.checkpoints:
                session_id = f"s{next(self._id_counter)}"
            return ManagedSession(
                session_id,
                self.base_ctx,
                limits,
                self.config.deadline_seconds,
            )

        with self._track_request(), self._lock:
            session = self._admit(
                new_session, self._refuse_create, shed_at_watermarks=True
            )
            self.stats_counters.sessions_created += 1
            metrics.counter(
                "repro_sessions_created_total", "sessions admitted"
            ).inc()
        if self._write_through_on:
            with session.lock:
                self._write_through(session)
        return session

    def _refuse_create(self) -> None:
        self._count_admission_rejection()
        raise AdmissionError(
            f"session budget exhausted ({self.config.max_sessions} open, "
            "none evictable)"
        )

    def _admit(self, build, refuse, shed_at_watermarks: bool = False) -> ManagedSession:
        """Admit one session under the budgets (caller holds the manager lock).

        A full table first loses its least-recently-touched idle session;
        when nothing idle could go, ``refuse`` raises the caller's
        verdict.  A new session is additionally shed past the overload
        watermarks; a restored one was admitted once already and is not.
        ``build`` then yields the session to register.
        """
        max_sessions = self.config.max_sessions
        if len(self._sessions) >= max_sessions:
            self._evict_lru(need_sessions=1, reason="session budget", active=None)
        if len(self._sessions) >= max_sessions:
            refuse()
        if shed_at_watermarks and self.config.overload is not None:
            self._shed_past_watermarks(self.config.overload)
        session = build()
        session.touch_seq = next(self._touch_counter)
        self._sessions[session.id] = session
        self._evicted.pop(session.id, None)
        self.scheduler.register(session)
        self._note_open_sessions()
        return session

    def _shed_past_watermarks(self, overload: OverloadPolicy) -> None:
        """Reclaim idle sessions down to the session and CAP watermarks,
        or shed the admission (caller holds the manager lock)."""
        max_sessions, cap_budget = self.config.max_sessions, self.config.cap_entry_budget
        threshold = overload.session_threshold(max_sessions)
        if len(self._sessions) >= threshold:
            self._evict_lru(
                need_sessions=len(self._sessions) - threshold + 1,
                reason="session watermark",
                active=None,
            )
        if len(self._sessions) >= threshold:
            self._shed(
                "sessions",
                f"{len(self._sessions)} open sessions "
                f"(watermark {threshold}/{max_sessions})",
                admission=True,
            )
        cap_threshold = overload.cap_threshold(cap_budget)
        if cap_threshold is not None:
            in_use = self.total_cap_entries()
            if in_use >= cap_threshold:
                self._evict_lru(
                    need_entries=in_use - cap_threshold + 1,
                    reason="CAP watermark",
                    active=None,
                )
                in_use = self.total_cap_entries()
            if in_use >= cap_threshold:
                self._shed(
                    "cap",
                    f"{in_use} CAP entries in use "
                    f"(watermark {cap_threshold}/{cap_budget})",
                    admission=True,
                )

    def _note_open_sessions(self) -> None:
        metrics.gauge(
            "repro_sessions_open", "currently hosted sessions"
        ).set(len(self._sessions))

    def close_session(self, session_id: str) -> None:
        """Client-initiated teardown; frees the session's budget share."""
        session = self.get(session_id)
        with session.lock:
            session.close()
        if self._write_through_on:
            # An explicitly closed session must not come back from disk.
            self.checkpoints.pop(session_id)
        with self._lock:
            self._sessions.pop(session_id, None)
            self.scheduler.unregister(session_id)
            self.stats_counters.sessions_closed += 1
            self._note_open_sessions()

    def get(self, session_id: str) -> ManagedSession:
        """Look up a live session; typed errors for evicted vs unknown."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                return session
            reason = self._evicted.get(session_id)
        # Tell the client whether restore-by-id can still work or it must
        # fall back to recreate-and-replay.
        restorable = self.checkpoints.get(session_id) is not None
        if reason is None and not restorable:
            raise SessionNotFoundError(session_id)
        # Unknown to *this* process, but a disk checkpoint exists: the id
        # belonged to a manager that died or was restarted over the same
        # checkpoint directory.  Evicted-and-restorable is the truthful
        # verdict; the client's auto-restore path then resumes it
        # transparently.
        error = SessionEvictedError(session_id, reason or "process restart")
        error.restorable = restorable
        raise error

    # -- request dispatch ------------------------------------------------
    def apply_action(self, session_id: str, action: Action) -> ActionReport:
        """Apply one formulation action; idle time goes to the scheduler."""
        with self._track_request():
            session = self.get(session_id)
            with session.lock:
                self._touch(session)
                report = session.apply(
                    action,
                    idle_sink=lambda idle: self.scheduler.donate(session, idle),
                )
                self._write_through(session)
            self._enforce_cap_budget(active=session_id)
            return report

    def run(self, session_id: str) -> RunResult:
        """Execute the session's Run click."""
        with self._track_request():
            session = self.get(session_id)
            with session.lock:
                self._touch(session)
                try:
                    result = session.run()
                except Exception:
                    with self._lock:
                        self.stats_counters.runs_failed += 1
                    raise
                self._write_through(session)
            with self._lock:
                self.stats_counters.runs_completed += 1
            self._enforce_cap_budget(active=session_id)
            return result

    def apply_update(
        self, kind: str, u: int, v: int, timeout: float | None = 30.0
    ) -> UpdateReport:
        """Apply one data-graph edge update under a quiet window.

        Graph mutation is the one operation that touches the *shared*
        basis every session reads, so it runs alone: this request counts
        itself in flight (shedding applies while draining, like any
        mutating verb), then waits on the idle condition until it is the
        only in-flight request.  In-flight runs therefore finish on the
        old epoch; requests arriving during the mutation queue behind
        the manager lock and see the new one.  If the service does not
        go quiet within ``timeout`` seconds the update is refused with
        the retryable overload verdict — a busy service sheds updates
        rather than stalling them indefinitely.

        The mutation itself is :mod:`repro.updates` orchestration —
        epoch bump, incremental PML patch (insert) or decremental
        repair (delete), two-hop repair, distance-cache invalidation —
        so a refusal (:class:`~repro.errors.GraphMutationError`,
        :class:`~repro.errors.StaleIndexError` for stored bases) leaves
        graph and indexes exactly as they were.
        """
        apply_one = {"insert": insert_edge, "delete": delete_edge}.get(kind)
        if apply_one is None:
            raise GraphMutationError(f"unknown update kind {kind!r}")
        with self._track_request():
            with self._idle_cv:
                quiet = self._idle_cv.wait_for(
                    lambda: self._inflight == 1, timeout=timeout
                )
                if not quiet:
                    self._shed(
                        "update",
                        f"{self._inflight - 1} requests still in flight "
                        f"after waiting {timeout}s for a quiet window",
                    )
                report = apply_one(self.base_ctx, int(u), int(v))
                self.stats_counters.updates_applied += 1
            return report

    def _read(self, session_id: str, read):
        """Run one read-only verb on a session, under its lock."""
        with self._track_request(mutating=False):
            session = self.get(session_id)
            with session.lock:
                self._touch(session)
                return read(session)

    def results(self, session_id: str, limit: int | None = None):
        """Validated result subgraphs of a completed session."""
        return self._read(session_id, lambda s: s.results(limit=limit))

    def matches(self, session_id: str) -> PartialMatches:
        """Raw ``V_Δ`` of a completed session."""
        return self._read(session_id, ManagedSession.matches)

    def trace(self, session_id: str, include_open: bool = True) -> dict[str, object]:
        """One session's span timeline (the wire ``trace`` verb)."""
        return self._read(
            session_id, lambda s: s.trace_export(include_open=include_open)
        )

    # -- accounting / eviction -------------------------------------------
    def _touch(self, session: ManagedSession) -> None:
        with self._lock:
            session.touch_seq = next(self._touch_counter)

    def total_cap_entries(self) -> int:
        """Live CAP entries across all hosted sessions (best effort).

        Sessions mid-request are sized without their lock; a torn read can
        only skew the *stat* for one enforcement round, never corrupt the
        CAP itself, so a failed concurrent size walk counts as zero rather
        than stalling accounting behind engine compute.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        total = 0
        for session in sessions:
            try:
                total += session.cap_entries()
            except RuntimeError:  # a CAP dict grew mid-walk on its own thread
                continue
        return total

    def _enforce_cap_budget(self, active: str | None) -> None:
        """Evict idle LRU sessions until the CAP-entry budget holds.

        ``active`` (the session servicing the current request) is never
        evicted; a single session legitimately larger than the whole
        budget is allowed to finish — load shedding targets *other*
        tenants' retained state, not the request in flight.
        """
        budget = self.config.cap_entry_budget
        if budget is None:
            return
        with self._lock:
            if self.total_cap_entries() <= budget:
                return
            overshoot = self.total_cap_entries() - budget
            self._evict_lru(
                need_entries=overshoot, reason="CAP budget", active=active
            )

    def _evict_lru(
        self,
        reason: str,
        active: str | None,
        need_sessions: int = 0,
        need_entries: int = 0,
    ) -> None:
        """Reclaim idle sessions, least-recently-touched first.

        Caller holds the manager lock.  Stops once the requested headroom
        (session slots and/or CAP entries) is reclaimed or nothing idle
        remains.
        """
        freed_sessions = 0
        freed_entries = 0
        for session in sorted(self._sessions.values(), key=lambda s: s.touch_seq):
            if freed_sessions >= need_sessions and freed_entries >= need_entries:
                break
            if session.id == active or not session.evictable:
                continue
            freed_entries += session.cap_entries()
            freed_sessions += 1
            self._checkpoint_quietly(session, reason)
            session.close()
            self._retire(session, reason)
            self.stats_counters.sessions_evicted += 1
            self.stats_counters.eviction_log.append(
                f"{session.id}: {reason}"
            )
            metrics.counter(
                "repro_sessions_evicted_total",
                "idle sessions reclaimed by budget enforcement",
                reason=reason.replace(" ", "_"),
            ).inc()

    def _retire(self, session: ManagedSession, reason: str) -> None:
        """Drop a closed session from the table and remember why, so its
        id answers ``session_evicted`` (caller holds the manager lock;
        the memory of retired ids is bounded)."""
        self._sessions.pop(session.id, None)
        self.scheduler.unregister(session.id)
        if len(self._evicted) >= 1024:
            self._evicted.pop(next(iter(self._evicted)))
        self._evicted[session.id] = reason
        self._note_open_sessions()

    # -- checkpoint / restore --------------------------------------------
    def _checkpoint_quietly(self, session: ManagedSession, reason: str) -> bool:
        """Best-effort capture before reclaiming ``session``; True if taken.

        Terminal sessions (failed/closed) cannot round-trip; they evict
        exactly as before this layer existed.  Capture reads bookkeeping
        only — no engine compute — so it is safe under the manager lock.
        """
        try:
            checkpoint = _capture_checkpoint(session, reason)
        except CheckpointError:
            return False
        self.checkpoints.put(checkpoint)
        self.stats_counters.sessions_checkpointed += 1
        metrics.counter(
            "repro_sessions_checkpointed_total",
            "sessions checkpointed at eviction or drain",
        ).inc()
        return True

    def _write_through(self, session: ManagedSession) -> None:
        """With a checkpoint directory, checkpoint after a successful
        mutating op (caller holds the session lock).

        The capture happens *after* the op applied, so a crash mid-op
        leaves the previous checkpoint intact — the failed request is not
        in it, and the client's retry against the restored session is
        exactly-once.  Terminal states simply skip (same contract as
        eviction capture).
        """
        if not self._write_through_on:
            return
        try:
            checkpoint = _capture_checkpoint(session, "write-through")
        except CheckpointError:
            return
        self.checkpoints.put(checkpoint)
        metrics.counter(
            "repro_checkpoint_writethrough_total",
            "write-through checkpoints taken after mutating ops",
        ).inc()

    def restore_session(self, session_id: str) -> ManagedSession:
        """Resume an evicted/drained session by id from its checkpoint.

        Replays the checkpointed action log on a fresh engine **outside**
        the manager lock (replay is engine compute), then re-admits the
        session under its original id.  Deferral neutrality guarantees
        the resumed session's subsequent matches are byte-identical to
        the uninterrupted original.
        """
        with self._track_request():
            with self._lock:
                existing = self._sessions.get(session_id)
                if existing is not None:
                    return existing  # restore raced another client: done
                # Written through, the stored checkpoint is the session's
                # only durable copy: it stays where it is until the
                # re-arm below overwrites it, so a process killed
                # mid-restore loses the request, never the session.
                store = self.checkpoints
                take = store.get if self._write_through_on else store.pop
                checkpoint = take(session_id)
                if checkpoint is None:
                    if session_id in self._evicted:
                        raise SessionEvictedError(
                            session_id,
                            f"{self._evicted[session_id]}; checkpoint expired",
                        )
                    raise SessionNotFoundError(session_id)
            try:
                session = _rebuild_from_checkpoint(
                    checkpoint, self.base_ctx, self.config.deadline_seconds
                )
            except CheckpointError:
                self.checkpoints.put(checkpoint)  # leave it restorable
                raise

            def refuse() -> None:
                self.checkpoints.put(checkpoint)  # leave it restorable
                self._shed(
                    "sessions",
                    f"no session slot free to restore {session_id!r}",
                    admission=True,
                )

            with self._lock:
                existing = self._sessions.get(session_id)
                if existing is not None:
                    return existing  # a concurrent restore of this id won
                self._admit(lambda: session, refuse)
                self.stats_counters.sessions_restored += 1
                metrics.counter(
                    "repro_sessions_restored_total",
                    "sessions resumed from a checkpoint",
                ).inc()
            if self._write_through_on:
                # ``pop`` consumed the stored checkpoint; re-arm so the
                # restored session survives another process death even
                # if no further mutation ever lands.
                with session.lock:
                    self._write_through(session)
            self._enforce_cap_budget(active=session_id)
            return session

    # -- drain -----------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting mutating work; in-flight requests keep running."""
        with self._lock:
            self._draining = True

    def end_drain(self) -> None:
        """Re-open admission (a restarted server reusing this manager)."""
        with self._lock:
            self._draining = False

    def drain(self, timeout: float | None = DRAIN_TIMEOUT) -> dict[str, object]:
        """Graceful drain: refuse new work, wait out in-flight requests,
        checkpoint every idle session instead of dropping it.

        In-flight runs are not interrupted — they complete (or hit their
        own Run deadline)
        and retire through :meth:`_track_request`, which signals the
        condition this method waits on.  Returns a summary of what was
        checkpointed and what (if anything) was still busy at timeout.
        """
        self.begin_drain()
        with self._idle_cv:
            self._idle_cv.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )
            remaining = self._inflight
            sessions = sorted(
                self._sessions.values(), key=lambda s: s.touch_seq
            )
        checkpointed: list[str] = []
        skipped: list[str] = []
        for session in sessions:
            if not session.lock.acquire(blocking=False):
                skipped.append(session.id)  # still busy past timeout
                continue
            try:
                captured = self._checkpoint_quietly(session, "drain")
                session.close()
            finally:
                session.lock.release()
            with self._lock:
                self._retire(session, "drain")
                if captured:
                    checkpointed.append(session.id)
            metrics.counter(
                "repro_sessions_drained_total",
                "sessions checkpointed and closed by drain",
            ).inc()
        return {
            "checkpointed": checkpointed,
            "busy": skipped,
            "inflight_at_timeout": remaining,
        }

    # -- introspection ---------------------------------------------------
    def session_ids(self) -> list[str]:
        """Ids of currently hosted sessions."""
        with self._lock:
            return list(self._sessions)

    def stats(self) -> dict[str, object]:
        """Service-level statistics (wire ``stats`` op without a session)."""
        with self._lock:
            open_sessions = len(self._sessions)
            inflight = self._inflight
            draining = self._draining
        oracle, overload = self.base_ctx.oracle, self.config.overload
        out: dict[str, object] = {
            "open_sessions": open_sessions,
            "max_sessions": self.config.max_sessions,
            "cap_entry_budget": self.config.cap_entry_budget,
            "cap_entries_in_use": self.total_cap_entries(),
            "inflight": inflight,
            "draining": draining,
            "overload": None if overload is None else {
                "session_watermark": overload.session_watermark,
                "cap_watermark": overload.cap_watermark,
                "max_inflight": overload.max_inflight,
                "retry_after_ms": overload.retry_after_ms,
            },
            "checkpoints": self.checkpoints.stats(),
            "graph": {
                "name": self.base_ctx.graph.name,
                "num_vertices": self.base_ctx.graph.num_vertices,
                "num_edges": self.base_ctx.graph.num_edges,
                "epoch": self.base_ctx.graph.epoch,
            },
            "scheduler": self.scheduler.stats(),
            **self.stats_counters.snapshot(),
        }
        count = getattr(oracle, "query_count", None)
        if count is not None:
            out["oracle_query_count"] = count
        return out
