"""One hosted formulation session inside the multi-session service.

:class:`ManagedSession` is to the service what
:class:`~repro.gui.session.VisualSession` is to the experiment harness —
the difference is *tempo*: the harness replays a complete action list in
one call, while a hosted session receives actions one wire request at a
time and must keep its hybrid virtual timeline
(:class:`~repro.gui.session.TimelineState`) alive between requests.

Each session owns a private :class:`~repro.core.blender.Boomer` built over
a per-session :class:`~repro.core.context.EngineContext` whose *immutable*
parts (graph, oracle, two-hop counts, cost model) are shared with every
other session in the process; only the counters are private.  The
session's idle windows are donated to the manager's
:class:`~repro.service.scheduler.IdleScheduler`, which counts them and
spends each on this session's own pooled edges (Algorithm 10).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.actions import Action, Run
from repro.core.blender import ActionReport, Boomer, RunResult
from repro.core.context import EngineContext, EngineCounters
from repro.core.enumerate import PartialMatches
from repro.core.strategies import make_strategy
from repro.errors import ActionError, SessionError
from repro.gui.session import TimelineState
from repro.obs import export as obs_export
from repro.obs.trace import Tracer

__all__ = ["ManagedSession", "SessionLimits", "MAX_RESULTS"]

#: Closed spans a session's ring buffer keeps before the oldest drop.
TRACE_RING_SPANS = 8192

#: Cap on a hosted session's ``V_Δ`` enumeration; a Run past it reports
#: ``truncated``.
MAX_RESULTS = 10_000


@dataclass(frozen=True)
class SessionLimits:
    """What a client chooses when it creates a session: the strategy.

    Everything else is the same for every hosted session: CAP pruning
    on, enumeration capped at :data:`MAX_RESULTS`, the host's Run
    deadline, and a span timeline always recorded (the wire ``trace``
    verb) — hosted sessions are exactly where operators need the Fig.-7
    decomposition, and the ring buffer bounds the cost.
    """

    strategy: str = "DI"

    def __post_init__(self) -> None:
        make_strategy(self.strategy)  # ValueError for a name it does not know


class ManagedSession:
    """One concurrent visual session hosted by the :class:`SessionManager`.

    All public methods must be called with :attr:`lock` held (the manager
    does this); the lock is exposed so the manager can *try* to acquire
    it without blocking when it drains or evicts (:attr:`evictable`).

    Lifecycle: ``formulating`` → (``ran`` | ``failed``) → ``closed``.
    A ``failed`` session (blown deadline, an engine error in Run) is
    terminal: the underlying engine refuses further actions, so the wire
    layer reports the state and the client starts a new session.
    """

    def __init__(
        self,
        session_id: str,
        base_ctx: EngineContext,
        limits: SessionLimits | None = None,
        deadline_seconds: float | None = None,
    ) -> None:
        self.id = session_id
        self.limits = limits or SessionLimits()
        #: Immutable engine parts shared process-wide; counters private.
        self.ctx = replace(base_ctx, counters=EngineCounters())
        #: Span recorder.  Writers always hold :attr:`lock`, which is the
        #: tracer's whole thread-safety story — including the idle probes
        #: the session's actions donate.
        self.tracer = Tracer(capacity=TRACE_RING_SPANS)
        self.boomer = Boomer(
            self.ctx,
            strategy=self.limits.strategy,
            max_results=MAX_RESULTS,
            auto_idle=False,
            deadline_seconds=deadline_seconds,
            tracer=self.tracer,
        )
        self.timeline = TimelineState()
        #: Plain (non-reentrant) lock on purpose: "is anyone operating on
        #: this session" is probed with a non-blocking acquire, and a
        #: reentrant lock would let a thread judge its *own* session idle.
        #: No code path acquires it twice on one thread.
        self.lock = threading.Lock()
        self.state = "formulating"
        self.actions_applied = 0
        #: Successfully applied non-Run actions, in order — the replay
        #: script a checkpoint captures (see repro.service.checkpoint).
        self.action_log: list[Action] = []
        #: True when this session was rebuilt from a checkpoint.
        self.restored = False
        #: Backlog charged to the SRT at the Run click (set by run()).
        self.backlog_seconds = 0.0
        #: Idle seconds this session donated to the scheduler.
        self.donated_idle_seconds = 0.0
        #: LRU stamp, assigned by the manager on every touch.
        self.touch_seq = 0

    # -- formulation -----------------------------------------------------
    def apply(
        self,
        action: Action,
        idle_sink: Callable[[float], float] | None = None,
    ) -> ActionReport:
        """Apply one non-Run action on the session's virtual timeline."""
        if isinstance(action, Run):
            raise ActionError("use run() for the Run action")
        self._require_open()
        if self.state != "formulating":
            raise ActionError(
                f"session {self.id} already executed; results are read-only"
            )
        try:
            report = self.timeline.step(self.boomer, action, idle_sink=idle_sink)
        except Exception:
            if self.boomer.engine.phase == "run":  # terminal failed-Run state
                self.state = "failed"
            raise
        self.actions_applied += 1
        self.action_log.append(action)
        return report

    def run(self) -> RunResult:
        """The Run click: drain + enumerate; moves the session to ``ran``."""
        self._require_open()
        if self.state != "formulating":
            raise ActionError(f"session {self.id} already executed")
        self.backlog_seconds = self.timeline.backlog_seconds
        try:
            self.boomer.apply(Run())
        except Exception:
            self.state = "failed"
            raise
        self.actions_applied += 1
        self.state = "ran"
        return self.boomer.run_result

    # -- results ---------------------------------------------------------
    @property
    def run_result(self) -> RunResult:
        """The Run outcome; raises until :meth:`run` succeeded."""
        result = self.boomer.run_result
        if result is None:
            raise SessionError(f"session {self.id} has not executed Run yet")
        return result

    def matches(self) -> PartialMatches:
        """Raw ``V_Δ`` (upper-bound matches) of a completed Run."""
        return self.run_result.matches

    def results(self, limit: int | None = None):
        """Fully validated result subgraphs (lower bounds checked JIT)."""
        self._require_open()
        return self.boomer.results(limit=limit)

    # -- accounting ------------------------------------------------------
    def cap_entries(self) -> int:
        """Memory footprint proxy: live CAP entries + pooled edges.

        Counts candidates and AIVS pairs (Lemma 5.2 accounting) — the
        quantities that actually grow with session size — so the manager's
        budget tracks real retained state, not Python object overhead.
        """
        return self.boomer.cap.size_report().total + len(self.boomer.engine.pool)

    @property
    def evictable(self) -> bool:
        """May the manager reclaim this session right now?

        Only sessions nobody is operating on (lock free) can go; the lock
        probe is how "idle" is defined — there are no wall-clock timers in
        the service, which keeps tests and replays deterministic.
        """
        if self.state == "closed":
            return True
        acquired = self.lock.acquire(blocking=False)
        if acquired:
            self.lock.release()
        return acquired

    def close(self) -> None:
        """Release the session's retained state."""
        self.state = "closed"
        # Balance the trace even when the client walked away mid-
        # formulation: whatever is still open closes here, so a trace
        # pulled before teardown never shows orphaned spans.
        self.tracer.finish()
        self.boomer.engine.pool.clear()

    def trace_export(self, include_open: bool = True) -> dict[str, object]:
        """The session's span timeline (wire ``trace`` verb payload).

        Spans, their aggregate summary, and the Fig.-7 SRT decomposition
        are all derived from the same records a caller receives, so
        everything in the payload is reproducible client-side.
        """
        spans = self.tracer.export(include_open=include_open)
        return {
            "session": self.id,
            "enabled": self.tracer.enabled,
            "spans": spans,
            "summary": obs_export.summarize(spans),
            "decomposition": obs_export.srt_decomposition(spans),
            "started": self.tracer.started,
            "dropped": self.tracer.dropped,
        }

    def _require_open(self) -> None:
        if self.state == "closed":
            raise SessionError(f"session {self.id} is closed")

    # -- introspection ---------------------------------------------------
    def stats(self) -> dict[str, object]:
        """Wire-facing per-session statistics snapshot."""
        out: dict[str, object] = {
            "session": self.id,
            "state": self.state,
            "restored": self.restored,
            "strategy": self.boomer.strategy_name,
            "actions_applied": self.actions_applied,
            "cap_entries": self.cap_entries(),
            "pooled_edges": len(self.boomer.engine.pool),
            "backlog_seconds": self.timeline.backlog_seconds,
            "donated_idle_seconds": self.donated_idle_seconds,
            "counters": self.ctx.counters.snapshot(),
            "trace": {
                "enabled": self.tracer.enabled,
                "spans_started": self.tracer.started,
                "spans_dropped": self.tracer.dropped,
                "open_depth": self.tracer.open_depth,
            },
        }
        result = self.boomer.run_result
        if result is not None:
            out["run"] = {
                "num_matches": result.num_matches,
                "srt_seconds": self.backlog_seconds + result.srt_seconds,
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ManagedSession({self.id!r}, state={self.state!r})"
