"""End-to-end visual sessions: simulator + blender on a virtual timeline.

:class:`VisualSession` is the harness equivalent of one participant
formulating one query on one dataset with one strategy.  It runs a *hybrid
clock* (DESIGN.md substitution table):

* user think-time is **virtual** — each visual step's duration comes from
  the latency model, so no wall-clock is wasted waiting for a simulated
  human;
* engine compute is **real** — each ``apply`` is measured with
  ``perf_counter`` exactly as the Java system measured its own work.

The two interleave on one timeline: action *i* arrives at virtual time
``T_i`` (cumulative step durations); the engine starts it no earlier than
``max(T_i, busy_until)`` and advances ``busy_until`` by its real compute
time.  Defer-to-Idle's probe budget is the true idle window
``T_{i+1} - busy_until``.  If CAP work is still outstanding when Run is
clicked (engine overloaded by expensive edges — the Exp 1/7 failure mode of
Immediate construction), the leftover *backlog* is charged to the SRT, just
as the user would experience it.

A session may carry a Run deadline (``deadline_seconds``), handed to
every :class:`Boomer` it creates.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.actions import Action, Run
from repro.core.blender import ActionReport, Boomer, RunResult
from repro.core.context import EngineContext
from repro.core.cost import GUILatencyConstants
from repro.errors import SessionError
from repro.gui.latency import LatencyModel
from repro.gui.simulator import SimulatedUser
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.workload.generator import QueryInstance

__all__ = ["VisualSession", "SessionResult", "TimelineState"]


@dataclass
class TimelineState:
    """The hybrid virtual clock of one formulation session.

    Factored out of :meth:`VisualSession.run_actions` so both batch replay
    (whole action list at once) and the incremental service layer
    (:mod:`repro.service`, one wire request per action) advance the *same*
    timeline arithmetic: action *i* arrives at virtual ``T_i``; the engine
    starts it no earlier than ``max(T_i, busy_until)``; leftover GUI
    latency is the idle window handed to Defer-to-Idle (or, in the
    service, donated to the :class:`IdleScheduler`, which probes the same
    session's pool).
    """

    arrival: float = 0.0  # virtual time the next action is handed over
    busy_until: float = 0.0  # engine busy horizon (virtual)
    formulation_busy: float = 0.0  # engine compute during formulation
    simulated_qft: float = 0.0  # total virtual formulation time

    def step(
        self,
        boomer: Boomer,
        action: Action,
        idle_sink: Callable[[float], float] | None = None,
    ) -> ActionReport:
        """Apply one non-Run action on the timeline; returns its report.

        ``idle_sink`` receives the idle window (seconds) and returns the
        compute time actually spent in it; defaults to the session's own
        pool probe (:meth:`Boomer.probe_idle`).
        """
        report = boomer.apply(action)
        start = max(self.arrival, self.busy_until)
        self.busy_until = start + report.compute_seconds
        self.formulation_busy += report.compute_seconds
        latency = (
            action.latency_after
            if action.latency_after is not None
            else boomer.engine.t_lat
        )
        if action.latency_after is not None:
            self.simulated_qft += action.latency_after
        next_arrival = self.arrival + latency
        idle = next_arrival - self.busy_until
        if idle > 0.0:
            sink = idle_sink if idle_sink is not None else boomer.probe_idle
            spent = sink(idle)
            self.busy_until += spent
            self.formulation_busy += spent
        self.arrival = next_arrival
        return report

    @property
    def backlog_seconds(self) -> float:
        """CAP work still pending were Run clicked now (charged to SRT)."""
        return max(self.busy_until - self.arrival, 0.0)


@dataclass
class SessionResult:
    """Everything one simulated session produced."""

    instance_name: str
    strategy: str
    run: RunResult
    boomer: Boomer
    actions: list[Action]
    simulated_qft_seconds: float  # total virtual formulation time
    backlog_seconds: float  # CAP work still pending at the Run click
    formulation_busy_seconds: float  # engine compute during formulation

    # -- the paper's headline metrics ------------------------------------
    @property
    def srt_seconds(self) -> float:
        """System response time: Run click -> V_Δ available.

        Backlogged CAP work + pool drain + enumeration — what the user
        actually waits for (Figures 5, 6a, 7, 11, 16).
        """
        return self.backlog_seconds + self.run.srt_seconds

    @property
    def cap_construction_seconds(self) -> float:
        """Total CAP construction time wherever it happened (Figs. 8/10/15)."""
        return self.run.cap_construction_seconds

    @property
    def cap_size(self) -> int:
        """Final CAP index size per Lemma 5.2 accounting."""
        return self.run.cap_size.total

    @property
    def cap_peak_size(self) -> int:
        """Largest transient CAP size — what Figures 9/13/17 compare.

        The final index is a strategy-independent fixpoint; the *peak*
        differs because Immediate construction materializes expensive
        edges' pairs before pruning could shrink the candidate sets.
        """
        return self.run.cap_peak_size

    @property
    def num_matches(self) -> int:
        """``|V_Δ|``."""
        return self.run.num_matches


class VisualSession:
    """Runs simulated formulation sessions against one engine context.

    One ``VisualSession`` may run many sessions (fresh ``Boomer`` each
    time); context counters are reset per run, so sessions are independent
    measurements.
    """

    def __init__(
        self,
        ctx: EngineContext,
        latency_constants: GUILatencyConstants | None = None,
        jitter: float = 0.0,
        speed: float = 1.0,
        seed: int = 0,
        deadline_seconds: float | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        self.deadline_seconds = deadline_seconds
        #: Shared across every session this harness runs; pass a fresh
        #: :class:`~repro.obs.trace.Tracer` per run for isolated timelines.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ctx = ctx
        constants = latency_constants or GUILatencyConstants()
        self.latency_model = LatencyModel(
            constants, jitter=jitter, speed=speed, seed=seed
        )
        self.user = SimulatedUser(self.latency_model)

    def run(
        self,
        instance: QueryInstance,
        strategy: str = "DI",
        edge_order: Sequence[int] | None = None,
        pruning: bool = True,
        force_large_upper: bool = False,
        max_results: int | None = None,
    ) -> SessionResult:
        """Formulate and execute ``instance``; returns the session metrics."""
        actions = self.user.formulate(instance, edge_order=edge_order)
        return self.run_actions(
            actions,
            instance_name=instance.name,
            strategy=strategy,
            pruning=pruning,
            force_large_upper=force_large_upper,
            max_results=max_results,
        )

    def run_actions(
        self,
        actions: Sequence[Action],
        instance_name: str = "adhoc",
        strategy: str = "DI",
        pruning: bool = True,
        force_large_upper: bool = False,
        max_results: int | None = None,
    ) -> SessionResult:
        """Drive a prepared action list through the hybrid timeline."""
        if not actions or not isinstance(actions[-1], Run):
            raise SessionError("action list must end with Run")
        self.ctx.counters.reset()
        boomer = Boomer(
            self.ctx,
            strategy=strategy,
            pruning=pruning,
            force_large_upper=force_large_upper,
            max_results=max_results,
            auto_idle=False,
            deadline_seconds=self.deadline_seconds,
            tracer=self.tracer,
        )

        # Virtual timeline.  Action i is *performed* by the user during
        # [T_{i-1}, T_i] (duration = previous action's latency_after) and
        # handed to the engine at T_i.  latency_after of action i is, by
        # simulator construction, the duration of action i+1.
        timeline = TimelineState()
        for action in actions[:-1]:
            timeline.step(boomer, action)

        backlog = timeline.backlog_seconds  # CAP work pending at the Run click
        run_result = _apply_run(boomer, actions[-1])

        qft = sum(
            a.latency_after for a in actions if a.latency_after is not None
        )
        return SessionResult(
            instance_name=instance_name,
            strategy=boomer.strategy_name,
            run=run_result,
            boomer=boomer,
            actions=list(actions),
            simulated_qft_seconds=qft,
            backlog_seconds=backlog,
            formulation_busy_seconds=timeline.formulation_busy,
        )


def _apply_run(boomer: Boomer, run_action: Action) -> RunResult:
    boomer.apply(run_action)
    result = boomer.run_result
    if result is None:  # pragma: no cover - defensive
        raise SessionError("Run action did not produce a result")
    return result
