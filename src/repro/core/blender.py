"""The BOOMER query blender (Algorithm 1) — engine + public facade.

:class:`BlenderEngine` owns the mutable state of one formulation session
(query, CAP index, edge pool) and the timed primitives strategies invoke.
:class:`Boomer` is the public API: feed it GUI actions (or whole action
streams) and it interleaves CAP construction with formulation, completes
the index at Run, enumerates the upper-bound matches ``V_Δ``, and filters
by lower bounds just-in-time as results are visualized.

Timing model
------------
Two wall-clock accumulators:

* ``formulation_compute`` — CAP work done *during* formulation, hidden
  inside GUI latency (the user never waits for it);
* the **SRT** — system response time — everything between the Run click
  and the availability of ``V_Δ``: draining the pool of deferred edges plus
  enumeration.  This is exactly what the paper's Figures 5-7 and 11 plot.

CAP *construction time* (Figures 8/10) is the sum of CAP work wherever it
happened: formulation compute + run-phase pool drain.

Resilience
----------
With a :class:`~repro.resilience.ResilienceConfig` attached, the engine
defends the interactive illusion instead of assuming pristine components:
per-edge CAP construction is retried on transient failures (a failed edge
always returns to the pool, never half-processed), the Run phase honors a
cooperative deadline, the CAP index can be audited and repaired before
enumeration, and an unrecoverable CAP path degrades to the BU baseline —
same matches, slower, flagged on the :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.actions import (
    Action,
    ActionStream,
    DeleteEdge,
    ModifyBounds,
    NewEdge,
    NewVertex,
    Run,
)
from repro.core.cap import CAPIndex, CAPSizeReport
from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.core.edge_pool import EdgePool
from repro.core.enumerate import PartialMatches, partial_vertex_sets
from repro.core.lowerbound import ResultSubgraph, filter_by_lower_bound, valid_chunks
from repro.core.modification import (
    ModificationReport,
    delete_edge,
    modify_bounds,
    quarantine_edge,
)
from repro.core.pvs import populate_vertex_set
from repro.core.query import BPHQuery, QueryEdge
from repro.core.strategies import (
    ConstructionStrategy,
    DeferToIdleStrategy,
    ImmediateStrategy,
    make_strategy,
)
from repro.errors import (
    ActionError,
    CAPCorruptionError,
    CAPStateError,
    DeadlineExceededError,
    DegradedModeError,
    ReproError,
    RetryExhaustedError,
    SessionError,
)
from repro.indexing.oracle import shared_bfs_oracle
from repro.obs.clock import now
from repro.obs.metrics import record_run_counters
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.resilience import CAPInvariantChecker, Deadline, ResilienceConfig
from repro.utils.timing import Stopwatch, TimeBudget

__all__ = ["BlenderEngine", "Boomer", "ActionReport", "RunResult"]

#: Span names per GUI action type (the ``action.*`` taxonomy).
_ACTION_SPANS: dict[type, str] = {
    NewVertex: "action.new_vertex",
    NewEdge: "action.new_edge",
    ModifyBounds: "action.modify_bounds",
    DeleteEdge: "action.delete_edge",
}


@dataclass
class ActionReport:
    """What happened when one GUI action was applied."""

    action: Action
    processed_now: bool  # for NewEdge: processed inline vs pooled
    compute_seconds: float  # engine compute triggered by this action
    idle_probe_seconds: float = 0.0  # extra compute done in leftover latency
    modification: ModificationReport | None = None
    #: "ok" — the action succeeded;
    #: "failed-deferred" — a component failed mid-action but the session
    #: survives (the affected CAP work is parked in the pool for Run);
    #: "degraded" — this Run action produced its matches via the BU
    #: degradation ladder.  Non-"ok" statuses only appear when a
    #: resilience config is attached.
    status: str = "ok"
    error: str | None = None  # message of the absorbed failure, if any

    @property
    def ok(self) -> bool:
        """True when the action completed without an absorbed failure."""
        return self.status == "ok"


@dataclass
class RunResult:
    """Everything produced by the Run click."""

    matches: PartialMatches  # V_Δ (upper-bound constrained)
    srt_seconds: float  # Run click -> V_Δ available
    run_drain_seconds: float  # pool-drain share of the SRT
    enumeration_seconds: float  # DFS share of the SRT
    cap_construction_seconds: float  # formulation compute + run drain
    formulation_compute_seconds: float
    cap_size: CAPSizeReport
    cap_peak_size: int  # largest transient size (Figures 9/13/17)
    counters: dict[str, int]
    strategy: str
    #: True when the CAP path failed and the matches came from a BU rung
    #: of the degradation ladder (same match set, slower — see
    #: :mod:`repro.resilience.policy`).
    degraded: bool = False
    #: ``TypeName: message`` of the failure that forced degradation.
    degradation_reason: str | None = None
    #: Which ladder rung produced the matches: "bu-oracle" (BU with the
    #: session oracle) or "bu-bfs" (BU with a fresh index-free BFS oracle).
    fallback: str | None = None
    #: Edges rebuilt by the pre-enumeration CAP repair (0 = no repair ran).
    cap_repaired_edges: int = 0

    @property
    def num_matches(self) -> int:
        """``|V_Δ|``."""
        return len(self.matches)


class BlenderEngine:
    """Mutable session state + timed CAP operations (strategy-facing API)."""

    def __init__(
        self,
        ctx: EngineContext,
        strategy: ConstructionStrategy,
        pruning: bool = True,
        force_large_upper: bool = False,
        resilience: ResilienceConfig | None = None,
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> None:
        self.ctx = ctx
        self.strategy = strategy
        self.tracer = tracer
        self.query = BPHQuery()
        self.cap = CAPIndex(pruning_enabled=pruning)
        self.pool = EdgePool()
        self.force_large_upper = force_large_upper
        self.resilience = resilience
        #: Run-phase deadline; set by the facade around _run, checked at
        #: every cooperative checkpoint (pool drain, enumeration).
        self.deadline: Deadline | None = None
        self.formulation_compute = Stopwatch()
        self.run_drain = Stopwatch()
        self._phase = "formulation"  # or "run"

    # -- configuration shortcuts ------------------------------------------
    @property
    def cost_model(self) -> CostModel:
        """The ``t_avg``/``t_lat`` cost model (Definition 5.8)."""
        return self.ctx.cost_model

    @property
    def t_lat(self) -> float:
        """Minimum GUI latency assumed when an action carries none."""
        return self.ctx.cost_model.t_lat

    # -- timed primitives ---------------------------------------------------
    def _active_timer(self) -> Stopwatch:
        return self.run_drain if self._phase == "run" else self.formulation_compute

    def enter_run_phase(self) -> None:
        """Switch timing accrual from formulation latency to SRT."""
        self._phase = "run"

    @property
    def phase(self) -> str:
        """Current timing phase: ``"formulation"`` or ``"run"``."""
        return self._phase

    def checkpoint(self, context: str) -> None:
        """Cooperative cancellation point (no-op without a run deadline)."""
        if self.deadline is not None:
            self.deadline.checkpoint(context)

    def process_new_vertex(self, vertex_id: int, label: object) -> None:
        """Create the CAP level for a fresh query vertex (Alg. 2 lines 2-4)."""
        with self.tracer.span("cap.add_level", vertex=vertex_id):
            with self._active_timer():
                self.cap.add_level(vertex_id, self.ctx.candidates_for(label))

    def process_edge(self, edge: QueryEdge) -> float:
        """ProcessEdge (Algorithm 6): begin, populate, prune.  Returns cost.

        With a resilience config attached, transient component failures
        (anything that is not a :class:`ReproError`) are retried under its
        :class:`~repro.resilience.RetryPolicy`; exhausted retries surface
        as :class:`~repro.errors.RetryExhaustedError`.  Either way a failed
        attempt rolls the half-populated AIVS maps back, so the edge is
        never left half-processed.
        """
        start = now()
        with self.tracer.span("cap.process_edge", edge=str(edge.key)):
            with self._active_timer():
                if self.resilience is not None:
                    self.resilience.retry.call(
                        self._process_edge_once,
                        edge,
                        deadline=self.deadline,
                        label=f"process_edge{edge.key}",
                    )
                else:
                    self._process_edge_once(edge)
        return now() - start

    def _process_edge_once(self, edge: QueryEdge) -> None:
        """One attempt at ProcessEdge, atomic w.r.t. the CAP index."""
        try:
            self.cap.begin_edge(edge.u, edge.v)
            populate_vertex_set(
                self.cap, self.ctx, edge, force_large_upper=self.force_large_upper
            )
            self.cap.finish_edge(edge.u, edge.v)
        except Exception:
            # Drop the partial AIVS maps: a retry (or a later Run-phase
            # rebuild) must start from a clean, unprocessed edge — a
            # half-populated AIVS would silently shrink V_Δ.
            self.cap.drop_edge(edge.u, edge.v)
            raise
        self.ctx.counters.edges_processed += 1

    def _process_pooled(self, edge: QueryEdge) -> None:
        """Process an edge taken from the pool; re-pool it on failure.

        The pool is the unit of crash consistency: an edge is either
        processed in the CAP or sitting in the pool — never lost.  That is
        what lets the Run phase (or the degradation ladder) account for
        every query edge after an arbitrary mid-stream failure.
        """
        self.pool.remove(edge.u, edge.v)
        try:
            self.process_edge(edge)
        except Exception:
            self.pool.insert(edge)
            raise

    def probe_pool(self, budget: TimeBudget) -> int:
        """Algorithm 10: drain pooled edges that fit in ``budget``.

        Returns how many edges were processed.  The budget shrinks with the
        real time spent, so an optimistic estimate cannot overdraw the idle
        window by more than one edge.
        """
        self.ctx.counters.pool_probes += 1
        processed = 0
        with self.tracer.span("pool.probe", budget=budget.limit) as span:
            while self.pool and not budget.exhausted:
                self.checkpoint("pool probe")
                entry = self.pool.min_edge(self.cap, self.cost_model)
                if entry is None:
                    break
                edge, estimated = entry
                if estimated > budget.remaining():
                    break  # still too expensive; await the next GUI action
                self._process_pooled(edge)
                processed += 1
            span.set(edges=processed)
        return processed

    def probe_one(self, remaining_seconds: float) -> int:
        """Process the single cheapest pooled edge if its estimate fits.

        The cross-session idle scheduler uses this instead of
        :meth:`probe_pool` so each pick spends exactly one edge and the
        fair-share priorities are re-evaluated between edges.  Returns the
        number of edges processed (0 or 1).
        """
        entry = self.pool.min_edge(self.cap, self.cost_model)
        if entry is None:
            return 0
        edge, estimated = entry
        if estimated > remaining_seconds:
            return 0
        self.ctx.counters.pool_probes += 1
        with self.tracer.span("pool.probe", donated=True) as span:
            self._process_pooled(edge)
            span.set(edges=1)
        return 1

    def drain_pool(self) -> int:
        """Process every pooled edge, cheapest (current T_est) first."""
        processed = 0
        # During formulation (IC's post-modification catch-up) this is
        # "pool.drain"; at the Run click it is the SRT's drain stage.
        name = "run.drain" if self._phase == "run" else "pool.drain"
        with self.tracer.span(name) as span:
            while self.pool:
                self.checkpoint("pool drain")
                entry = self.pool.min_edge(self.cap, self.cost_model)
                if entry is None:  # pragma: no cover - defensive
                    break
                edge, _ = entry
                self._process_pooled(edge)
                processed += 1
            span.set(edges=processed)
        return processed

    def after_modification(self) -> None:
        """Strategy-specific follow-up to a rollback (Section 6).

        IC never defers, so re-pooled edges are processed immediately; DI
        probes within one latency window; DR leaves them for Run.
        """
        if isinstance(self.strategy, ImmediateStrategy):
            self.drain_pool()
        elif isinstance(self.strategy, DeferToIdleStrategy):
            self.probe_pool(TimeBudget(self.t_lat))

    @property
    def cap_construction_seconds(self) -> float:
        """Total CAP build time regardless of where it was hidden."""
        return self.formulation_compute.elapsed + self.run_drain.elapsed


class Boomer:
    """Public facade: Algorithm 1's event loop plus result generation.

    Parameters
    ----------
    ctx:
        Preprocessed engine context (see :func:`repro.core.preprocessor.make_context`).
    strategy:
        ``"IC"`` / ``"DR"`` / ``"DI"`` or a :class:`ConstructionStrategy`.
    pruning:
        Disable to get the "No Pruning" ablation arm (Exp 2).
    force_large_upper:
        Route *all* PVS work through the PML all-pairs search — the
        "1-Strategy" arm of Exp 1.
    max_results:
        Cap on ``|V_Δ|`` enumeration (None = unbounded); truncation is
        reported on the result.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  When set,
        mid-stream component failures are absorbed (the session survives,
        the affected action is reported ``failed-deferred``), the Run
        phase is retried/deadline-bounded, and unrecoverable CAP failures
        degrade to the BU baseline instead of raising.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When set, the session emits
        the span taxonomy in ``docs/OBSERVABILITY.md`` (a ``session``
        root tiled by ``phase.formulation``/``phase.run``, with per-action
        and per-edge children).  Defaults to the free no-op tracer.
    """

    def __init__(
        self,
        ctx: EngineContext,
        strategy: str | ConstructionStrategy = "DI",
        pruning: bool = True,
        force_large_upper: bool = False,
        max_results: int | None = None,
        auto_idle: bool = True,
        resilience: ResilienceConfig | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        self.resilience = resilience
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = BlenderEngine(
            ctx,
            strategy,
            pruning=pruning,
            force_large_upper=force_large_upper,
            resilience=resilience,
            tracer=self.tracer,
        )
        self.max_results = max_results
        #: When True (standalone use), each apply() ends with an idle-probe
        #: whose budget is the action's leftover latency.  Timeline-driving
        #: callers (VisualSession) disable it and call probe_idle themselves
        #: with budgets derived from the virtual formulation clock.
        self.auto_idle = auto_idle
        self.action_reports: list[ActionReport] = []
        self.run_result: RunResult | None = None
        self.result_generation = Stopwatch()
        #: Context used for result generation; swapped to the fallback
        #: context when a degraded run's lower-bound checks must not touch
        #: the (possibly dead) session oracle.
        self._result_ctx: EngineContext = ctx
        #: Messages of every failure the resilience layer absorbed.
        self.absorbed_failures: list[str] = []
        #: Session root span + the formulation phase child, opened lazily
        #: at the first action so the trace starts with real work.
        self._session_span = None
        self._formulation_span = None
        #: Counter values at session start: contexts are often shared
        #: across sessions (experiment loops), so the global metrics must
        #: only absorb this session's delta, not the cumulative totals.
        self._counters_baseline = ctx.counters.snapshot()

    # -- convenience passthroughs ---------------------------------------------
    @property
    def query(self) -> BPHQuery:
        """The query as formulated so far."""
        return self.engine.query

    @property
    def cap(self) -> CAPIndex:
        """The live CAP index."""
        return self.engine.cap

    @property
    def strategy_name(self) -> str:
        """Short name of the active construction strategy."""
        return self.engine.strategy.name

    # -- session span lifecycle ----------------------------------------------
    def _open_session_spans(self) -> None:
        """Open the ``session`` root + ``phase.formulation`` child (once)."""
        if self._session_span is None and self.tracer.enabled:
            self._session_span = self.tracer.start(
                "session", strategy=self.engine.strategy.name
            )
            self._formulation_span = self.tracer.start("phase.formulation")

    def _close_session_spans(self, error: str | None = None) -> None:
        """Close the root (and any phase still open) so the tree balances."""
        if self._formulation_span is not None:
            self._formulation_span.close(error=error)
            self._formulation_span = None
        if self._session_span is not None:
            self._session_span.close(error=error)
            self._session_span = None

    # -- Algorithm 1 event loop ---------------------------------------------
    def apply(self, action: Action) -> ActionReport:
        """Apply one GUI action; returns what the engine did with it."""
        if self.run_result is not None:
            raise ActionError("query already executed; start a new session")
        if self.engine.phase == "run":
            # Run was attempted and failed terminally (deadline blown,
            # degradation refused or exhausted): timing accrual is already
            # in SRT mode, so further formulation actions would corrupt the
            # session's books.  Callers must start a fresh session.
            raise CAPStateError(
                "session is in a terminal failed-Run state; "
                "no further actions are accepted — start a new session"
            )
        self._open_session_spans()
        if isinstance(action, Run):
            # Formulation ends here: the phases tile the session root.
            if self._formulation_span is not None:
                self._formulation_span.close()
                self._formulation_span = None
            run_span = self.tracer.start("phase.run")
            try:
                self._run()
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                run_span.close(error=message)
                self._close_session_spans(error=message)
                raise
            run_span.set(
                matches=self.run_result.num_matches,
                degraded=self.run_result.degraded,
            ).close()
            self._close_session_spans()
            report = ActionReport(
                action=action,
                processed_now=True,
                compute_seconds=self.run_result.srt_seconds,
                status="degraded" if self.run_result.degraded else "ok",
                error=self.run_result.degradation_reason,
            )
            self.action_reports.append(report)
            return report

        engine = self.engine
        span = self.tracer.start(_ACTION_SPANS.get(type(action), "action.other"))
        start = now()
        modification: ModificationReport | None = None
        processed_now = True
        status = "ok"
        error: str | None = None

        try:
            if isinstance(action, NewVertex):
                span.set(vertex=action.vertex_id)
                engine.query.add_vertex(action.label, vertex_id=action.vertex_id)
                engine.process_new_vertex(action.vertex_id, action.label)
            elif isinstance(action, NewEdge):
                span.set(edge=f"({action.u}, {action.v})")
                edge = engine.query.add_edge(
                    action.u, action.v, lower=action.lower, upper=action.upper
                )
                processed_now = engine.strategy.on_new_edge(engine, edge)
            elif isinstance(action, ModifyBounds):
                span.set(edge=f"({action.u}, {action.v})")
                modification = modify_bounds(
                    engine, action.u, action.v, action.lower, action.upper
                )
            elif isinstance(action, DeleteEdge):
                span.set(edge=f"({action.u}, {action.v})")
                modification = delete_edge(engine, action.u, action.v)
            else:
                raise ActionError(f"unsupported action {action!r}")
        except Exception as exc:
            if not self._absorbable(exc):
                span.close(error=f"{type(exc).__name__}: {exc}")
                raise
            self._repair_after_action_failure(action)
            processed_now = False
            status = "failed-deferred"
            error = f"{type(exc).__name__}: {exc}"
            self.absorbed_failures.append(error)

        spent = now() - start
        probe_seconds = 0.0
        if self.auto_idle:
            # Leftover latency of this user step feeds Defer-to-Idle's probe.
            latency = (
                action.latency_after
                if action.latency_after is not None
                else engine.t_lat
            )
            probe_seconds = self.probe_idle(max(latency - spent, 0.0))

        span.set(deferred=not processed_now, status=status).close(error=error)
        report = ActionReport(
            action=action,
            processed_now=processed_now,
            compute_seconds=spent,
            idle_probe_seconds=probe_seconds,
            modification=modification,
            status=status,
            error=error,
        )
        self.action_reports.append(report)
        return report

    def _absorbable(self, exc: Exception) -> bool:
        """Is this mid-formulation failure one the session can survive?

        Component crashes (non-``ReproError``) and exhausted retries are
        absorbed — the affected CAP work is deferrable to Run, where the
        degradation ladder has the final word.  Protocol errors
        (:class:`ActionError`, bad bounds, ...) stay loud: they are caller
        bugs, and hiding them would mask real defects.
        """
        if self.resilience is None or not self.resilience.absorb_action_failures:
            return False
        if isinstance(exc, RetryExhaustedError):
            return True
        return not isinstance(exc, ReproError)

    def _repair_after_action_failure(self, action: Action) -> None:
        """Restore the processed-or-pooled invariant after an absorbed failure.

        * NewEdge: the query edge exists but CAP work died — park it in the
          pool so Run (or the BU ladder) still accounts for it.
        * Modify/Delete on a processed edge: the entry may now disagree
          with the new bounds — quarantine its component (Algorithm 5),
          which resets levels and re-pools the edges without re-processing.
        """
        engine = self.engine
        if isinstance(action, NewEdge):
            if (
                engine.query.has_edge(action.u, action.v)
                and not engine.pool.contains(action.u, action.v)
                and not engine.cap.is_processed(action.u, action.v)
            ):
                engine.pool.insert(engine.query.edge_between(action.u, action.v))
        elif isinstance(action, (ModifyBounds, DeleteEdge)):
            if engine.query.has_edge(action.u, action.v) and engine.cap.is_processed(
                action.u, action.v
            ):
                quarantine_edge(engine, action.u, action.v)

    def probe_idle(self, idle_seconds: float) -> float:
        """Give the strategy ``idle_seconds`` of leftover GUI latency.

        Only Defer-to-Idle acts on it (Algorithm 4's pool probe); returns
        the compute time actually consumed.  With a resilience config,
        failures during the probe are absorbed — the edge under
        construction returns to the pool and the session carries on.
        """
        if idle_seconds <= 0.0:
            return 0.0
        start = now()
        try:
            self.engine.strategy.on_idle(self.engine, idle_seconds)
        except Exception as exc:
            if not self._absorbable(exc):
                raise
            self.absorbed_failures.append(f"{type(exc).__name__}: {exc}")
        return now() - start

    def execute_stream(self, actions: ActionStream | list[Action]) -> RunResult:
        """Apply a whole stream (must end with Run); returns the run result."""
        stream = actions if isinstance(actions, ActionStream) else ActionStream(actions)
        while stream.has_pending:
            self.apply(stream.consume())
        if self.run_result is None:
            raise SessionError("action stream did not contain a Run action")
        return self.run_result

    def _run(self) -> None:
        """The Run click: finish CAP, enumerate V_Δ, record the SRT.

        With a resilience config: the whole phase honors the configured
        deadline (a blown budget *raises* — degrading would only take
        longer), the CAP index is optionally audited and repaired before
        enumeration, and an unrecoverable CAP path walks the BU
        degradation ladder instead of failing the query.
        """
        engine = self.engine
        config = self.resilience
        engine.query.validate()
        engine.enter_run_phase()

        deadline: Deadline | None = None
        if config is not None:
            deadline = Deadline(config.deadline_seconds, label="Run phase")
            engine.deadline = deadline

        srt_start = now()
        degraded = False
        degradation_reason: str | None = None
        fallback: str | None = None
        repaired_edges = 0
        try:
            try:
                if config is not None and config.verify_cap_on_run:
                    # Before the drain: pruning a pooled edge against rotten
                    # entries would cascade the rot into a consistent,
                    # wrong index that no later audit could tell from a
                    # sound one.
                    with self.tracer.span("run.verify_cap") as vspan:
                        repaired_edges = self._verify_cap()
                        vspan.set(repaired_edges=repaired_edges)
                engine.drain_pool()
                drain_seconds = now() - srt_start

                enum_start = now()
                with self.tracer.span("run.enumerate") as espan:
                    matches = partial_vertex_sets(
                        engine.query,
                        engine.cap,
                        matching_order=engine.query.matching_order,
                        max_results=self.max_results,
                        deadline=deadline,
                    )
                    espan.set(matches=len(matches))
                enumeration_seconds = now() - enum_start
            except DeadlineExceededError:
                raise  # never degrade past the deadline: BU is strictly slower
            except Exception as exc:
                if config is None or not config.degrade_to_bu or not self._degradable(exc):
                    raise
                drain_seconds = now() - srt_start
                enum_start = now()
                with self.tracer.span(
                    "run.degrade", cause=f"{type(exc).__name__}: {exc}"
                ) as dspan:
                    matches, fallback = self._degrade(exc, deadline)
                    dspan.set(rung=fallback, matches=len(matches))
                enumeration_seconds = now() - enum_start
                degraded = True
                degradation_reason = f"{type(exc).__name__}: {exc}"
                self.absorbed_failures.append(degradation_reason)
        except Exception:
            record_run_counters(
                self._counters_delta(engine.ctx.counters.snapshot()),
                srt_seconds=now() - srt_start,
                cap_construction_seconds=engine.cap_construction_seconds,
                outcome="failed",
            )
            raise
        finally:
            engine.deadline = None

        self.run_result = RunResult(
            matches=matches,
            srt_seconds=now() - srt_start,
            run_drain_seconds=drain_seconds,
            enumeration_seconds=enumeration_seconds,
            cap_construction_seconds=engine.cap_construction_seconds,
            formulation_compute_seconds=engine.formulation_compute.elapsed,
            cap_size=engine.cap.size_report(),
            cap_peak_size=engine.cap.peak_total,
            counters=engine.ctx.counters.snapshot(),
            strategy=engine.strategy.name,
            degraded=degraded,
            degradation_reason=degradation_reason,
            fallback=fallback,
            cap_repaired_edges=repaired_edges,
        )
        record_run_counters(
            self._counters_delta(self.run_result.counters),
            srt_seconds=self.run_result.srt_seconds,
            cap_construction_seconds=self.run_result.cap_construction_seconds,
            outcome="degraded" if degraded else "ok",
            fallback=fallback,
        )

    def _counters_delta(self, snapshot: dict[str, int]) -> dict[str, int]:
        """This session's share of the (possibly shared) context counters."""
        return {
            key: value - self._counters_baseline.get(key, 0)
            for key, value in snapshot.items()
        }

    @staticmethod
    def _degradable(exc: Exception) -> bool:
        """Failures that feed the ladder vs. caller bugs that must raise."""
        if isinstance(exc, (RetryExhaustedError, CAPCorruptionError)):
            return True  # resilience layer's own verdicts on dead components
        return not isinstance(exc, ReproError)  # external component crash

    def _verify_cap(self) -> int:
        """Pre-enumeration audit (+ repair if dirty); returns edges rebuilt."""
        engine = self.engine
        checker = CAPInvariantChecker(sample_pairs=self.resilience.audit_sample_pairs)
        report = checker.audit(engine.cap, engine.query, engine.ctx)
        if report.clean:
            return 0
        repair = checker.repair(engine, report)  # raises CAPCorruptionError if hopeless
        return repair.rebuilt_edges

    def _degrade(
        self, cause: Exception, deadline: Deadline | None
    ) -> tuple[PartialMatches, str]:
        """Walk the BU degradation ladder; returns (matches, rung name).

        Rung 2 ("bu-oracle") reuses the session oracle — survives arbitrary
        CAP damage.  Rung 3 ("bu-bfs") builds a fresh BFS oracle from the
        raw graph — survives a permanently dead oracle too.  Both produce
        the same ``V_Δ`` as the CAP path (deferral neutrality), so only
        latency is traded, never correctness.  The BU run inherits whatever
        remains of the Run deadline; a timed-out BU converts back into
        :class:`DeadlineExceededError`.
        """
        # Lazy import: core -> baseline is a deliberate, contained layer
        # inversion that only the degraded path pays for.
        from repro.baseline.bu import BoomerUnaware

        engine = self.engine
        timeout: float | None = None
        if deadline is not None and deadline.limit is not None:
            timeout = deadline.remaining()

        rungs: list[tuple[str, EngineContext]] = [("bu-oracle", engine.ctx)]
        rungs.append(
            ("bu-bfs", replace(engine.ctx, oracle=shared_bfs_oracle(engine.ctx.graph)))
        )

        last_error: Exception = cause
        for name, ctx in rungs:
            bu = BoomerUnaware(ctx, timeout_seconds=timeout, max_results=self.max_results)
            try:
                result = bu.evaluate(engine.query)
            except ReproError:
                raise  # protocol errors are not the oracle's fault
            except Exception as exc:  # this rung's oracle is broken too
                last_error = exc
                continue
            if result.timed_out:
                raise DeadlineExceededError(
                    f"BU fallback ({name})",
                    limit=deadline.limit if deadline is not None else None,
                )
            self._result_ctx = ctx  # lower-bound JIT checks use the live oracle
            return (
                PartialMatches.from_dicts(
                    result.matches,
                    order=result.order,
                    truncated=result.truncated,
                    extras={"fallback": name, "bu_srt_seconds": result.srt_seconds},
                ),
                name,
            )
        raise DegradedModeError(
            f"every degradation rung failed after {type(cause).__name__}: {cause}"
        ) from last_error

    # -- result generation (Section 5.4) ------------------------------------
    def _verify(self, rows: PartialMatches) -> list[ResultSubgraph | None]:
        """Lower-bound check + path materialization for a chunk of ``V_Δ``
        rows: one span, one stopwatch and one oracle failover for all."""
        with self.tracer.span("result.visualize", rows=len(rows)) as span, self.result_generation:
            # _result_ctx is the session context normally; after a degraded
            # run it is the fallback rung's context, so JIT lower-bound
            # checks never touch a dead oracle.
            try:
                verdicts = filter_by_lower_bound(rows, self.engine.query, self._result_ctx)
            except Exception as exc:
                if not self._absorbable(exc):
                    raise
                # The oracle died *after* Run (CAP construction may never
                # have needed it): fail result generation over to the
                # shared BFS oracle — exact distances, so validation is
                # unchanged, and repeated failures reuse its warm cache.
                self.absorbed_failures.append(f"{type(exc).__name__}: {exc}")
                self._result_ctx = replace(
                    self.engine.ctx, oracle=shared_bfs_oracle(self.engine.ctx.graph)
                )
                verdicts = filter_by_lower_bound(rows, self.engine.query, self._result_ctx)
            span.set(valid=sum(subgraph is not None for subgraph in verdicts))
            return verdicts

    def visualize(self, match: dict[int, int]) -> ResultSubgraph | None:
        """The validated subgraph of one ``V_P``, or None when the match
        fails some lower bound (it is then not a bounded 1-1 p-hom match
        and is not displayed)."""
        if self.run_result is None:
            raise SessionError("call apply(Run()) before visualizing results")
        return self._verify(PartialMatches.from_dicts([match], order=list(match)))[0]

    def iter_results(self, limit: int | None = None):
        """Lazily yield validated result subgraphs, a chunk of rows at a time.

        Mirrors the paper's iteration model: the lower-bound check runs
        just-in-time as results are displayed, so the first results appear
        without paying for validating the whole ``V_Δ``
        (:func:`~repro.core.lowerbound.valid_chunks` sizes the chunks).
        """
        if self.run_result is None:
            raise SessionError("call apply(Run()) before fetching results")
        for valid in valid_chunks(self.run_result.matches, limit, self._verify):
            yield from valid

    def results(self, limit: int | None = None) -> list[ResultSubgraph]:
        """All (or the first ``limit``) fully validated result subgraphs."""
        return list(self.iter_results(limit))
