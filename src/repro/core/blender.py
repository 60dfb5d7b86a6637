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

Failures
--------
A failed ``process_edge`` drops the edge's half-populated AIVS maps, and a
pooled edge that fails returns to the pool, so every query edge is either
processed or pooled.  The Run phase may carry a deadline (checked between
edges and between enumeration chunks); a Run that raises leaves the
session terminal.  Nothing is retried or answered another way: the error
reaches the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.core.modification import ModificationReport, delete_edge, modify_bounds
from repro.core.pvs import populate_vertex_set
from repro.core.query import BPHQuery, QueryEdge
from repro.core.strategies import (
    ConstructionStrategy,
    DeferToIdleStrategy,
    ImmediateStrategy,
    make_strategy,
)
from repro.errors import ActionError, CAPStateError, SessionError
from repro.obs.clock import now
from repro.obs.metrics import record_run_counters
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.utils.timing import Deadline, Stopwatch, TimeBudget

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
        tracer: Tracer | NullTracer = NULL_TRACER,
    ) -> None:
        self.ctx = ctx
        self.strategy = strategy
        self.tracer = tracer
        self.query = BPHQuery()
        self.cap = CAPIndex(pruning_enabled=pruning)
        self.pool = EdgePool()
        self.force_large_upper = force_large_upper
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

        Atomic with respect to the CAP index: a failure drops the
        half-populated AIVS maps, so the edge is never left half-processed.
        """
        start = now()
        with self.tracer.span("cap.process_edge", edge=str(edge.key)):
            with self._active_timer():
                self._process_edge_once(edge)
        return now() - start

    def _process_edge_once(self, edge: QueryEdge) -> None:
        """ProcessEdge proper, rolled back on failure."""
        try:
            self.cap.begin_edge(edge.u, edge.v)
            populate_vertex_set(
                self.cap, self.ctx, edge, force_large_upper=self.force_large_upper
            )
            self.cap.finish_edge(edge.u, edge.v)
        except Exception:
            # Drop the partial AIVS maps: a later rebuild must start from
            # a clean, unprocessed edge — a half-populated AIVS would
            # silently shrink V_Δ.
            self.cap.drop_edge(edge.u, edge.v)
            raise
        self.ctx.counters.edges_processed += 1

    def _process_pooled(self, edge: QueryEdge) -> None:
        """Process an edge taken from the pool; re-pool it on failure.

        The pool is the unit of crash consistency: an edge is either
        processed in the CAP or sitting in the pool — never lost.
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
    deadline_seconds:
        Wall-clock budget of the Run phase (None = unbounded); a Run past
        it raises :class:`~repro.errors.DeadlineExceededError` and leaves
        the session terminal.
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
        deadline_seconds: float | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        self.deadline_seconds = deadline_seconds
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.engine = BlenderEngine(
            ctx,
            strategy,
            pruning=pruning,
            force_large_upper=force_large_upper,
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
            # Run was attempted and failed terminally (deadline blown, an
            # engine error): timing accrual is already in SRT mode, so
            # further formulation actions would corrupt the session's
            # books.  Callers must start a fresh session.
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
            run_span.set(matches=self.run_result.num_matches).close()
            self._close_session_spans()
            report = ActionReport(
                action=action,
                processed_now=True,
                compute_seconds=self.run_result.srt_seconds,
            )
            self.action_reports.append(report)
            return report

        engine = self.engine
        span = self.tracer.start(_ACTION_SPANS.get(type(action), "action.other"))
        start = now()
        modification: ModificationReport | None = None
        processed_now = True

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
            span.close(error=f"{type(exc).__name__}: {exc}")
            raise

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

        span.set(deferred=not processed_now).close()
        report = ActionReport(
            action=action,
            processed_now=processed_now,
            compute_seconds=spent,
            idle_probe_seconds=probe_seconds,
            modification=modification,
        )
        self.action_reports.append(report)
        return report

    def probe_idle(self, idle_seconds: float) -> float:
        """Give the strategy ``idle_seconds`` of leftover GUI latency.

        Only Defer-to-Idle acts on it (Algorithm 4's pool probe); returns
        the compute time actually consumed.
        """
        if idle_seconds <= 0.0:
            return 0.0
        start = now()
        self.engine.strategy.on_idle(self.engine, idle_seconds)
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

        The whole phase honors :attr:`deadline_seconds`; a Run that raises
        is counted as failed and leaves the session terminal.
        """
        engine = self.engine
        engine.query.validate()
        engine.enter_run_phase()
        deadline = None
        if self.deadline_seconds is not None:
            deadline = engine.deadline = Deadline(self.deadline_seconds, label="Run phase")

        srt_start = now()
        try:
            engine.drain_pool()
            drain_seconds = now() - srt_start

            enum_start = now()
            with self.tracer.span("run.enumerate") as espan:
                counters = engine.ctx.counters
                before = counters.rows_expanded, counters.dfs_steps
                matches = partial_vertex_sets(
                    engine.query,
                    engine.cap,
                    matching_order=engine.query.matching_order,
                    max_results=self.max_results,
                    deadline=deadline,
                    counters=counters,
                )
                espan.set(
                    matches=len(matches),
                    rows_expanded=counters.rows_expanded - before[0],
                    dfs_steps=counters.dfs_steps - before[1],
                )
            enumeration_seconds = now() - enum_start
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
        )
        record_run_counters(
            self._counters_delta(self.run_result.counters),
            srt_seconds=self.run_result.srt_seconds,
            cap_construction_seconds=self.run_result.cap_construction_seconds,
            outcome="ok",
        )

    def _counters_delta(self, snapshot: dict[str, int]) -> dict[str, int]:
        """This session's share of the (possibly shared) context counters."""
        return {
            key: value - self._counters_baseline.get(key, 0)
            for key, value in snapshot.items()
        }

    # -- result generation (Section 5.4) ------------------------------------
    def _verify(self, rows: PartialMatches) -> list[ResultSubgraph | None]:
        """Lower-bound check + path materialization for a chunk of ``V_Δ``
        rows: one span and one stopwatch for all."""
        with self.tracer.span("result.visualize", rows=len(rows)) as span, self.result_generation:
            verdicts = filter_by_lower_bound(rows, self.engine.query, self.engine.ctx)
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
