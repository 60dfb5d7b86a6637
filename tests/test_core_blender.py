"""Tests for the blender engine and Boomer facade (Algorithm 1)."""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.cost import CostModel
from repro.errors import ActionError, QueryValidationError, SessionError
from repro.utils.timing import TimeBudget
from tests.reference_models import ids


def formulate_fig2(boomer: Boomer):
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, 1, 1))
    boomer.apply(NewVertex(2, "C"))
    boomer.apply(NewEdge(1, 2, 1, 2))
    boomer.apply(NewEdge(0, 2, 1, 3))
    return boomer


class TestActionHandling:
    def test_new_vertex_creates_level(self, fig2_ctx):
        boomer = Boomer(fig2_ctx)
        boomer.apply(NewVertex(0, "A"))
        assert ids(boomer.cap.candidates(0)) == {0, 1, 2, 3}
        assert boomer.query.has_vertex(0)

    def test_new_edge_processed_inline_when_cheap(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        report = boomer.apply(NewEdge(0, 1, 1, 1))
        assert report.processed_now
        assert boomer.cap.is_processed(0, 1)

    def test_strategy_name(self, fig2_ctx):
        assert Boomer(fig2_ctx, strategy="IC").strategy_name == "IC"
        assert Boomer(fig2_ctx, strategy="DI").strategy_name == "DI"

    def test_unknown_action_rejected(self, fig2_ctx):
        class Bogus:
            pass

        with pytest.raises(ActionError):
            Boomer(fig2_ctx).apply(Bogus())

    def test_apply_after_run_rejected(self, fig2_ctx):
        boomer = Boomer(fig2_ctx)
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(Run())
        with pytest.raises(ActionError):
            boomer.apply(NewVertex(1, "B"))

    def test_action_reports_recorded(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        assert len(boomer.action_reports) == 7
        assert all(r.compute_seconds >= 0 for r in boomer.action_reports)


class TestRun:
    def test_run_produces_result(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        result = boomer.run_result
        assert result is not None
        assert result.num_matches == 3
        assert result.srt_seconds >= 0
        assert result.cap_construction_seconds > 0
        assert result.strategy == "DI"

    def test_run_validates_connectivity(self, fig2_ctx):
        boomer = Boomer(fig2_ctx)
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(QueryValidationError):
            boomer.apply(Run())

    def test_run_drains_pool(self, fig2_ctx):
        fig2_ctx.cost_model = CostModel(t_avg=100.0, t_lat=0.0001)
        boomer = Boomer(fig2_ctx, strategy="DR")
        formulate_fig2(boomer)
        assert len(boomer.engine.pool) > 0
        boomer.apply(Run())
        assert len(boomer.engine.pool) == 0
        assert boomer.run_result.num_matches == 3

    def test_srt_components_sum(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        result = boomer.run_result
        assert result.srt_seconds >= result.run_drain_seconds
        assert result.srt_seconds >= result.enumeration_seconds

    def test_counters_snapshot(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        counters = boomer.run_result.counters
        assert counters["edges_processed"] == 3
        assert counters["pairs_added"] > 0


class TestExecuteStream:
    def test_list_of_actions(self, fig2_ctx):
        actions = [
            NewVertex(0, "A"),
            NewVertex(1, "B"),
            NewEdge(0, 1, 1, 1),
            Run(),
        ]
        result = Boomer(fig2_ctx).execute_stream(actions)
        assert result.num_matches > 0

    def test_stream_without_run_rejected(self, fig2_ctx):
        with pytest.raises(SessionError):
            Boomer(fig2_ctx).execute_stream([NewVertex(0, "A")])


class TestResults:
    def test_results_before_run_rejected(self, fig2_ctx):
        with pytest.raises(SessionError):
            Boomer(fig2_ctx).results()
        with pytest.raises(SessionError):
            Boomer(fig2_ctx).visualize({0: 1})

    def test_results_validated(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        results = boomer.results()
        assert len(results) == 3
        for subgraph in results:
            assert set(subgraph.paths) == {(0, 1), (1, 2), (0, 2)}

    def test_results_limit(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        assert len(boomer.results(limit=1)) == 1

    def test_visualize_single(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        match = boomer.run_result.matches.matches[0]
        subgraph = boomer.visualize(match)
        assert subgraph is not None
        assert subgraph.assignment == match


class TestEngine:
    def test_probe_pool_respects_budget(self, fig2_ctx):
        fig2_ctx.cost_model = CostModel(t_avg=100.0, t_lat=0.0001)
        boomer = Boomer(fig2_ctx, strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 5))
        engine = boomer.engine
        assert engine.probe_pool(TimeBudget(1e-9)) == 0
        assert len(engine.pool) == 1
        # generous budget + cheap model drains it
        fig2_ctx.cost_model = CostModel(t_avg=1e-9, t_lat=0.0001)
        assert engine.probe_pool(TimeBudget(10.0)) == 1
        assert len(engine.pool) == 0

    def test_phase_timers(self, fig2_ctx):
        fig2_ctx.cost_model = CostModel(t_avg=100.0, t_lat=0.0001)
        boomer = Boomer(fig2_ctx, strategy="DR")
        formulate_fig2(boomer)
        boomer.apply(Run())
        engine = boomer.engine
        assert engine.formulation_compute.elapsed > 0
        assert engine.run_drain.elapsed > 0
        assert engine.cap_construction_seconds == pytest.approx(
            engine.formulation_compute.elapsed + engine.run_drain.elapsed
        )

    def test_auto_idle_flag(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="DI", auto_idle=False)
        boomer.apply(NewVertex(0, "A"))
        report = boomer.action_reports[-1]
        assert report.idle_probe_seconds == 0.0


class TestIterResults:
    def test_lazy_iteration(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        iterator = boomer.iter_results()
        first = next(iterator)
        assert first.assignment
        remaining = list(iterator)
        assert len(remaining) == 2  # 3 total for the Figure-2 example

    def test_iter_before_run_rejected(self, fig2_ctx):
        import pytest as _pytest

        with _pytest.raises(SessionError):
            next(Boomer(fig2_ctx).iter_results())

    def test_results_consistent_with_iterator(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx))
        boomer.apply(Run())
        eager = [r.assignment for r in boomer.results()]
        lazy = [r.assignment for r in boomer.iter_results()]
        assert eager == lazy
