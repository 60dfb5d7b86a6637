"""Tests for the IC/DR/DI construction strategies.

Uses the Figure-2 graph with an artificially tuned cost model so that
expensiveness is controlled deterministically.
"""

import pytest

from repro.core.blender import BlenderEngine
from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.core.strategies import (
    STRATEGY_NAMES,
    ConstructionStrategy,
    DeferToIdleStrategy,
    DeferToRunStrategy,
    ImmediateStrategy,
    make_strategy,
)
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts
from tests.conftest import build_fig2_graph


def make_engine(strategy: ConstructionStrategy, t_avg=1e-9, t_lat=10.0):
    graph = build_fig2_graph()
    ctx = EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=t_avg, t_lat=t_lat),
    )
    engine = BlenderEngine(ctx, strategy)
    engine.query.add_vertex("A", vertex_id=0)
    engine.query.add_vertex("B", vertex_id=1)
    engine.process_new_vertex(0, "A")
    engine.process_new_vertex(1, "B")
    return engine


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("IC", ImmediateStrategy),
            ("immediate", ImmediateStrategy),
            ("DR", DeferToRunStrategy),
            ("defer-to-run", DeferToRunStrategy),
            ("defer_to_run", DeferToRunStrategy),
            ("DI", DeferToIdleStrategy),
            ("Defer-To-Idle", DeferToIdleStrategy),
        ],
    )
    def test_names(self, name, cls):
        assert isinstance(make_strategy(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("bogus")

    def test_registry_names(self):
        assert STRATEGY_NAMES == ("IC", "DR", "DI")


class TestImmediate:
    def test_always_processes(self):
        engine = make_engine(ImmediateStrategy(), t_avg=100.0, t_lat=0.0001)
        edge = engine.query.add_edge(0, 1, 1, 5)  # hugely "expensive"
        assert engine.strategy.on_new_edge(engine, edge) is True
        assert engine.cap.is_processed(0, 1)
        assert len(engine.pool) == 0


class TestDeferToRun:
    def test_cheap_edge_processed_inline(self):
        engine = make_engine(DeferToRunStrategy(), t_avg=1e-9, t_lat=10.0)
        edge = engine.query.add_edge(0, 1, 1, 5)
        assert engine.strategy.on_new_edge(engine, edge) is True
        assert engine.cap.is_processed(0, 1)

    def test_expensive_edge_pooled(self):
        engine = make_engine(DeferToRunStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        assert engine.strategy.on_new_edge(engine, edge) is False
        assert not engine.cap.is_processed(0, 1)
        assert engine.pool.contains(0, 1)
        assert engine.ctx.counters.edges_deferred == 1

    def test_low_upper_never_pooled(self):
        engine = make_engine(DeferToRunStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 2)
        assert engine.strategy.on_new_edge(engine, edge) is True

    def test_idle_does_nothing(self):
        engine = make_engine(DeferToRunStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        engine.strategy.on_new_edge(engine, edge)
        engine.strategy.on_idle(engine, 1e9)
        assert engine.pool.contains(0, 1)  # still pooled

    def test_on_run_drains(self):
        engine = make_engine(DeferToRunStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        engine.strategy.on_new_edge(engine, edge)
        engine.drain_pool()
        assert not engine.pool
        assert engine.cap.is_processed(0, 1)


class TestDeferToIdle:
    def test_probe_processes_when_budget_allows(self):
        engine = make_engine(DeferToIdleStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        engine.strategy.on_new_edge(engine, edge)
        assert engine.pool.contains(0, 1)
        # Make the pooled edge cheap again by shrinking a level, then probe.
        engine.cap.reset_level(0, [1])
        engine.ctx.cost_model = CostModel(t_avg=1e-9, t_lat=0.001)
        engine.strategy.on_idle(engine, idle_seconds=5.0)
        assert not engine.pool
        assert engine.cap.is_processed(0, 1)

    def test_probe_skips_when_budget_too_small(self):
        engine = make_engine(DeferToIdleStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        engine.strategy.on_new_edge(engine, edge)
        engine.strategy.on_idle(engine, idle_seconds=0.0001)
        assert engine.pool.contains(0, 1)

    def test_zero_idle_noop(self):
        engine = make_engine(DeferToIdleStrategy(), t_avg=100.0, t_lat=0.001)
        edge = engine.query.add_edge(0, 1, 1, 5)
        engine.strategy.on_new_edge(engine, edge)
        engine.strategy.on_idle(engine, 0.0)
        assert engine.pool.contains(0, 1)


def test_names():
    assert ImmediateStrategy().name == "IC"
    assert DeferToRunStrategy().name == "DR"
    assert DeferToIdleStrategy().name == "DI"
