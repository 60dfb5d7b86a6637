"""Tests for the shared engine context and its counters."""

import pytest

from repro.core.context import EngineContext, EngineCounters
from repro.core.cost import CostModel
from repro.core.matcher import SimilarityMatcher
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts
from tests.conftest import build_fig2_graph


@pytest.fixture()
def ctx():
    graph = build_fig2_graph()
    return EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=1.0),
    )


class TestCounters:
    def test_snapshot_keys(self):
        counters = EngineCounters()
        snap = counters.snapshot()
        assert set(snap) == {
            "distance_queries",
            "oracle_calls",
            "out_scans",
            "in_scans",
            "pairs_added",
            "edges_processed",
            "edges_deferred",
            "pool_probes",
            "dfs_steps",
            "rows_expanded",
        }
        assert all(v == 0 for v in snap.values())

    def test_reset(self):
        counters = EngineCounters(distance_queries=5, out_scans=2)
        counters.reset()
        assert counters.snapshot() == EngineCounters().snapshot()


class TestContextQueries:
    def test_distance_counted(self, ctx):
        before = ctx.counters.distance_queries
        assert ctx.distance(0, 4) == 2  # v1 -> v5 via v9
        assert ctx.counters.distance_queries == before + 1

    def test_within_counted(self, ctx):
        before = ctx.counters.distance_queries
        assert ctx.within(1, 4, 1)  # v2-v5 edge
        assert not ctx.within(1, 4, 0)
        assert ctx.counters.distance_queries == before + 2

    def test_candidates_for_default_matcher(self, ctx):
        assert ctx.candidates_for("A").tolist() == [0, 1, 2, 3]
        assert ctx.candidates_for("missing").tolist() == []
        # The graph's label index itself, not a copy of it.
        assert ctx.candidates_for("A") is ctx.graph.vertices_with_label("A")

    def test_candidates_for_custom_matcher(self, ctx):
        ctx.matcher = SimilarityMatcher(lambda a, b: 1.0, threshold=1.0)
        assert len(ctx.candidates_for("anything")) == ctx.graph.num_vertices

    def test_scan_override_default_none(self, ctx):
        assert ctx.scan_override is None
