"""Tests for DetectPath and just-in-time lower-bound filtering."""

import pytest

from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.core.lowerbound import detect_path, filter_by_lower_bound
from repro.core.query import BPHQuery
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts
from tests.conftest import build_cycle_graph, build_fig2_graph, build_path_graph
from tests.reference_models import has_path_within


def make_ctx(graph):
    return EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=1.0),
    )


def assert_valid_path(graph, path, source, target, lower, upper):
    assert path[0] == source and path[-1] == target
    assert lower <= len(path) - 1 <= upper
    assert len(set(path)) == len(path)  # simple
    for a, b in zip(path, path[1:]):
        assert graph.has_edge(a, b)


class TestDetectPath:
    def test_shortest_path_case(self):
        graph = build_path_graph(6)
        ctx = make_ctx(graph)
        path = detect_path(ctx, 0, 3, 1, 5)
        assert_valid_path(graph, path, 0, 3, 1, 5)
        assert len(path) - 1 == 3  # guided search finds the shortest

    def test_detour_needed(self):
        # Cycle of 5: adjacent vertices, lower=2 forces the long way round.
        graph = build_cycle_graph(5)
        ctx = make_ctx(graph)
        path = detect_path(ctx, 0, 1, 2, 4)
        assert_valid_path(graph, path, 0, 1, 2, 4)
        assert len(path) - 1 == 4

    def test_impossible_lower(self):
        # Path graph: the only simple 0->1 path has length 1.
        graph = build_path_graph(4)
        ctx = make_ctx(graph)
        assert detect_path(ctx, 0, 1, 2, 3) is None

    def test_upper_too_small(self):
        graph = build_path_graph(6)
        ctx = make_ctx(graph)
        assert detect_path(ctx, 0, 5, 1, 4) is None

    def test_same_vertex_rejected(self):
        graph = build_cycle_graph(4)
        ctx = make_ctx(graph)
        assert detect_path(ctx, 2, 2, 1, 4) is None

    def test_disconnected(self):
        from repro.graph.builder import GraphBuilder

        b = GraphBuilder()
        b.add_vertices("ab")
        ctx = make_ctx(b.build())
        assert detect_path(ctx, 0, 1, 1, 5) is None

    @pytest.mark.parametrize("lower,upper", [(1, 1), (1, 3), (2, 3), (3, 3), (2, 4)])
    def test_agrees_with_ground_truth_fig2(self, lower, upper):
        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        for u in range(graph.num_vertices):
            for v in range(graph.num_vertices):
                if u == v:
                    continue
                path = detect_path(ctx, u, v, lower, upper)
                exists = has_path_within(graph, u, v, lower, upper)
                if exists:
                    assert path is not None, (u, v)
                    assert_valid_path(graph, path, u, v, lower, upper)
                else:
                    assert path is None, (u, v, path)

    def test_max_nodes_safety_valve(self):
        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        # With a 1-node budget, nontrivial searches give up (returns None
        # rather than hanging); correctness callers use the default budget.
        assert detect_path(ctx, 0, 11, 3, 3, max_nodes=1) is None


class TestTruncationReporting:
    """Budget exhaustion is distinguishable from proven path absence."""

    def test_truncated_flag_set_when_budget_fires(self):
        from repro.core.lowerbound import PathSearchStats

        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        stats = PathSearchStats()
        assert detect_path(ctx, 0, 11, 3, 3, max_nodes=1, stats=stats) is None
        assert stats.truncated
        assert stats.expanded > 0

    def test_proven_absence_is_not_truncated(self):
        from repro.core.lowerbound import PathSearchStats

        graph = build_path_graph(4)
        ctx = make_ctx(graph)
        stats = PathSearchStats()
        # The only simple 0->1 path has length 1 < lower: a full search
        # proves absence without exhausting the budget.
        assert detect_path(ctx, 0, 1, 2, 3, stats=stats) is None
        assert not stats.truncated

    def test_stats_reset_between_searches(self):
        from repro.core.lowerbound import PathSearchStats

        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        stats = PathSearchStats()
        detect_path(ctx, 0, 11, 3, 3, max_nodes=1, stats=stats)
        assert stats.truncated
        detect_path(ctx, 1, 4, 1, 1, stats=stats)  # adjacent, trivially found
        assert not stats.truncated  # reused stats object was reset


class TestFilterTruncationMetric:
    def _truncation_count(self):
        from repro.obs.metrics import metrics

        return metrics.counter("repro_detect_path_truncations_total").value

    def test_truncated_rejection_increments_counter(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        before = self._truncation_count()
        result = filter_by_lower_bound(
            {0: 1, 1: 4, 2: 11}, make_fig2_query(), fig2_ctx, max_nodes=1
        )
        assert result is None  # the (valid) match was dropped at the budget
        assert self._truncation_count() == before + 1

    def test_clean_accept_does_not_increment(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        before = self._truncation_count()
        result = filter_by_lower_bound(
            {0: 1, 1: 4, 2: 11}, make_fig2_query(), fig2_ctx
        )
        assert result is not None
        assert self._truncation_count() == before

    def test_proven_rejection_does_not_increment(self, fig2_ctx):
        query = BPHQuery()
        query.add_vertex("A", vertex_id=0)
        query.add_vertex("B", vertex_id=1)
        query.add_edge(0, 1, 3, 3)
        before = self._truncation_count()
        # v1 (id 0) and v7 (id 6) are in different components: absence is
        # proven immediately, well inside the default budget.
        assert filter_by_lower_bound({0: 0, 1: 6}, query, fig2_ctx) is None
        assert self._truncation_count() == before


class TestFilterByLowerBound:
    def make_query(self, lower=1, upper=3):
        query = BPHQuery()
        query.add_vertex("A", vertex_id=0)
        query.add_vertex("C", vertex_id=1)
        query.add_edge(0, 1, lower, upper)
        return query

    def test_accepts_and_materializes_paths(self):
        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        query = self.make_query(1, 3)
        result = filter_by_lower_bound({0: 1, 1: 11}, query, ctx)  # v2 -> v12
        assert result is not None
        path = result.paths[(0, 1)]
        assert_valid_path(graph, path, 1, 11, 1, 3)

    def test_rejects_when_no_qualifying_path(self):
        graph = build_path_graph(3)
        ctx = make_ctx(graph)
        query = BPHQuery()
        query.add_vertex("P", vertex_id=0)
        query.add_vertex("P", vertex_id=1)
        query.add_edge(0, 1, 2, 2)
        # vertices 0 and 1 are adjacent; no simple path of length exactly 2
        assert filter_by_lower_bound({0: 0, 1: 1}, query, ctx) is None

    def test_multi_edge_all_paths_materialized(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        query = make_fig2_query()
        result = filter_by_lower_bound({0: 1, 1: 4, 2: 11}, query, fig2_ctx)
        assert result is not None
        assert set(result.paths) == {(0, 1), (1, 2), (0, 2)}

    def test_result_subgraph_vertices_include_path_interiors(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        query = make_fig2_query()
        result = filter_by_lower_bound({0: 1, 1: 4, 2: 11}, query, fig2_ctx)
        # v5->v12 path goes through v9 (id 8): interior vertex included.
        assert result.vertices >= {1, 4, 11}
        assert len(result.vertices) >= 4

    def test_path_length_accessor(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        query = make_fig2_query()
        result = filter_by_lower_bound({0: 1, 1: 4, 2: 11}, query, fig2_ctx)
        assert result.path_length(0, 1) == 1  # the [1,1] edge
        assert result.path_length(1, 0) == 1  # order-insensitive

    def test_region_extraction(self, fig2_ctx):
        from tests.conftest import make_fig2_query

        query = make_fig2_query()
        result = filter_by_lower_bound({0: 1, 1: 4, 2: 11}, query, fig2_ctx)
        region, mapping = result.region(fig2_ctx.graph, radius=1)
        assert region.num_vertices >= len(result.vertices)
        for orig in result.vertices:
            assert orig in mapping
