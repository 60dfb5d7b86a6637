"""Tests for repro.graph.algorithms."""

import pytest

from repro.graph.algorithms import (
    bfs_distances,
    connected_components,
    distance,
    largest_component,
    region_around,
)
from repro.graph.builder import GraphBuilder
from tests.conftest import build_cycle_graph, build_fig2_graph, build_path_graph
from tests.reference_models import has_path_within, k_hop_neighborhood


@pytest.fixture()
def two_components():
    b = GraphBuilder()
    b.add_vertices("abcde")
    b.add_edge(0, 1)
    b.add_edge(1, 2)
    b.add_edge(3, 4)
    return b.build()


class TestBFSDistances:
    def test_path_graph(self):
        g = build_path_graph(5)
        assert list(bfs_distances(g, 0)) == [0, 1, 2, 3, 4]

    def test_unreachable_is_minus_one(self, two_components):
        d = bfs_distances(two_components, 0)
        assert d[3] == -1 and d[4] == -1

    def test_cutoff(self):
        g = build_path_graph(6)
        d = bfs_distances(g, 0, cutoff=2)
        assert list(d) == [0, 1, 2, -1, -1, -1]

    def test_cycle_symmetry(self):
        g = build_cycle_graph(6)
        d = bfs_distances(g, 0)
        assert list(d) == [0, 1, 2, 3, 2, 1]


class TestDistance:
    def test_self_distance(self):
        assert distance(build_path_graph(3), 1, 1) == 0

    def test_matches_bfs(self):
        g = build_fig2_graph()
        for u in range(g.num_vertices):
            vec = bfs_distances(g, u)
            for v in range(g.num_vertices):
                assert distance(g, u, v) == int(vec[v])

    def test_unreachable(self, two_components):
        assert distance(two_components, 0, 4) == -1

    def test_cutoff_limits_search(self):
        g = build_path_graph(10)
        assert distance(g, 0, 9, cutoff=3) == -1
        assert distance(g, 0, 3, cutoff=3) == 3


class TestKHop:
    def test_one_hop(self):
        g = build_path_graph(5)
        assert k_hop_neighborhood(g, 2, 1) == {1, 3}

    def test_two_hop(self):
        g = build_path_graph(5)
        assert k_hop_neighborhood(g, 2, 2) == {0, 1, 3, 4}

    def test_zero_hop_empty(self):
        assert k_hop_neighborhood(build_path_graph(3), 0, 0) == set()

    def test_excludes_source(self):
        g = build_cycle_graph(4)
        assert 0 not in k_hop_neighborhood(g, 0, 2)


class TestComponents:
    def test_single_component(self):
        assert len(connected_components(build_cycle_graph(5))) == 1

    def test_two_components_sorted_by_size(self, two_components):
        comps = connected_components(two_components)
        assert len(comps) == 2
        assert len(comps[0]) == 3
        assert len(comps[1]) == 2

    def test_largest_component(self, two_components):
        g = largest_component(two_components)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_covers_all_vertices(self):
        g = build_fig2_graph()
        comps = connected_components(g)
        assert sorted(v for comp in comps for v in comp) == list(range(g.num_vertices))


class TestHasPathWithin:
    def test_simple_edge(self):
        g = build_path_graph(3)
        assert has_path_within(g, 0, 1, 1, 1)

    def test_lower_bound_excludes_short(self):
        g = build_path_graph(3)
        assert not has_path_within(g, 0, 1, 2, 3)  # only path has length 1

    def test_cycle_gives_detour(self):
        g = build_cycle_graph(5)
        # adjacent vertices also joined by the 4-long way around
        assert has_path_within(g, 0, 1, 2, 4)
        assert not has_path_within(g, 0, 1, 2, 3)

    def test_same_vertex_rejected(self):
        g = build_cycle_graph(4)
        assert not has_path_within(g, 0, 0, 1, 4)

    def test_upper_cuts_off(self):
        g = build_path_graph(6)
        assert not has_path_within(g, 0, 5, 1, 4)
        assert has_path_within(g, 0, 5, 1, 5)

    def test_invalid_bounds(self):
        g = build_path_graph(3)
        assert not has_path_within(g, 0, 2, 3, 2)


class TestRegionAround:
    def test_zero_radius(self):
        g = build_fig2_graph()
        region, mapping = region_around(g, [1, 4], radius=0)
        assert region.num_vertices == 2
        assert set(mapping) == {1, 4}

    def test_radius_one_includes_halo(self):
        g = build_path_graph(5)
        region, mapping = region_around(g, [2], radius=1)
        assert set(mapping) == {2, 1, 3}
        assert region.num_edges == 2

    def test_core_vertices_first(self):
        g = build_path_graph(5)
        _, mapping = region_around(g, [3], radius=1)
        assert mapping[3] == 0  # core comes first in the region ids

    def test_mapping_consistent_with_labels(self):
        g = build_fig2_graph()
        region, mapping = region_around(g, [11], radius=1)
        for orig, new in mapping.items():
            assert region.label(new) == g.label(orig)
