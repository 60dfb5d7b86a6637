"""Tests for the Pruned Landmark Labeling index."""

import random

import pytest

from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.indexing.order import degree_order
from repro.indexing.pml import PrunedLandmarkLabeling
from tests.conftest import build_cycle_graph, build_fig2_graph, build_path_graph
from tests.reference_models import barabasi_albert, erdos_renyi, random_order


def exhaustive_check(graph):
    """Assert PML == BFS on every pair."""
    pml = PrunedLandmarkLabeling.build(graph)
    for u in range(graph.num_vertices):
        truth = bfs_distances(graph, u)
        for v in range(graph.num_vertices):
            assert pml.distance(u, v) == int(truth[v]), (u, v)
    return pml


class TestCorrectness:
    def test_path(self):
        exhaustive_check(build_path_graph(8))

    def test_cycle(self):
        exhaustive_check(build_cycle_graph(9))

    def test_fig2(self):
        exhaustive_check(build_fig2_graph())

    def test_disconnected(self):
        b = GraphBuilder()
        b.add_vertices("abcd")
        b.add_edge(0, 1)
        b.add_edge(2, 3)
        pml = PrunedLandmarkLabeling.build(b.build())
        assert pml.distance(0, 1) == 1
        assert pml.distance(0, 2) == -1
        assert pml.distance(1, 3) == -1

    def test_single_vertex(self):
        b = GraphBuilder()
        b.add_vertex("A")
        pml = PrunedLandmarkLabeling.build(b.build())
        assert pml.distance(0, 0) == 0

    def test_random_er_graphs(self):
        for seed in range(3):
            exhaustive_check(erdos_renyi(40, 60, seed=seed))

    def test_random_ba_graph(self):
        exhaustive_check(barabasi_albert(80, 2, seed=1))

    def test_sampled_pairs_on_larger_graph(self):
        g = barabasi_albert(600, 2, seed=4)
        pml = PrunedLandmarkLabeling.build(g)
        rng = random.Random(0)
        for _ in range(200):
            u = rng.randrange(g.num_vertices)
            v = rng.randrange(g.num_vertices)
            assert pml.distance(u, v) == int(bfs_distances(g, u)[v])

    def test_custom_order_still_correct(self):
        g = erdos_renyi(40, 70, seed=2)
        order = random_order(g, seed=3)
        pml = PrunedLandmarkLabeling.build(g, order=order)
        for u in range(40):
            truth = bfs_distances(g, u)
            for v in range(40):
                assert pml.distance(u, v) == int(truth[v])


class TestWithin:
    def test_within_true_false(self):
        g = build_path_graph(6)
        pml = PrunedLandmarkLabeling.build(g)
        assert pml.within(0, 3, 3)
        assert not pml.within(0, 4, 3)

    def test_within_disconnected_false(self):
        b = GraphBuilder()
        b.add_vertices("ab")
        pml = PrunedLandmarkLabeling.build(b.build())
        assert not pml.within(0, 1, 10)

    def test_within_self(self):
        g = build_path_graph(3)
        pml = PrunedLandmarkLabeling.build(g)
        assert pml.within(1, 1, 0)


class TestIntrospection:
    def test_label_sizes_positive(self):
        g = build_fig2_graph()
        pml = PrunedLandmarkLabeling.build(g)
        assert all(pml.label_size(v) >= 1 for v in range(g.num_vertices))
        assert pml.total_label_entries() == sum(
            pml.label_size(v) for v in range(g.num_vertices)
        )
        assert pml.average_label_size() == pytest.approx(
            pml.total_label_entries() / g.num_vertices
        )

    def test_degree_order_shrinks_labels(self):
        # Degree order should never be (much) worse than random order.
        g = barabasi_albert(300, 2, seed=5)
        by_degree = PrunedLandmarkLabeling.build(g, order=degree_order(g))
        by_random = PrunedLandmarkLabeling.build(g, order=random_order(g, seed=1))
        assert by_degree.total_label_entries() <= by_random.total_label_entries()

    def test_landmark_rank(self):
        g = build_fig2_graph()
        order = degree_order(g)
        pml = PrunedLandmarkLabeling.build(g, order=order)
        for rank, v in enumerate(order):
            assert pml.landmark_rank(int(v)) == rank

    def test_query_count_increments(self):
        g = build_path_graph(4)
        pml = PrunedLandmarkLabeling.build(g)
        before = pml.query_count
        pml.distance(0, 3)
        assert pml.query_count == before + 1

    def test_repr(self):
        pml = PrunedLandmarkLabeling.build(build_path_graph(4))
        assert "PrunedLandmarkLabeling" in repr(pml)

    def test_graph_property(self):
        g = build_path_graph(4)
        assert PrunedLandmarkLabeling.build(g).graph is g

    def test_highest_degree_vertex_has_singleton_label(self):
        # The first landmark's own label is just itself.
        g = barabasi_albert(100, 2, seed=6)
        order = degree_order(g)
        pml = PrunedLandmarkLabeling.build(g, order=order)
        assert pml.label_size(int(order[0])) == 1
