"""Property-based tests on the PML index: exactness against BFS."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.algorithms import bfs_distances
from repro.indexing.pml import PrunedLandmarkLabeling
from tests.reference_models import random_order
from tests.test_property_graph import labeled_graphs


@given(labeled_graphs())
@settings(max_examples=40, deadline=None)
def test_pml_exact_on_all_pairs(graph):
    pml = PrunedLandmarkLabeling.build(graph)
    for u in range(graph.num_vertices):
        truth = bfs_distances(graph, u)
        for v in range(graph.num_vertices):
            assert pml.distance(u, v) == int(truth[v])


@given(labeled_graphs(), st.integers(0, 10))
@settings(max_examples=25, deadline=None)
def test_pml_order_invariance(graph, seed):
    """Any landmark order gives exact answers (sizes differ, not results)."""
    pml = PrunedLandmarkLabeling.build(graph, order=random_order(graph, seed=seed))
    for u in range(graph.num_vertices):
        truth = bfs_distances(graph, u)
        for v in range(graph.num_vertices):
            assert pml.distance(u, v) == int(truth[v])


@given(labeled_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_within_consistent_with_distance(graph, data):
    pml = PrunedLandmarkLabeling.build(graph)
    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    upper = data.draw(st.integers(0, 6))
    d = pml.distance(u, v)
    assert pml.within(u, v, upper) == (0 <= d <= upper)


@given(labeled_graphs())
@settings(max_examples=30, deadline=None)
def test_every_vertex_labeled_at_least_once(graph):
    """Each vertex's label list covers itself (its own pruned BFS visit)."""
    pml = PrunedLandmarkLabeling.build(graph)
    for v in range(graph.num_vertices):
        assert pml.label_size(v) >= 1
