"""Tests for landmark orderings."""

import numpy as np

from repro.graph.builder import GraphBuilder
from repro.indexing.order import degree_order
from tests.conftest import build_fig2_graph, build_path_graph
from tests.reference_models import random_order


def test_degree_order_descending():
    g = build_fig2_graph()
    order = degree_order(g)
    degrees = [g.degree(int(v)) for v in order]
    assert degrees == sorted(degrees, reverse=True)


def test_degree_order_ties_by_id():
    g = build_path_graph(4)  # degrees [1,2,2,1]
    order = [int(v) for v in degree_order(g)]
    assert order == [1, 2, 0, 3]


def test_degree_order_is_permutation():
    g = build_fig2_graph()
    assert sorted(int(v) for v in degree_order(g)) == list(range(g.num_vertices))


def test_random_order_is_permutation_and_seeded():
    g = build_fig2_graph()
    a = random_order(g, seed=1)
    b = random_order(g, seed=1)
    c = random_order(g, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sorted(int(v) for v in a) == list(range(g.num_vertices))


def test_empty_graph():
    g = GraphBuilder().build()
    assert len(degree_order(g)) == 0
    assert len(random_order(g)) == 0
