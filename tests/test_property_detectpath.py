"""Property-based tests for DetectPath (just-in-time lower-bound search)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.core.lowerbound import detect_path
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts
from tests.reference_models import has_path_within
from tests.test_property_graph import labeled_graphs


def make_ctx(graph):
    return EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=1.0),
    )


@given(labeled_graphs(max_n=10), st.data())
@settings(max_examples=60, deadline=None)
def test_detect_path_complete_and_sound(graph, data):
    """detect_path finds a qualifying simple path iff one exists."""
    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    lower = data.draw(st.integers(1, 3))
    upper = lower + data.draw(st.integers(0, 2))
    ctx = make_ctx(graph)
    path = detect_path(ctx, u, v, lower, upper)
    exists = u != v and has_path_within(graph, u, v, lower, upper)
    if exists:
        assert path is not None
        assert path[0] == u and path[-1] == v
        assert lower <= len(path) - 1 <= upper
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)
    else:
        assert path is None


@given(labeled_graphs(max_n=10), st.data())
@settings(max_examples=40, deadline=None)
def test_lower_one_finds_shortest(graph, data):
    """With lower=1 the distance-guided search returns a shortest path."""
    from repro.graph.algorithms import distance

    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u == v:
        return
    d = distance(graph, u, v)
    ctx = make_ctx(graph)
    path = detect_path(ctx, u, v, 1, max(d, 1) + 2 if d > 0 else 3)
    if d < 0:
        assert path is None
    else:
        assert path is not None
        assert len(path) - 1 == d
