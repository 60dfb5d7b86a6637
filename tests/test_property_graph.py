"""Property-based tests on the graph substrate (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.algorithms import (
    connected_components,
    distance,
)
from repro.graph.builder import GraphBuilder


@st.composite
def labeled_graphs(draw, max_n=14):
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = draw(
        st.lists(st.sampled_from("ABC"), min_size=n, max_size=n)
    )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=3 * n)) if possible else []
    builder = GraphBuilder("hyp")
    builder.add_vertices(labels)
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_handshake_lemma(graph):
    assert int(graph.degree_array().sum()) == 2 * graph.num_edges


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_neighbors_symmetric(graph):
    for u, v in graph.iter_edges():
        assert graph.has_edge(u, v) and graph.has_edge(v, u)
        assert v in set(int(x) for x in graph.neighbors(u))
        assert u in set(int(x) for x in graph.neighbors(v))


@given(labeled_graphs())
@settings(max_examples=40, deadline=None)
def test_label_index_partition(graph):
    total = 0
    for label in graph.distinct_labels():
        ids = graph.vertices_with_label(label)
        total += len(ids)
        assert all(graph.label(int(v)) == label for v in ids)
    assert total == graph.num_vertices


@given(labeled_graphs(), st.data())
@settings(max_examples=50, deadline=None)
def test_distance_triangle_inequality(graph, data):
    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    w = data.draw(st.integers(0, n - 1))
    duv = distance(graph, u, v)
    dvw = distance(graph, v, w)
    duw = distance(graph, u, w)
    if duv >= 0 and dvw >= 0:
        assert duw >= 0
        assert duw <= duv + dvw


@given(labeled_graphs(), st.data())
@settings(max_examples=50, deadline=None)
def test_distance_symmetry(graph, data):
    n = graph.num_vertices
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    assert distance(graph, u, v) == distance(graph, v, u)


@given(labeled_graphs())
@settings(max_examples=40, deadline=None)
def test_components_partition_vertices(graph):
    comps = connected_components(graph)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(range(graph.num_vertices))
    # intra-component reachability, inter-component separation
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    for u, v in graph.iter_edges():
        assert comp_of[u] == comp_of[v]


@given(labeled_graphs())
@settings(max_examples=30, deadline=None)
def test_induced_subgraph_of_all_vertices_is_isomorphic(graph):
    sub = graph.induced_subgraph(list(range(graph.num_vertices)))
    assert sub.num_vertices == graph.num_vertices
    assert sub.num_edges == graph.num_edges
