"""Tests for two-hop neighborhood utilities."""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.algorithms import bfs_distances, k_hop_neighborhood
from repro.graph.builder import GraphBuilder
from repro.indexing import twohop
from repro.indexing.twohop import bfs_levels, hop_pairs, level_of, two_hop_counts, two_hop_neighbors
from tests.conftest import build_cycle_graph, build_fig2_graph, build_path_graph


def test_counts_match_sets():
    g = build_fig2_graph()
    counts = two_hop_counts(g)
    for v in range(g.num_vertices):
        assert counts[v] == len(two_hop_neighbors(g, v))


def test_sets_match_bfs_two_hop():
    g = build_fig2_graph()
    for v in range(g.num_vertices):
        assert two_hop_neighbors(g, v) == k_hop_neighborhood(g, v, 2)


def test_path_counts():
    g = build_path_graph(5)
    # middle vertex sees 4 others within 2 hops
    assert two_hop_counts(g)[2] == 4
    assert two_hop_counts(g)[0] == 2


def test_cycle_counts():
    g = build_cycle_graph(6)
    assert all(c == 4 for c in two_hop_counts(g))


def test_excludes_self():
    g = build_cycle_graph(4)
    for v in range(4):
        assert v not in two_hop_neighbors(g, v)


def test_isolated_vertex():
    b = GraphBuilder()
    b.add_vertices("ab")
    g = b.build()
    assert list(two_hop_counts(g)) == [0, 0]
    assert two_hop_neighbors(g, 0) == set()


# ----------------------------------------------------------------------
# hop_pairs: the bounded-hop block kernel
# ----------------------------------------------------------------------
@st.composite
def hop_graphs(draw):
    """Two edge-disjoint parts, optionally a hub, and isolated vertices."""
    sizes = [draw(st.integers(0, 7)) for _ in range(2)]
    n = max(sum(sizes) + draw(st.integers(0, 3)), 1)  # the tail stays isolated
    builder = GraphBuilder("hop")
    builder.add_vertices(draw(st.lists(st.sampled_from("AB"), min_size=n, max_size=n)))
    start = 0
    for size in sizes:
        part = range(start, start + size)
        possible = [(u, v) for u in part for v in part if u < v]
        if possible:
            edges = set(draw(st.lists(st.sampled_from(possible), max_size=2 * size)))
            if draw(st.booleans()):  # a hub: part[0] sees its whole part
                edges |= {(start, v) for v in part if v != start}
            for u, v in sorted(edges):
                builder.add_edge(u, v)
        start += size
    return builder.build()


def bfs_pairs(graph, scanned, member, hops):
    """Ground truth from plain BFS, one source at a time."""
    return {
        (s, t)
        for s in scanned
        for t in k_hop_neighborhood(graph, s, hops)
        if t in member
    }


def assert_block(graph, scanned, member, hops):
    block = hop_pairs(graph, scanned, member, hops)
    assert block.dtype == np.int32 and block.shape[1:] == (2,)
    rows = [tuple(r) for r in block.tolist()]
    assert rows == sorted(set(rows))  # no duplicate row, grouped by source
    assert all(s != t for s, t in rows)
    assert set(rows) == bfs_pairs(graph, set(scanned), set(member), hops)
    ball = two_hop_neighbors if hops == 2 else lambda g, v: set(g.neighbors(v).tolist())
    assert set(rows) == {(s, t) for s in scanned for t in ball(graph, s) & set(member)}
    return rows


@given(hop_graphs(), st.data(), st.sampled_from([1, 2]), st.sampled_from([1, 2, 5, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_hop_pairs_equals_bfs(graph, data, hops, block):
    """Random overlapping sides (same-label levels overlap too), with the
    chunk constant small enough to cut inside one source's expansion."""
    subsets = st.sets(st.integers(0, graph.num_vertices - 1))
    scanned, member = data.draw(subsets), data.draw(subsets)
    with mock.patch.object(twohop, "_HOP_BLOCK", block):
        assert_block(graph, sorted(scanned), list(member), hops)
        assert_block(graph, list(member), sorted(scanned, reverse=True), hops)


@pytest.mark.parametrize("hops", [1, 2])
def test_hop_pairs_chunk_boundary_inside_one_source(hops):
    """A hub's expansion is cut into many chunks; its pairs stay distinct."""
    builder = GraphBuilder("hub")
    builder.add_vertices("A" * 12)
    for v in range(1, 12):
        builder.add_edge(0, v)
        builder.add_edge(v, v % 11 + 1)
    graph = builder.build()
    with mock.patch.object(twohop, "_HOP_BLOCK", 3):
        rows = assert_block(graph, [0, 5], list(range(12)), hops)
    assert len(rows) == 11 + (11 if hops == 2 else 3)


@pytest.mark.parametrize("hops", [1, 2])
def test_hop_pairs_empty_sides(hops):
    graph = build_fig2_graph()
    everything = list(range(graph.num_vertices))
    assert hop_pairs(graph, [], everything, hops).shape == (0, 2)
    assert hop_pairs(graph, everything, [], hops).shape == (0, 2)
    assert hop_pairs(graph, [], [], hops).dtype == np.int32
    assert hop_pairs(GraphBuilder().build(), [], [], hops).shape == (0, 2)


# ----------------------------------------------------------------------
# bfs_levels: bounded balls around many roots at once
# ----------------------------------------------------------------------
@given(hop_graphs(), st.data(), st.sampled_from([1, 2, 5, 1 << 16]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_bfs_levels_equals_bfs(graph, data, block):
    """Every root's ball holds exactly the vertices within its own radius,
    at their BFS distance, under one sorted key array."""
    n = graph.num_vertices
    roots = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    radii = [data.draw(st.integers(0, 4)) for _ in roots]
    with mock.patch.object(twohop, "_HOP_BLOCK", block):
        keys, levels = bfs_levels(graph, roots, radii)
    assert keys.tolist() == sorted(set(keys.tolist()))
    want = {}
    for i, (root, radius) in enumerate(zip(roots, radii)):
        for v, d in enumerate(bfs_distances(graph, root).tolist()):
            if 0 <= d <= radius:
                want[i * max(n, 1) + v] = d
    assert dict(zip(keys.tolist(), levels.tolist())) == want
    probes = np.arange(len(roots) * max(n, 1))
    if len(keys):
        assert level_of(keys, levels, probes, -7).tolist() == [want.get(k, -7) for k in probes.tolist()]
