"""Tests for PopulateVertexSet and its three search strategies.

Each search must produce exactly the pairs whose BFS distance satisfies the
edge's upper bound — verified against ground truth on the Figure-2 graph
and random graphs.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.actions import ModifyBounds, NewEdge, NewVertex
from repro.core.blender import Boomer
from repro.core.cap import CAPIndex
from repro.core.cost import CostModel
from repro.core.context import EngineContext
from repro.core.pvs import (
    large_upper_search,
    neighbor_search,
    populate_vertex_set,
    two_hop_search,
)
from repro.core.query import BPHQuery
from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts
from tests.conftest import build_fig2_graph
from tests.reference_models import cap_state, erdos_renyi
from tests.test_property_graph import labeled_graphs


def make_ctx(graph, scan_override=None):
    ctx = EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=1.0),
    )
    ctx.scan_override = scan_override
    return ctx


def expected_pairs(graph, cands_i, cands_j, upper):
    out = set()
    for vi in cands_i:
        dist = bfs_distances(graph, vi)
        for vj in cands_j:
            if vi != vj and 0 <= dist[vj] <= upper:
                out.add((vi, vj))
    return out


def begin_two_levels(graph, label_i, label_j, upper):
    query = BPHQuery()
    query.add_vertex(label_i, vertex_id=0)
    query.add_vertex(label_j, vertex_id=1)
    edge = query.add_edge(0, 1, 1, upper)
    cap = CAPIndex()
    cap.add_level(0, (int(v) for v in graph.vertices_with_label(label_i)))
    cap.add_level(1, (int(v) for v in graph.vertices_with_label(label_j)))
    cap.begin_edge(0, 1)
    return cap, edge


def run_search(graph, label_i, label_j, upper, ctx=None, force=False):
    ctx = ctx or make_ctx(graph)
    cap, edge = begin_two_levels(graph, label_i, label_j, upper)
    populate_vertex_set(cap, ctx, edge, force_large_upper=force)
    actual = {
        (vi, vj) for vi in cap.candidates(0) for vj in cap.aivs(0, 1, vi)
    }
    want = expected_pairs(
        graph,
        [int(v) for v in graph.vertices_with_label(label_i)],
        [int(v) for v in graph.vertices_with_label(label_j)],
        upper,
    )
    return actual, want, cap


class TestDispatch:
    @pytest.mark.parametrize("upper", [1, 2, 3, 5])
    def test_matches_ground_truth(self, upper):
        graph = build_fig2_graph()
        actual, want, _ = run_search(graph, "A", "B", upper)
        assert actual == want

    @pytest.mark.parametrize("upper", [1, 2])
    def test_forced_large_upper_same_result(self, upper):
        graph = build_fig2_graph()
        a1, w, _ = run_search(graph, "A", "B", upper)
        a2, _, _ = run_search(graph, "A", "B", upper, force=True)
        assert a1 == a2 == w


class TestNeighborSearch:
    def test_equals_truth_fig2(self):
        graph = build_fig2_graph()
        actual, want, _ = run_search(graph, "A", "B", 1)
        assert actual == want

    def test_same_label_levels_skip_self(self):
        graph = build_fig2_graph()
        actual, _, _ = run_search(graph, "B", "B", 1)
        assert all(vi != vj for vi, vj in actual)
        # v5-v6 is an edge between two B vertices
        assert (4, 5) in actual and (5, 4) in actual

    @pytest.mark.parametrize("mode", ["in", "out"])
    def test_forced_scan_modes_agree(self, mode):
        graph = build_fig2_graph()
        forced, want, _ = run_search(graph, "A", "B", 1, ctx=make_ctx(graph, mode))
        assert forced == want

    def test_counters(self):
        graph = build_fig2_graph()
        ctx = make_ctx(graph, "out")
        run_search(graph, "A", "B", 1, ctx=ctx)
        assert ctx.counters.out_scans == 4  # one per A candidate
        assert ctx.counters.in_scans == 0
        assert ctx.counters.pairs_added > 0


class TestTwoHopSearch:
    def test_equals_truth_fig2(self):
        graph = build_fig2_graph()
        actual, want, _ = run_search(graph, "A", "B", 2)
        assert actual == want

    @pytest.mark.parametrize("mode", ["in", "out"])
    def test_forced_scan_modes_agree(self, mode):
        graph = build_fig2_graph()
        forced, want, _ = run_search(graph, "A", "B", 2, ctx=make_ctx(graph, mode))
        assert forced == want

    def test_random_graphs(self):
        for seed in range(3):
            graph = erdos_renyi(
                30, 45, seed=seed, labels=["X" if v % 2 else "Y" for v in range(30)]
            )
            actual, want, _ = run_search(graph, "X", "Y", 2)
            assert actual == want


class TestLargeUpperSearch:
    @pytest.mark.parametrize("upper", [3, 4, 10])
    def test_equals_truth(self, upper):
        graph = build_fig2_graph()
        actual, want, _ = run_search(graph, "A", "C", upper)
        assert actual == want

    def test_counts_distance_queries(self):
        graph = build_fig2_graph()
        ctx = make_ctx(graph)
        run_search(graph, "A", "B", 3, ctx=ctx)
        assert ctx.counters.distance_queries == 4 * 4

    def test_random_graphs(self):
        for seed in range(3):
            graph = erdos_renyi(
                25, 40, seed=seed, labels=["X" if v % 3 else "Y" for v in range(25)]
            )
            actual, want, _ = run_search(graph, "X", "Y", 3)
            assert actual == want


def test_direct_function_calls_equal_dispatch():
    graph = build_fig2_graph()
    for upper, fn in ((1, neighbor_search), (2, two_hop_search), (3, large_upper_search)):
        ctx = make_ctx(graph)
        cap, edge = begin_two_levels(graph, "A", "B", upper)
        fn(cap, ctx, edge)
        got = {(vi, vj) for vi in cap.candidates(0) for vj in cap.aivs(0, 1, vi)}
        want = expected_pairs(
            graph,
            [int(v) for v in graph.vertices_with_label("A")],
            [int(v) for v in graph.vertices_with_label("B")],
            upper,
        )
        assert got == want


# ----------------------------------------------------------------------
# Conformance of the block searches (upper 1 and 2)
# ----------------------------------------------------------------------
def scalar_scan_choice(ctx, cap, edge):
    """``(out_scans, in_scans)``: the Lemma 5.3/5.4 choice, one source at a
    time in Python floats, as the scalar searches stated it."""
    graph = ctx.graph
    qi, qj = edge.u, edge.v
    if cap.candidate_count(qj) < cap.candidate_count(qi):
        qi, qj = qj, qi
    v_qj = cap.candidates(qj).tolist()
    label = graph.label(v_qj[0]) if v_qj else None
    p_label, size_j = graph.label_frequency(label), len(v_qj)
    log2 = lambda x: math.log2(x) if x > 1 else 1.0
    mean_deg = (2.0 * graph.num_edges / graph.num_vertices) if len(graph) else 0.0
    out_scans = 0
    for vi in cap.candidates(qi).tolist():
        deg_vi = graph.degree(vi)
        if edge.upper == 1:
            cost_out = deg_vi + deg_vi * p_label * log2(size_j)
            cost_in = size_j * log2(deg_vi)
        else:
            twohop_vi = int(ctx.two_hop[vi])
            cost_out = twohop_vi + twohop_vi * p_label * log2(size_j)
            cost_in = size_j * (deg_vi + mean_deg)
        out_scans += cost_out < cost_in
    return out_scans, cap.candidate_count(qi) - out_scans


def assert_three_arms(graph, label_i, label_j, upper):
    """Cost-model, forced-in and forced-out arms build one CAP; the counters
    say how each source was scanned."""
    built = {}
    for arm in (None, "in", "out"):
        ctx = make_ctx(graph, arm)
        cap, edge = begin_two_levels(graph, label_i, label_j, upper)
        scanned = min(cap.candidate_count(0), cap.candidate_count(1))
        chosen = scalar_scan_choice(ctx, cap, edge)
        populate_vertex_set(cap, ctx, edge)
        built[arm] = cap_state(cap)
        counters = ctx.counters
        assert (counters.out_scans, counters.in_scans) == {
            None: chosen, "in": (0, scanned), "out": (scanned, 0)
        }[arm]
        assert counters.pairs_added == len(cap.pairs(0, 1))
    assert built[None] == built["in"] == built["out"]
    want = expected_pairs(graph, cap.candidates(0).tolist(), cap.candidates(1).tolist(), upper)
    _, pairs = built[None]
    assert pairs[(0, 1)] == want == {(vi, vj) for vj, vi in pairs[(1, 0)]}
    # Stored the way the kernels emit them: sorted by (source, target).
    for direction in ((0, 1), (1, 0)):
        assert cap.pairs(*direction).tolist() == sorted(map(list, pairs[direction]))


class TestBlockSearchConformance:
    @given(labeled_graphs(), st.sampled_from("ABC"), st.sampled_from("ABC"), st.sampled_from([1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_arms_agree_on_random_graphs(self, graph, label_i, label_j, upper):
        """Includes same-label levels, empty levels and degree-0 sources."""
        assert_three_arms(graph, label_i, label_j, upper)

    @pytest.mark.parametrize("upper", [1, 2])
    def test_arms_agree_when_the_choice_is_mixed(self, upper):
        """A hub and a leaf in one scanned level: at upper 1 the cost model
        in-scans the hub and out-scans the leaf, at upper 2 the reverse."""
        builder = GraphBuilder("mixed")
        builder.add_vertices("BB" + "A" * 4 + "C" * 64)
        for v in range(1, 70):
            builder.add_edge(0, v)
        builder.add_edge(1, 2)
        graph = builder.build()
        cap, edge = begin_two_levels(graph, "A", "B", upper)
        assert scalar_scan_choice(make_ctx(graph), cap, edge) == (1, 1)
        assert_three_arms(graph, "A", "B", upper)

    def test_a_tie_is_an_in_scan(self):
        """deg 1, p_label 1, |V_qj| 2: cost_out == cost_in == 2.0 exactly."""
        builder = GraphBuilder("tie")
        builder.add_vertices("AA")
        builder.add_edge(0, 1)
        graph = builder.build()
        ctx = make_ctx(graph)
        cap, edge = begin_two_levels(graph, "A", "A", 1)
        assert scalar_scan_choice(ctx, cap, edge) == (0, 2)
        populate_vertex_set(cap, ctx, edge)
        assert (ctx.counters.out_scans, ctx.counters.in_scans) == (0, 2)
        assert cap.pairs(0, 1).tolist() == [[0, 1], [1, 0]] == cap.pairs(1, 0).tolist()

    @given(labeled_graphs(), st.sampled_from([(3, 2), (2, 1), (3, 1)]))
    @settings(max_examples=40, deadline=None)
    def test_tighten_equals_a_fresh_build(self, graph, bounds):
        """Algorithm 15 re-validates through the same kernel: the index
        after tightening is the one built at the new bound."""
        old, new = bounds
        labels = graph.labels()
        a, b = labels[0], labels[-1]
        script = [NewVertex(0, a), NewVertex(1, b), NewVertex(2, a)]
        tightened = Boomer(make_ctx(graph), strategy="IC", auto_idle=False)
        fresh = Boomer(make_ctx(graph), strategy="IC", auto_idle=False)
        for action in script + [NewEdge(0, 1, 1, old), NewEdge(1, 2, 1, 2)]:
            tightened.apply(action)
        assert tightened.apply(ModifyBounds(0, 1, 1, new)).modification.kind == "tighten"
        for action in script + [NewEdge(0, 1, 1, new), NewEdge(1, 2, 1, 2)]:
            fresh.apply(action)
        assert cap_state(tightened.cap) == cap_state(fresh.cap)
