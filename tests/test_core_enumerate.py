"""Tests for partial-matched vertex set enumeration (V_Delta)."""

import gc
import weakref
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import enumerate as enumerate_module
from repro.core.blender import Boomer
from repro.core.cap import CAPIndex
from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.enumerate import (
    PartialMatches,
    iter_partial_vertex_sets,
    partial_vertex_sets,
    reorder_matching_order,
)
from repro.errors import CAPStateError, DeadlineExceededError
from repro.resilience import Deadline
from tests.conftest import (
    brute_force_upper_matches,
    build_fig2_graph,
    make_fig2_query,
)
from tests.reference_models import recursive_dfs
from tests.test_core_pvs import make_ctx
from tests.test_property_graph import labeled_graphs


@pytest.fixture()
def fig2_run(fig2_ctx):
    """A completed Boomer run of the Figure-2 Q1 query."""
    boomer = Boomer(fig2_ctx, strategy="IC")
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, 1, 1))
    boomer.apply(NewVertex(2, "C"))
    boomer.apply(NewEdge(1, 2, 1, 2))
    boomer.apply(NewEdge(0, 2, 1, 3))
    boomer.apply(Run())
    return boomer


class TestPaperExample:
    def test_v_delta_matches_paper(self, fig2_run):
        # Paper Section 5.1: V_Delta = {{v2,v5,v12},{v3,v6,v12},{v3,v8,v12}}
        got = {
            tuple(sorted(m.items())) for m in fig2_run.run_result.matches
        }
        want = {
            ((0, 1), (1, 4), (2, 11)),
            ((0, 2), (1, 5), (2, 11)),
            ((0, 2), (1, 7), (2, 11)),
        }
        assert got == want

    def test_matches_brute_force(self, fig2_run):
        graph = build_fig2_graph()
        query = make_fig2_query()
        want = brute_force_upper_matches(graph, query)
        got = {tuple(sorted(m.items())) for m in fig2_run.run_result.matches}
        assert got == want


class TestReorder:
    def test_sorted_by_candidate_size(self, fig2_run):
        order = reorder_matching_order(fig2_run.query, fig2_run.cap)
        sizes = [fig2_run.cap.candidate_count(q) for q in order]
        assert sizes == sorted(sizes)

    def test_ties_keep_user_order(self, fig2_run):
        cap = fig2_run.cap
        # make all levels the same size artificially
        base = fig2_run.query.matching_order
        order = reorder_matching_order(fig2_run.query, cap, base)
        # q2 (level C, 1 candidate) must come first
        assert order[0] == 2
        _ = base


class TestEnumeration:
    def test_unprocessed_edge_rejected(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 1))
        # force an unprocessed state by pooling manually
        engine = boomer.engine
        engine.cap.drop_edge(0, 1)
        with pytest.raises(CAPStateError):
            list(iter_partial_vertex_sets(engine.query, engine.cap))

    def test_max_results_truncation(self, fig2_run):
        engine = fig2_run.engine
        result = partial_vertex_sets(engine.query, engine.cap, max_results=2)
        assert len(result) == 2
        assert result.truncated

    def test_no_truncation_flag_when_complete(self, fig2_run):
        engine = fig2_run.engine
        result = partial_vertex_sets(engine.query, engine.cap, max_results=100)
        assert not result.truncated
        assert len(result) == 3

    def test_deterministic_order(self, fig2_run):
        engine = fig2_run.engine
        a = partial_vertex_sets(engine.query, engine.cap).matches
        b = partial_vertex_sets(engine.query, engine.cap).matches
        assert a == b

    def test_reorder_false_same_set(self, fig2_run):
        engine = fig2_run.engine
        a = partial_vertex_sets(engine.query, engine.cap, reorder=True)
        b = partial_vertex_sets(engine.query, engine.cap, reorder=False)
        key = lambda ms: {tuple(sorted(m.items())) for m in ms}
        assert key(a.matches) == key(b.matches)

    def test_injectivity_enforced(self, fig2_ctx):
        # Two query vertices with the same label must map to distinct data
        # vertices (1-1 p-hom).
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "B"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 2))
        boomer.apply(Run())
        for match in boomer.run_result.matches:
            assert match[0] != match[1]

    def test_iterator_is_lazy(self, fig2_run):
        engine = fig2_run.engine
        iterator = iter_partial_vertex_sets(engine.query, engine.cap)
        first = next(iterator)
        assert isinstance(first, dict)
        assert set(first) == {0, 1, 2}

    def test_empty_query_yields_nothing(self, fig2_ctx):
        from repro.core.cap import CAPIndex
        from repro.core.query import BPHQuery

        assert list(iter_partial_vertex_sets(BPHQuery(), CAPIndex())) == []

    def test_single_vertex_query(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "C"))
        boomer.apply(Run())
        assert [m[0] for m in boomer.run_result.matches] == [11]


class TestNoReferenceCycle:
    def test_dropped_engine_frees_its_cap_without_the_collector(self, fig2_ctx):
        # The DFS helper used to be a closure calling itself: function and
        # cell formed a cycle whose other cells pinned the CAP of every
        # finished Run until the next full collection.
        gc.collect()
        gc.disable()
        try:
            boomer = Boomer(fig2_ctx, strategy="IC", max_results=1)  # truncates
            for action in (
                NewVertex(0, "A"),
                NewVertex(1, "B"),
                NewEdge(0, 1, 1, 3),
                Run(),
            ):
                boomer.apply(action)
            assert boomer.run_result.matches.truncated
            cap_ref = weakref.ref(boomer.engine.cap)
            del boomer
            assert cap_ref() is None
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            assert not [o for o in gc.garbage if isinstance(o, CAPIndex)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()


# ----------------------------------------------------------------------
# Conformance of the block DFS against the recursion it replaced
# ----------------------------------------------------------------------
#: Query shapes as edge lists over vertices 0..n-1.
SHAPES = {
    "edge": [(0, 1)],
    "path": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "square": [(0, 1), (1, 2), (2, 3), (0, 3)],
}


@st.composite
def built_caps(draw):
    """``(query, cap, a matching order)`` of a random query on a random
    graph, every edge processed; labels repeat (the same data vertex sits
    in several levels), levels may be empty, pruning on or off, and the
    order is any permutation (a vertex may precede all its neighbors)."""
    graph = draw(labeled_graphs())
    edges = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    n = 1 + max(max(edge) for edge in edges)
    boomer = Boomer(
        make_ctx(graph), strategy="IC", pruning=draw(st.booleans()), auto_idle=False
    )
    for q in range(n):
        boomer.apply(NewVertex(q, draw(st.sampled_from("ABC"))))
    for u, v in edges:
        boomer.apply(NewEdge(u, v, 1, draw(st.integers(1, 3))))
    return boomer.query, boomer.cap, list(draw(st.permutations(range(n))))


class TestBlockDFSConformance:
    @given(built_caps(), st.sampled_from([1, 2, 7, 2048]))
    @settings(max_examples=150, deadline=None)
    def test_rows_order_and_truncation_equal_the_recursion(self, built, chunk):
        query, cap, drawn = built
        with mock.patch.object(enumerate_module, "_CHUNK", chunk):
            for reorder in (True, False):
                order = reorder_matching_order(query, cap, drawn) if reorder else drawn
                want, _ = recursive_dfs(query, cap, order)
                got = partial_vertex_sets(query, cap, matching_order=drawn, reorder=reorder)
                assert (got.order, got.matches, got.truncated) == (order, want, False)
                assert got.block.dtype == np.int32 and got.block.shape == (len(want), len(order))
                assert list(iter_partial_vertex_sets(query, cap, drawn, reorder=reorder)) == want
                m = len(want)
                for cap_at in {0, 1, max(m - 1, 0), m, m + 1}:
                    capped = partial_vertex_sets(
                        query, cap, matching_order=drawn, max_results=cap_at, reorder=reorder
                    )
                    assert (capped.matches, capped.truncated) == recursive_dfs(
                        query, cap, order, max_results=cap_at
                    )
                    assert capped.truncated == (m > cap_at)

    def test_a_vertex_before_all_its_neighbors_takes_the_whole_level(self, fig2_run):
        """Path A-B-C drawn as A, C, B: C has no matched neighbor yet."""
        engine = fig2_run.engine
        got = partial_vertex_sets(engine.query, engine.cap, matching_order=[0, 2, 1], reorder=False)
        assert got.order == [0, 2, 1]
        assert got.matches == recursive_dfs(engine.query, engine.cap, [0, 2, 1])[0]
        assert {tuple(sorted(m.items())) for m in got} == brute_force_upper_matches(
            build_fig2_graph(), make_fig2_query()
        )

    def test_an_expired_deadline_raises_at_the_first_chunk(self, fig2_run):
        engine = fig2_run.engine
        with pytest.raises(DeadlineExceededError):
            partial_vertex_sets(engine.query, engine.cap, deadline=Deadline(0.0))
        with pytest.raises(DeadlineExceededError):
            next(iter_partial_vertex_sets(engine.query, engine.cap, deadline=Deadline(0.0)))


class TestPartialMatchesViews:
    def test_iteration_is_lazy_and_matches_is_cached(self):
        block = np.arange(12, dtype=np.int32).reshape(4, 3)
        found = PartialMatches([5, 1, 3], block, truncated=True)
        assert len(found) == 4 and found.truncated and found.extras == {}
        assert next(iter(found)) == {5: 0, 1: 1, 3: 2}
        assert "matches" not in vars(found)  # iterating built no list
        assert found.matches is found.matches
        assert found.matches == list(found)
        assert all(type(v) is int for m in found.matches for v in m.values())

    def test_from_dicts_is_the_same_block(self):
        dicts = [{1: 4, 0: 7}, {0: 2, 1: 4}]
        found = PartialMatches.from_dicts(dicts, order=[1, 0], extras={"fallback": "bu-bfs"})
        assert found.block.tolist() == [[4, 7], [4, 2]] and found.block.dtype == np.int32
        assert found.matches == dicts and found.extras == {"fallback": "bu-bfs"}
        assert PartialMatches.from_dicts(dicts).order == [0, 1]
        assert len(PartialMatches.from_dicts([], order=[3, 4])) == 0
