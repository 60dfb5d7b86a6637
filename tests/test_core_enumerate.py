"""Tests for partial-matched vertex set enumeration (V_Delta)."""

import gc
import weakref

import pytest

from repro.core.blender import Boomer
from repro.core.cap import CAPIndex
from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.enumerate import (
    iter_partial_vertex_sets,
    partial_vertex_sets,
    reorder_matching_order,
)
from repro.errors import CAPStateError
from tests.conftest import (
    brute_force_upper_matches,
    build_fig2_graph,
    make_fig2_query,
)


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
