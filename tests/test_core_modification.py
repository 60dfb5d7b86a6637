"""Tests for query modification (Section 6 / Algorithms 5 and 15).

Key correctness property: after any modification the session must produce
exactly the same final results as a fresh session formulating the modified
query from scratch.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.actions import DeleteEdge, ModifyBounds, NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.query import canonical_edge
from repro.errors import CAPStateError
from repro.graph.algorithms import bfs_distances
from tests.conftest import brute_force_upper_matches
from tests.reference_models import SetCAP
from tests.test_core_cap import assert_same_index
from tests.test_core_pvs import make_ctx
from tests.test_property_graph import labeled_graphs


def formulate_fig2(boomer: Boomer, bounds=((1, 1), (1, 2), (1, 3))):
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, *bounds[0]))
    boomer.apply(NewVertex(2, "C"))
    boomer.apply(NewEdge(1, 2, *bounds[1]))
    boomer.apply(NewEdge(0, 2, *bounds[2]))
    return boomer


def match_keys(run_result):
    return {tuple(sorted(m.items())) for m in run_result.matches}


def fresh_reference(ctx_factory, build):
    """Matches of a from-scratch formulation described by `build`."""
    boomer = Boomer(ctx_factory(), strategy="IC")
    build(boomer)
    boomer.apply(Run())
    return match_keys(boomer.run_result)


class TestDeletion:
    def test_delete_processed_edge_equals_fresh(self, fig2_pre):
        from repro.core.preprocessor import make_context
        from repro.core.cost import GUILatencyConstants

        latency = GUILatencyConstants().scaled(0.001)
        make_ctx = lambda: make_context(fig2_pre, latency=latency)

        boomer = formulate_fig2(Boomer(make_ctx(), strategy="IC"))
        report = boomer.apply(DeleteEdge(0, 2)).modification
        assert report.kind == "delete"
        assert report.was_processed
        boomer.apply(Run())

        def build(b):
            b.apply(NewVertex(0, "A"))
            b.apply(NewVertex(1, "B"))
            b.apply(NewEdge(0, 1, 1, 1))
            b.apply(NewVertex(2, "C"))
            b.apply(NewEdge(1, 2, 1, 2))

        assert match_keys(boomer.run_result) == fresh_reference(make_ctx, build)

    def test_delete_pooled_edge_no_cap_change(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        # make everything expensive so the edge is pooled
        from repro.core.cost import CostModel

        fig2_ctx.cost_model = CostModel(t_avg=100.0, t_lat=0.0001)
        boomer.apply(NewEdge(0, 1, 1, 5))
        assert boomer.engine.pool.contains(0, 1)
        report = boomer.apply(DeleteEdge(0, 1)).modification
        assert not report.was_processed
        assert not boomer.engine.pool.contains(0, 1)
        assert not boomer.query.has_edge(0, 1)

    def test_delete_unknown_edge_raises(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(Exception):
            boomer.apply(DeleteEdge(0, 1))  # never drawn


class TestBoundsModification:
    @pytest.fixture()
    def ctx_factory(self, fig2_pre):
        from repro.core.cost import GUILatencyConstants
        from repro.core.preprocessor import make_context

        latency = GUILatencyConstants().scaled(0.001)
        return lambda: make_context(fig2_pre, latency=latency)

    def _reference(self, ctx_factory, bounds):
        def build(b):
            formulate_fig2(b, bounds)

        return fresh_reference(ctx_factory, build)

    def test_tighten_processed_edge(self, ctx_factory):
        boomer = formulate_fig2(Boomer(ctx_factory(), strategy="IC"))
        report = boomer.apply(ModifyBounds(0, 2, 1, 2)).modification
        assert report.kind == "tighten"
        boomer.apply(Run())
        assert match_keys(boomer.run_result) == self._reference(
            ctx_factory, ((1, 1), (1, 2), (1, 2))
        )

    def test_loosen_processed_edge(self, ctx_factory):
        boomer = formulate_fig2(Boomer(ctx_factory(), strategy="IC"))
        report = boomer.apply(ModifyBounds(1, 2, 1, 3)).modification
        assert report.kind == "loosen"
        boomer.apply(Run())
        assert match_keys(boomer.run_result) == self._reference(
            ctx_factory, ((1, 1), (1, 3), (1, 3))
        )

    def test_lower_only_change_is_noop_on_cap(self, ctx_factory):
        boomer = formulate_fig2(Boomer(ctx_factory(), strategy="IC"))
        size_before = boomer.cap.size_report().total
        report = boomer.apply(ModifyBounds(0, 2, 2, 3)).modification
        assert report.kind == "lower-only"
        assert boomer.cap.size_report().total == size_before
        assert boomer.query.edge_between(0, 2).lower == 2

    def test_modify_pooled_edge_updates_pool_only(self, fig2_ctx):
        from repro.core.cost import CostModel

        boomer = Boomer(fig2_ctx, strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        fig2_ctx.cost_model = CostModel(t_avg=100.0, t_lat=0.0001)
        boomer.apply(NewEdge(0, 1, 1, 5))
        report = boomer.apply(ModifyBounds(0, 1, 1, 4)).modification
        assert report.kind == "pooled-update"
        assert boomer.engine.pool.edges()[0].upper == 4

    def test_tighten_matches_brute_force(self, ctx_factory, fig2_graph):
        boomer = formulate_fig2(Boomer(ctx_factory(), strategy="IC"))
        boomer.apply(ModifyBounds(0, 2, 1, 1))
        boomer.apply(Run())
        from repro.core.query import BPHQuery

        query = BPHQuery()
        query.add_vertex("A", vertex_id=0)
        query.add_vertex("B", vertex_id=1)
        query.add_vertex("C", vertex_id=2)
        query.add_edge(0, 1, 1, 1)
        query.add_edge(1, 2, 1, 2)
        query.add_edge(0, 2, 1, 1)
        assert match_keys(boomer.run_result) == brute_force_upper_matches(
            fig2_graph, query
        )


class TestRollbackInternals:
    def test_rollback_resets_levels(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx, strategy="IC"))
        # after formulation some A-candidates were pruned
        assert boomer.cap.candidate_count(0) < 4
        boomer.apply(DeleteEdge(0, 1))
        # IC reprocesses immediately; all edges of the component must be
        # processed again and the index consistent
        assert boomer.engine.pool.contains(0, 1) is False
        boomer.cap.check_consistency(boomer.query)

    def test_modification_report_fields(self, fig2_ctx):
        boomer = formulate_fig2(Boomer(fig2_ctx, strategy="IC"))
        report = boomer.apply(DeleteEdge(0, 2)).modification
        assert report.edge == (0, 2)
        assert report.elapsed_seconds >= 0
        assert set(report.affected_levels) == {0, 1, 2}
        assert (0, 2) not in report.repooled_edges

    def test_modify_unknown_edge_raises(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises((CAPStateError, Exception)):
            boomer.apply(ModifyBounds(0, 1, 1, 2))


class TestDeleteValidation:
    def test_invalid_delete_leaves_query_untouched(self, fig2_ctx):
        """A rejected deletion must not half-mutate the session."""
        from repro.core.actions import DeleteEdge

        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(Exception):
            boomer.apply(DeleteEdge(0, 1))  # edge never drawn
        # session still usable: draw the edge and run
        boomer.apply(NewEdge(0, 1, 1, 1))
        boomer.apply(Run())
        assert boomer.run_result.num_matches > 0


# ----------------------------------------------------------------------
# Conformance: the array CAP under modification == the dict-of-set model
# ----------------------------------------------------------------------
class ModelSession:
    """An IC session over :class:`SetCAP`, pairs from plain BFS.

    It processes edges in the order the real engine did (the transient
    peak depends on it; levels, pairs and prune steps do not), so the two
    indexes must agree after every action.
    """

    def __init__(self, graph, pruning):
        self.graph = graph
        self.cap = SetCAP(pruning)
        self.labels: dict[int, str] = {}
        self.uppers: dict[tuple[int, int], int] = {}
        self._dist = {v: bfs_distances(graph, v) for v in range(graph.num_vertices)}

    def within(self, v, w, upper) -> bool:
        return v != w and 0 <= self._dist[v][w] <= upper

    def new_vertex(self, q, label) -> None:
        self.labels[q] = label
        self.cap.add_level(q, self.graph.vertices_with_label(label).tolist())

    def process(self, u, v) -> None:
        upper = self.uppers[canonical_edge(u, v)]
        self.cap.begin_edge(u, v)
        for vi in self.cap.candidates[u]:
            for vj in self.cap.candidates[v]:
                if self.within(vi, vj, upper):
                    self.cap.add_pair(u, v, vi, vj)
        self.cap.finish_edge(u, v)

    def tighten(self, u, v, upper) -> int:
        self.uppers[canonical_edge(u, v)] = upper
        for vi, targets in list(self.cap.aivs[(u, v)].items()):
            for vj in [vj for vj in targets if not self.within(vi, vj, upper)]:
                self.cap.remove_pair(u, v, vi, vj)
        return len(self.cap.prune_isolated(u, v))

    def rollback(self, u, v, reprocessed) -> None:
        """Algorithm 5: reset the processed component of ``{u, v}``, then
        process what the engine re-processed, in its order."""
        component, frontier = {u}, [u]
        while frontier:
            q = frontier.pop()
            for a, b in self.cap.processed:
                for near, far in ((a, b), (b, a)):
                    if near == q and far not in component:
                        component.add(far)
                        frontier.append(far)
        for q in sorted(component):
            self.cap.reset_level(q, self.graph.vertices_with_label(self.labels[q]).tolist())
        for edge in reprocessed:
            self.process(edge.u, edge.v)


SHAPES = {
    "path": [(0, 1), (1, 2)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "star": [(0, 1), (0, 2), (0, 3)],
}


class TestArrayCapUnderModification:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_tighten_loosen_delete_equal_the_set_model(self, data):
        """Every edge drawn at upper 3; then a random run of tighten
        3 -> 2 -> 1, loosen back up and delete, on random graphs with
        repeating labels, pruning on and off."""
        graph = data.draw(labeled_graphs())
        pruning = data.draw(st.booleans())
        boomer = Boomer(make_ctx(graph), strategy="IC", pruning=pruning, auto_idle=False)
        model = ModelSession(graph, pruning)
        engine = boomer.engine
        processed = []
        attempt = engine._process_edge_once
        engine._process_edge_once = lambda edge: (processed.append(edge), attempt(edge))

        def check():
            assert_same_index(boomer.cap, model.cap)
            assert boomer.cap.processed_edges() == model.cap.processed
            boomer.cap.check_consistency(boomer.query)

        edges = SHAPES[data.draw(st.sampled_from(sorted(SHAPES)))]
        for q in range(1 + max(max(e) for e in edges)):
            label = data.draw(st.sampled_from("ABC"))
            boomer.apply(NewVertex(q, label))
            model.new_vertex(q, label)
        for u, v in edges:
            boomer.apply(NewEdge(u, v, 1, 3))
            model.uppers[(u, v)] = 3
            model.process(u, v)
            check()

        live = list(edges)
        for _ in range(data.draw(st.integers(1, 6))):
            if not live:
                break
            u, v = data.draw(st.sampled_from(live))
            old = model.uppers[(u, v)]
            upper = data.draw(st.sampled_from([0, 1, 2, 3]))  # 0: delete
            del processed[:]
            if upper == 0:
                report = boomer.apply(DeleteEdge(u, v)).modification
                live.remove((u, v))
                del model.uppers[(u, v)]
                model.rollback(u, v, processed)
                assert report.kind == "delete"
            else:
                report = boomer.apply(ModifyBounds(u, v, 1, upper)).modification
                if upper < old:
                    assert report.kind == "tighten" and not processed
                    assert report.pruned_vertices == model.tighten(u, v, upper)
                elif upper > old:
                    assert report.kind == "loosen"
                    model.uppers[(u, v)] = upper
                    model.rollback(u, v, processed)
                else:
                    assert report.kind == "lower-only"
            check()
