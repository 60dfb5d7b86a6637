"""Block lower-bound verify == the scalar Algorithms 13/14, row by row.

The model is ``tests/reference_models.py``: one ``scalar_detect_path`` per
(match, query edge) in edge order, an oracle query per DFS node, stopping
at a match's first failing edge.  The block entry must return the same
verdicts and byte-identical paths, report the same ``truncated``, and
bump ``repro_detect_path_truncations_total`` exactly as often — over the
PML kernel, ``BFSOracle`` and the reference ``CountingOracle`` (whose
kernels are per-pair loops of scalar calls).  Also pins what a page
charges to the counters and how few rows ``iter_results`` /
``results(limit)`` may touch.
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import blender as blender_module
from repro.core import lowerbound
from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.core.enumerate import PartialMatches
from repro.core.lowerbound import PathSearchStats, detect_path, filter_by_lower_bound
from repro.core.query import BPHQuery
from repro.graph.builder import GraphBuilder
from repro.indexing import twohop
from repro.indexing.oracle import BFSOracle
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.obs.metrics import metrics
from tests.conftest import build_fig2_graph
from tests.reference_models import (
    CountingOracle,
    scalar_detect_path,
    scalar_filter_by_lower_bound,
)

ORACLES = {
    "pml": PrunedLandmarkLabeling.build,
    "bfs": BFSOracle,
    "shim": lambda graph: CountingOracle(PrunedLandmarkLabeling.build(graph)),
}
BUDGETS = st.sampled_from([1, 2, 3, 5, 9, 100_000, 100_000, 100_000])


def make_ctx(graph, oracle="pml"):
    return EngineContext(
        graph=graph,
        oracle=ORACLES[oracle](graph),
        two_hop=twohop.two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=1.0),
    )


def truncations():
    return metrics.counter("repro_detect_path_truncations_total").value


@st.composite
def graphs(draw):
    """2-12 vertices: a random spanning tree plus extra edges (so detours
    exist), with up to two vertices cut off again (disconnected pairs)."""
    n = draw(st.integers(2, 12))
    vertex = st.sampled_from(range(n))
    edges = {(draw(st.sampled_from(range(v))), v) for v in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)))
    cut = draw(st.sets(vertex, max_size=2))
    builder = GraphBuilder("hyp")
    builder.add_vertices("A" * n)
    for u, v in sorted(edges):
        if u != v and u not in cut and v not in cut:
            builder.add_edge_if_absent(u, v)
    return builder.build()


@st.composite
def bounds(draw):
    """``lower > dist``, ``upper < dist`` and everything between occur: the
    graphs have diameter <= 11 and most pairs are 1-3 apart."""
    lower = draw(st.integers(1, 4))
    return lower, lower + draw(st.integers(0, 2))


@st.composite
def queries(draw):
    """A connected query over 2-4 vertices: a random tree plus extra edges."""
    k = draw(st.integers(2, 4))
    query = BPHQuery()
    for q in range(k):
        query.add_vertex("A", vertex_id=q)
    pairs = [(draw(st.integers(0, q - 1)), q) for q in range(1, k)]
    extra = [(u, v) for u in range(k) for v in range(u + 1, k) if (u, v) not in pairs]
    pairs += draw(st.lists(st.sampled_from(extra), unique=True)) if extra else []
    for u, v in pairs:
        query.add_edge(u, v, *draw(bounds()))
    return query


@st.composite
def blocks(draw, query, n):
    """Rows over ``n`` data vertices: any ids (so ``s == t`` and
    disconnected pairs occur), some columns constant down the block (shared
    targets, as on a lexicographically sorted page), in any column order."""
    order = draw(st.permutations(range(query.num_vertices)))
    rows = draw(st.integers(0, 6))
    vertex = st.sampled_from(range(n))
    columns = []
    for _ in order:
        shared = draw(st.booleans())
        column = st.lists(vertex, min_size=rows, max_size=rows)
        columns.append([draw(vertex)] * rows if shared else draw(column))
    block = np.array(columns, dtype=np.int32).T.reshape(rows, len(order))
    return PartialMatches(list(order), block)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    graph=graphs(),
    data=st.data(),
    oracle=st.sampled_from(sorted(ORACLES)),
    max_nodes=BUDGETS,
    hop_block=st.sampled_from([2, 1 << 16]),
)
def test_block_equals_scalar_rows(graph, data, oracle, max_nodes, hop_block):
    query = data.draw(queries())
    matches = data.draw(blocks(query, graph.num_vertices))
    ctx = make_ctx(graph, oracle)

    before = truncations()
    want = [scalar_filter_by_lower_bound(m, query, ctx, max_nodes) for m in matches]
    scalar_truncations = truncations() - before

    before = truncations()
    with mock.patch.object(twohop, "_HOP_BLOCK", hop_block):
        got = filter_by_lower_bound(matches, query, ctx, max_nodes)
    assert truncations() - before == scalar_truncations
    assert len(got) == len(want)
    for block_row, scalar_row in zip(got, want):
        assert (block_row is None) == (scalar_row is None)
        if scalar_row is not None:
            assert block_row.assignment == scalar_row.assignment
            assert block_row.paths == scalar_row.paths
            assert list(block_row.paths) == list(scalar_row.paths)
    # The 1-row entry is the block entry.
    for match, scalar_row in zip(matches, want):
        single = filter_by_lower_bound(match, query, ctx, max_nodes)
        assert (single is None) == (scalar_row is None)
        assert single is None or single.paths == scalar_row.paths


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    graph=graphs(),
    data=st.data(),
    oracle=st.sampled_from(sorted(ORACLES)),
    max_nodes=BUDGETS,
)
def test_detect_path_equals_scalar(graph, data, oracle, max_nodes):
    n = graph.num_vertices
    source, target = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    lower, upper = data.draw(bounds())
    ctx = make_ctx(graph, oracle)
    want_stats, got_stats = PathSearchStats(), PathSearchStats(expanded=7, truncated=True)
    want = scalar_detect_path(ctx, source, target, lower, upper, max_nodes, want_stats)
    got = detect_path(ctx, source, target, lower, upper, max_nodes, got_stats)
    assert got == want
    assert got_stats.truncated == want_stats.truncated
    if not want_stats.truncated:
        assert got_stats.expanded == want_stats.expanded


def test_later_edge_truncation_is_not_counted():
    """Edge (0, 1) fails proven (lower 3 on a bare edge); edge (0, 2) would
    truncate under the 2-node budget, but the scalar loop never gets there."""
    from tests.conftest import build_path_graph

    ctx = make_ctx(build_path_graph(3))
    query = BPHQuery()
    for q in range(3):
        query.add_vertex("P", vertex_id=q)
    query.add_edge(0, 1, 3, 3)
    query.add_edge(0, 2, 1, 2)
    before = truncations()
    assert filter_by_lower_bound({0: 0, 1: 1, 2: 2}, query, ctx, max_nodes=2) is None
    assert truncations() == before
    # ... and is counted when it is the first failure.
    query.set_bounds(0, 1, 1, 1)
    assert filter_by_lower_bound({0: 0, 1: 1, 2: 2}, query, ctx, max_nodes=2) is None
    assert truncations() == before + 1


def fig2_boomer(ctx, **kwargs):
    boomer = Boomer(ctx, strategy="IC", **kwargs)
    for action in (
        NewVertex(0, "A"), NewVertex(1, "B"), NewEdge(0, 1, 1, 1),
        NewVertex(2, "C"), NewEdge(1, 2, 1, 2), NewEdge(0, 2, 1, 3), Run(),
    ):
        boomer.apply(action)
    return boomer


class TestPageCharges:
    """What a page costs in :class:`EngineContext` counters (its docstring)."""

    @pytest.mark.parametrize("oracle", ["pml", "shim"])
    def test_one_query_per_distinct_pair_one_call_per_target(self, oracle):
        ctx = make_ctx(build_fig2_graph(), oracle)
        boomer = fig2_boomer(ctx)
        matches = boomer.run_result.matches
        pairs = {
            (m[e.u], m[e.v]) for m in matches for e in boomer.query.edges()
        }
        targets = {t for _, t in pairs}
        ctx.counters.reset()
        asked = getattr(ctx.oracle, "query_count", 0)
        assert len(boomer.results()) == 3
        assert ctx.counters.distance_queries == len(pairs)
        # A kernel call per distinct target, whatever answers the kernel.
        assert ctx.counters.oracle_calls == len(targets)
        if oracle == "shim":  # level arrays are graph reads, not oracle queries
            assert ctx.oracle.query_count - asked == len(pairs)


class TestLazyContract:
    def spy(self, monkeypatch):
        seen = []
        real = blender_module.filter_by_lower_bound

        def spying(matches, query, ctx):
            seen.append(len(matches))
            return real(matches, query, ctx)

        monkeypatch.setattr(blender_module, "filter_by_lower_bound", spying)
        return seen

    def wide_boomer(self, lower=1):
        """Path graph 0-1-...-39, query P -[lower, 2]- P: 2 * (39 + 38) rows,
        the 2 * 39 adjacent ones failing ``lower == 2``."""
        from tests.conftest import build_path_graph

        boomer = Boomer(make_ctx(build_path_graph(40)), strategy="IC")
        for action in (NewVertex(0, "P"), NewVertex(1, "P"), NewEdge(0, 1, lower, 2), Run()):
            boomer.apply(action)
        assert len(boomer.run_result.matches) == 2 * (39 + 38) > 2 * lowerbound.RESULT_CHUNK
        return boomer

    def test_first_result_touches_one_chunk(self, monkeypatch):
        boomer = self.wide_boomer()
        seen = self.spy(monkeypatch)
        assert next(boomer.iter_results()) is not None
        assert seen == [lowerbound.RESULT_CHUNK]

    @pytest.mark.parametrize("limit", [1, 3, 10])
    def test_limit_never_reaches_past_the_scalar_loop(self, monkeypatch, limit):
        boomer = self.wide_boomer(lower=2)
        # The scalar loop: validate row by row, stop at the limit-th valid one.
        reached = valid = 0
        for match in boomer.run_result.matches:
            reached += 1
            valid += scalar_filter_by_lower_bound(match, boomer.query, boomer.engine.ctx) is not None
            if valid == limit:
                break
        seen = self.spy(monkeypatch)
        page = boomer.results(limit=limit)
        assert len(page) == limit
        assert sum(seen) == reached  # exactly the rows the scalar loop reached
        assert seen[0] == limit and all(size <= limit for size in seen)

    def test_results_equal_scalar_loop_across_chunks(self):
        boomer = self.wide_boomer(lower=2)
        want = [
            s for m in boomer.run_result.matches
            if (s := scalar_filter_by_lower_bound(m, boomer.query, boomer.engine.ctx)) is not None
        ]
        got = boomer.results()
        assert [(s.assignment, s.paths) for s in got] == [(s.assignment, s.paths) for s in want]
        assert [s.assignment for s in boomer.iter_results()] == [s.assignment for s in want]
