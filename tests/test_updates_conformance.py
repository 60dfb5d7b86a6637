"""Update-maintenance conformance: incremental indexes == fresh builds.

The contract pinned here is the tentpole's correctness guarantee: after
*any* schedule of edge inserts and deletes applied through
:mod:`repro.updates`, every derived structure answers exactly as a fresh
build over the mutated graph would — and every structure that was *not*
maintained either refuses loudly (PML, stored bases) or heals itself
(BFS memo, distance-vector cache) instead of serving stale distances.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.context import EngineContext
from repro.core.cost import CostModel
from repro.errors import StaleIndexError
from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.graph.generators import wordnet_like
from repro.indexing.batch import DistanceVectorCache, shared_distance_cache
from repro.indexing.oracle import BFSOracle
from repro.indexing.order import degree_order
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import hop_pairs, two_hop_counts
from repro.storage import (
    BasisDirectory,
    basis_from_context,
    context_from_basis,
    load_basis,
    save_basis,
)
from repro.updates import (
    apply_updates,
    delete_edge,
    graph_insert_edge,
    insert_edge,
)
from repro.utils.rng import seeded_rng
from tests.conftest import build_fig2_graph
from tests.test_property_graph import labeled_graphs


def make_ctx(graph, order=None):
    """A lightweight context: real PML + two-hop, synthetic cost model."""
    return EngineContext(
        graph=graph,
        oracle=PrunedLandmarkLabeling.build(graph, order),
        two_hop=two_hop_counts(graph),
        cost_model=CostModel(t_avg=1e-6, t_lat=0.1),
    )


def assert_matches_fresh_build(ctx):
    """Maintained oracle + two-hop answer identically to fresh builds."""
    graph = ctx.graph
    fresh = PrunedLandmarkLabeling.build(graph)
    targets = np.arange(graph.num_vertices, dtype=np.int64)
    for source in range(graph.num_vertices):
        got = ctx.oracle.distances_from(source, targets)
        want = fresh.distances_from(source, targets)
        assert np.array_equal(got, want), (
            f"source {source}: maintained {got.tolist()} != fresh {want.tolist()}"
        )
    assert np.array_equal(ctx.two_hop, two_hop_counts(graph))


def draw_step(data, graph):
    """One applicable ("insert" | "delete", u, v), or None if none exists."""
    n = graph.num_vertices
    edges = sorted(graph.iter_edges())
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not graph.has_edge(u, v)
    ]
    if non_edges and (not edges or data.draw(st.booleans())):
        return ("insert", *data.draw(st.sampled_from(non_edges)))
    if edges:
        return ("delete", *data.draw(st.sampled_from(edges)))
    return None


# ----------------------------------------------------------------------
# The tentpole contract: incremental == fresh, under random schedules
# ----------------------------------------------------------------------
class TestScheduleConformance:
    @given(labeled_graphs(max_n=12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_schedule(self, graph, data):
        ctx = make_ctx(graph)
        for _ in range(data.draw(st.integers(1, 8))):
            step = draw_step(data, graph)
            if step is None:
                break
            kind, u, v = step
            apply = insert_edge if kind == "insert" else delete_edge
            report = apply(ctx, u, v)
            assert report.epoch == graph.epoch == ctx.epoch
        assert_matches_fresh_build(ctx)

    @given(labeled_graphs(max_n=12), st.data())
    @settings(max_examples=20, deadline=None)
    def test_insert_only_schedule_is_incremental(self, graph, data):
        """Pure-insert schedules must take the dynamic-PLL patch path."""
        ctx = make_ctx(graph)
        n = graph.num_vertices
        for _ in range(data.draw(st.integers(1, 6))):
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not graph.has_edge(u, v)
            ]
            if not non_edges:
                break
            u, v = data.draw(st.sampled_from(non_edges))
            report = insert_edge(ctx, u, v)
            assert report.strategy == "pml-incremental"
        assert_matches_fresh_build(ctx)

    @given(labeled_graphs(max_n=12), st.data(), st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_hop_kernel_right_after_each_update(self, graph, data, hops):
        """``hop_pairs`` reads the swapped CSR: after every insert or delete
        its block is plain BFS over the mutated graph."""
        ctx = make_ctx(graph)
        everything = list(range(graph.num_vertices))
        for _ in range(data.draw(st.integers(1, 6))):
            step = draw_step(data, graph)
            if step is None:
                break
            kind, u, v = step
            (insert_edge if kind == "insert" else delete_edge)(ctx, u, v)
            want = [
                (s, t)
                for s in everything
                for t in np.flatnonzero(bfs_distances(graph, s, cutoff=hops) > 0)
            ]
            assert hop_pairs(graph, everything, everything, hops).tolist() == [
                list(pair) for pair in want
            ]

    def test_apply_updates_schedule_and_reports(self):
        ctx = make_ctx(build_fig2_graph())
        reports = apply_updates(
            ctx, [("insert", 0, 11), ("delete", 1, 4), ("insert", 1, 4)]
        )
        assert [r.epoch for r in reports] == [1, 2, 3]
        assert [r.strategy for r in reports] == [
            "pml-incremental",
            "pml-decremental",
            "pml-incremental",
        ]
        assert reports[0].edge == (0, 11)
        assert all(r.two_hop_recomputed > 0 for r in reports)
        assert_matches_fresh_build(ctx)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mixed_schedule_checked_after_every_step(self, seed):
        """A delete repairs only the landmarks it can reach, so an insert
        patch's error would now outlive it: at a size where the delete
        cascade runs, every step must answer like a fresh build."""
        graph = wordnet_like(150, seed=seed)
        ctx = make_ctx(graph)
        rng = seeded_rng(seed)
        for _ in range(30):
            if rng.random() < 0.5:
                u, v = rng.sample(range(graph.num_vertices), 2)
                if graph.has_edge(u, v):
                    continue
                insert_edge(ctx, u, v)
            else:
                delete_edge(ctx, *rng.choice(sorted(graph.iter_edges())))
            assert_matches_fresh_build(ctx)
        assert graph.epoch >= 20

    @pytest.mark.parametrize("seed", [0, 1])
    def test_delete_only_schedule_equals_same_order_build(self, seed):
        """After deletes alone, the repaired labels are byte for byte what a
        build in the kept landmark order stores."""
        graph = wordnet_like(150, seed=seed)
        order = degree_order(graph)  # the build's, kept through every delete
        ctx = make_ctx(graph, order)
        rng = seeded_rng(seed)
        for _ in range(10):
            delete_edge(ctx, *rng.choice(sorted(graph.iter_edges())))
            fresh = make_ctx(graph, order)
            got, want = basis_from_context(ctx), basis_from_context(fresh)
            for name in ("pml_offsets", "pml_ranks", "pml_dists"):
                assert np.array_equal(got.arrays[name], want.arrays[name]), name

    def test_delete_report_counts_the_entries_it_changed(self):
        ctx = make_ctx(build_fig2_graph())
        total = ctx.oracle.total_label_entries()
        report = delete_edge(ctx, 1, 4)  # v2's only edge: its labels go
        assert report.strategy == "pml-decremental"
        assert 0 < report.labels_added + report.labels_updated < total
        assert ctx.oracle.total_label_entries() < total
        assert_matches_fresh_build(ctx)

    def test_apply_updates_unknown_kind(self):
        ctx = make_ctx(build_fig2_graph())
        with pytest.raises(ValueError, match="unknown update kind"):
            apply_updates(ctx, [("upsert", 0, 11)])

    def test_boomer_matches_equal_fresh_context(self):
        """End-to-end: Boomer over a maintained context == fresh context."""
        ctx = make_ctx(build_fig2_graph())
        apply_updates(ctx, [("insert", 0, 4), ("delete", 2, 5)])
        rebuilt = GraphBuilder("fig2-mutated")
        rebuilt.add_vertices(ctx.graph.labels())
        for u, v in ctx.graph.iter_edges():
            rebuilt.add_edge(u, v)
        fresh_ctx = make_ctx(rebuilt.build())

        def run_script(run_ctx):
            boomer = Boomer(run_ctx, strategy="DI", max_results=1000)
            for action in (
                NewVertex(0, "A"),
                NewVertex(1, "B"),
                NewEdge(0, 1, 1, 2),
                Run(),
            ):
                boomer.apply(action)
            return sorted(
                tuple(sorted(m.assignment.items()))
                for m in boomer.results(limit=1000)
            )

        assert run_script(ctx) == run_script(fresh_ctx)


# ----------------------------------------------------------------------
# Unmaintained readers refuse (PML) or self-heal (BFS memo, caches)
# ----------------------------------------------------------------------
class TestStaleReaders:
    def test_unmaintained_pml_refuses_scalar_and_batch(self):
        graph = build_fig2_graph()
        pml = PrunedLandmarkLabeling.build(graph)
        graph_insert_edge(graph, 0, 11)  # bypasses maintenance on purpose
        everyone = np.arange(graph.num_vertices)
        with pytest.raises(StaleIndexError, match="epoch"):
            pml.distance(0, 11)
        with pytest.raises(StaleIndexError):
            pml.within(0, 11, 2)
        with pytest.raises(StaleIndexError):
            pml.distances_from(0, everyone)
        with pytest.raises(StaleIndexError):
            pml.within_many([0], everyone, 2)

    def test_bfs_oracle_self_heals_cached_vectors(self):
        graph = build_fig2_graph()
        oracle = BFSOracle(graph)
        targets = np.arange(graph.num_vertices, dtype=np.int64)
        assert oracle.distance(0, 11) == 2  # populates the source-0 memo
        stale = oracle.distances_from(0, targets).copy()
        graph_insert_edge(graph, 0, 11)
        # The memoized vector is from epoch 0; every read must recompute.
        assert oracle.distance(0, 11) == 1
        healed = oracle.distances_from(0, targets)
        assert not np.array_equal(healed, stale)
        assert np.array_equal(healed, bfs_distances(graph, 0))

    def test_distance_cache_never_serves_pre_mutation_vectors(self):
        # Regression for the epoch-less cache key: before the epoch was
        # part of the key, this lookup returned the stale stored vector.
        ctx = make_ctx(build_fig2_graph())
        cache = DistanceVectorCache()
        targets = np.arange(ctx.graph.num_vertices, dtype=np.int64)
        vec = ctx.oracle.distances_from(0, targets)
        cache.store(ctx.oracle, 0, vec)
        assert cache.lookup(ctx.oracle, 0) is vec
        insert_edge(ctx, 0, 11)
        assert cache.lookup(ctx.oracle, 0) is None

    def test_update_report_counts_shared_cache_drops(self):
        ctx = make_ctx(build_fig2_graph())
        targets = np.arange(ctx.graph.num_vertices, dtype=np.int64)
        shared_distance_cache.clear()
        try:
            shared_distance_cache.store(
                ctx.oracle, 0, ctx.oracle.distances_from(0, targets)
            )
            shared_distance_cache.store(
                ctx.oracle, 3, ctx.oracle.distances_from(3, targets)
            )
            report = insert_edge(ctx, 0, 11)
            assert report.cache_dropped == 2
            assert len(shared_distance_cache) == 0
        finally:
            shared_distance_cache.clear()


# ----------------------------------------------------------------------
# Storage: epochs persist; stale bases and stored contexts are refused
# ----------------------------------------------------------------------
class TestStorageEpochGuards:
    def test_epoch_round_trips_through_saved_basis(self, tmp_path):
        ctx = make_ctx(build_fig2_graph())
        insert_edge(ctx, 0, 11)
        delete_edge(ctx, 0, 11)
        directory = save_basis(basis_from_context(ctx), tmp_path / "b")
        loaded = load_basis(directory)
        assert loaded.epoch == 2
        assert context_from_basis(loaded).epoch == 2

    def test_stale_basis_dir_refused(self, tmp_path):
        ctx = make_ctx(build_fig2_graph())
        directory = save_basis(basis_from_context(ctx), tmp_path / "b")
        insert_edge(ctx, 0, 11)  # the live graph moves past the saved dir
        with pytest.raises(StaleIndexError, match="stale"):
            BasisDirectory(basis_from_context(ctx), directory)

    def test_current_basis_dir_reused(self, tmp_path):
        ctx = make_ctx(build_fig2_graph())
        insert_edge(ctx, 0, 11)
        basis = basis_from_context(ctx)
        directory = save_basis(basis, tmp_path / "b")
        hosted = BasisDirectory(basis, directory)
        try:
            assert hosted.basis.epoch == 1
        finally:
            hosted.close()

    def test_basis_from_context_refuses_stale_oracle(self):
        ctx = make_ctx(build_fig2_graph())
        graph_insert_edge(ctx.graph, 0, 11)  # oracle left at epoch 0
        with pytest.raises(StaleIndexError):
            basis_from_context(ctx)

    def test_stored_context_refuses_updates_before_mutating(self):
        ctx = make_ctx(build_fig2_graph())
        stored = context_from_basis(basis_from_context(ctx))
        before_edges = stored.graph.num_edges
        before_epoch = stored.epoch
        with pytest.raises(StaleIndexError, match="rebuild"):
            insert_edge(stored, 0, 11)
        # Refused *before* mutation: graph and epoch are untouched, and
        # the stored oracle still answers (it never went stale).
        assert stored.graph.num_edges == before_edges
        assert stored.epoch == before_epoch
        assert stored.oracle.distance(0, 11) == ctx.oracle.distance(0, 11)
