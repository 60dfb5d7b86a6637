"""Oracle-conformance suite for the batched distance contract.

Every oracle implementation — native batch kernels (PML CSR merge,
BFSOracle vector slice) and the per-pair fallback shim that wraps
batch-incapable oracles like :class:`CountingOracle` — must give

* identical answers to the scalar ``distance``/``within`` path,
* identical validation errors for bad vertex ids, and
* batch results equal to a loop of scalar calls, in the same order.

``within_many`` answers with an int32 ``(P, 2)`` pair block; the block
contract (values *and* row order equal to the per-pair double loop over
plain BFS) is pinned for every arm in :class:`TestBlockContract` and
fuzzed in the hypothesis section.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StaleIndexError, VertexNotFoundError
from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.indexing.batch import (
    FULL_VECTOR_MIN_TARGETS,
    DistanceVectorCache,
    distances_from,
    scalar_distances,
    scalar_within_many,
    shared_distance_cache,
    supports_batch,
)
from repro.indexing.oracle import BatchDistanceOracle, BFSOracle, CountingOracle
from repro.indexing import pml as pml_module
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.updates import delete_edge, graph_insert_edge, insert_edge
from tests.conftest import build_fig2_graph, build_path_graph


def make_oracle(kind: str, graph):
    if kind == "pml":
        return PrunedLandmarkLabeling.build(graph)
    if kind == "bfs":
        return BFSOracle(graph)
    if kind == "counting":
        return CountingOracle(BFSOracle(graph))
    raise ValueError(kind)


ORACLE_KINDS = ["pml", "bfs", "counting"]


def within_many(oracle, sources, targets, upper, skip_equal=False):
    """The choice ``EngineContext.within_many`` makes: the oracle's block
    kernel when it has one, the per-pair shim for a scalar-only oracle."""
    if supports_batch(oracle):
        return oracle.within_many(sources, targets, upper, skip_equal)
    return scalar_within_many(oracle, sources, targets, upper, skip_equal)


def reference_block(graph, sources, targets, upper, skip_equal=False):
    """The per-pair double loop over plain BFS: the dumbest possible arm."""
    pairs = []
    for u in sources:
        dist = bfs_distances(graph, u)
        for v in targets:
            if not (skip_equal and u == v) and 0 <= int(dist[v]) <= upper:
                pairs.append((u, v))
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


def assert_block(got, want, msg=""):
    """Same int32 ``(P, 2)`` block: values and row order."""
    assert isinstance(got, np.ndarray), msg
    assert got.dtype == np.int32 and got.ndim == 2 and got.shape[1] == 2, msg
    np.testing.assert_array_equal(got, want, err_msg=msg)


@pytest.fixture(params=ORACLE_KINDS)
def fig2_oracle(request):
    return request.param, make_oracle(request.param, build_fig2_graph())


class TestConformance:
    """Batch == loop-of-scalar, for every oracle, on the fig2 graph."""

    def test_native_batch_support(self):
        g = build_path_graph(3)
        assert supports_batch(PrunedLandmarkLabeling.build(g))
        assert supports_batch(BFSOracle(g))
        assert not supports_batch(CountingOracle(BFSOracle(g)))

    def test_protocol_membership(self):
        g = build_path_graph(3)
        assert isinstance(PrunedLandmarkLabeling.build(g), BatchDistanceOracle)
        assert isinstance(BFSOracle(g), BatchDistanceOracle)
        assert not isinstance(CountingOracle(BFSOracle(g)), BatchDistanceOracle)

    def test_distances_from_matches_scalar(self, fig2_oracle):
        _, oracle = fig2_oracle
        graph = build_fig2_graph()
        targets = np.arange(graph.num_vertices)
        for source in range(graph.num_vertices):
            got = distances_from(oracle, source, targets)
            truth = bfs_distances(graph, source)
            np.testing.assert_array_equal(np.asarray(got), np.asarray(truth))

    @pytest.mark.parametrize("upper", [0, 1, 2, 4])
    @pytest.mark.parametrize("skip_equal", [False, True])
    def test_within_many_matches_scalar(self, fig2_oracle, upper, skip_equal):
        kind, oracle = fig2_oracle
        graph = build_fig2_graph()
        sources = list(range(0, graph.num_vertices, 2))
        targets = list(range(graph.num_vertices))
        reference = make_oracle(kind, graph)
        expected = scalar_within_many(reference, sources, targets, upper, skip_equal)
        got = within_many(oracle, sources, targets, upper, skip_equal=skip_equal)
        assert_block(got, expected, kind)  # same pairs, same source-major order
        assert_block(got, reference_block(graph, sources, targets, upper, skip_equal))

    def test_empty_targets(self, fig2_oracle):
        _, oracle = fig2_oracle
        out = distances_from(oracle, 0, [])
        assert np.asarray(out).size == 0

    def test_invalid_source_raises(self, fig2_oracle):
        _, oracle = fig2_oracle
        for bad in (-1, 99):
            with pytest.raises(VertexNotFoundError):
                distances_from(oracle, bad, [0, 1])

    def test_invalid_target_raises(self, fig2_oracle):
        _, oracle = fig2_oracle
        for bad in (-1, 99):
            with pytest.raises(VertexNotFoundError):
                distances_from(oracle, 0, [1, bad, 2])

    def test_counting_shim_preserves_counts(self):
        graph = build_fig2_graph()
        oracle = CountingOracle(BFSOracle(graph))
        distances_from(oracle, 0, [1, 2, 3])
        assert oracle.query_count == 3  # one logical query per target
        within_many(oracle, [0, 1], [2, 3], upper=4)
        assert oracle.query_count == 3 + 4


class TestPMLKernel:
    """The dense-spread kernel and the small-target merge path agree."""

    def test_small_target_merge_path(self):
        # Below the crossover heuristic PML answers with per-target merges;
        # both code paths must match BFS ground truth.
        graph = build_fig2_graph()
        pml = PrunedLandmarkLabeling.build(graph)
        truth = bfs_distances(graph, 4)
        few = pml.distances_from(4, [0, 11])
        assert list(few) == [int(truth[0]), int(truth[11])]
        many = pml.distances_from(4, np.arange(graph.num_vertices))
        np.testing.assert_array_equal(np.asarray(many), np.asarray(truth))

    def test_self_distance_zero(self):
        pml = PrunedLandmarkLabeling.build(build_path_graph(5))
        out = pml.distances_from(2, [0, 1, 2, 3, 4])
        assert out[2] == 0

    def test_unreachable_is_minus_one(self):
        b = GraphBuilder()
        b.add_vertices("abc")
        b.add_edge(0, 1)
        pml = PrunedLandmarkLabeling.build(b.build())
        assert list(pml.distances_from(0, [0, 1, 2])) == [0, 1, -1]

    def test_query_count_counts_targets(self):
        pml = PrunedLandmarkLabeling.build(build_path_graph(4))
        before = pml.query_count
        pml.distances_from(0, [1, 2, 3])
        assert pml.query_count == before + 3

    def test_pickled_instance_keeps_its_frozen_arrays(self):
        # The dataset disk cache pickles the index; pickle restores
        # __dict__ without __init__, and nothing re-freezes on load: the
        # arrays travel with the lists and the batch kernels read them.
        import pickle

        graph = build_path_graph(6)
        pml = PrunedLandmarkLabeling.build(graph)
        clone = pickle.loads(pickle.dumps(pml))
        assert vars(clone).keys() == vars(pml).keys()
        for attr in ("_label_offsets", "_label_ranks_arr", "_label_dists_arr"):
            np.testing.assert_array_equal(getattr(clone, attr), getattr(pml, attr))
        assert clone.epoch == pml.epoch == 0
        np.testing.assert_array_equal(
            np.asarray(clone.distances_from(0, np.arange(6))),
            np.asarray(bfs_distances(graph, 0)),
        )
        assert_block(
            clone.within_many([0, 5], [1, 4], 2), np.array([[0, 1], [5, 4]])
        )


def ring_with_chords(n: int):
    builder = GraphBuilder("ring")
    builder.add_vertices(["L"] * n)
    for v in range(n):
        builder.add_edge(v, (v + 1) % n)
    for v in range(0, n, 5):
        builder.add_edge_if_absent(v, (v * 7 + 11) % n)
    return builder.build()


class TestBlockContract:
    """``within_many``'s pair block, arm by arm, at the contract's edges."""

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_empty_sides(self, kind):
        oracle = make_oracle(kind, build_fig2_graph())
        for sources, targets in (([], [1, 2]), ([0, 3], []), ([], [])):
            got = within_many(oracle, sources, targets, upper=3)
            assert_block(got, np.empty((0, 2), dtype=np.int32), kind)

    def test_sizes_straddling_the_block_constants(self):
        # One more source block and one more target block than fit, with
        # a last bitset row that is not a whole number of bytes.
        num_sources = pml_module._SOURCE_BLOCK + 3
        num_targets = pml_module._TARGET_BLOCK + 13
        assert num_targets % 8
        graph = ring_with_chords(num_targets + 40)
        order = np.random.default_rng(7).permutation(graph.num_vertices)
        sources = order[:num_sources].tolist()
        targets = order[-num_targets:].tolist()  # overlaps the sources
        assert set(sources) & set(targets)
        pml = PrunedLandmarkLabeling.build(graph)
        for upper, skip_equal in ((3, True), (4, False)):
            want = BFSOracle(graph).within_many(sources, targets, upper, skip_equal)
            assert_block(pml.within_many(sources, targets, upper, skip_equal), want)
        assert_block(
            BFSOracle(graph).within_many(sources[:9], targets, 3, True),
            reference_block(graph, sources[:9], targets, 3, True),
        )

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    @pytest.mark.parametrize(
        "sources,targets",
        [([99, 0], [1, -5]), ([0, 99], [1, -5, 2]), ([0, 99, -7], [1, 2])],
    )
    def test_first_offender_is_the_scalar_loops(self, kind, sources, targets):
        graph = build_fig2_graph()
        with pytest.raises(VertexNotFoundError) as scalar:
            scalar_within_many(make_oracle(kind, graph), sources, targets, 3)
        with pytest.raises(VertexNotFoundError) as block:
            within_many(make_oracle(kind, graph), sources, targets, 3)
        assert block.value.vertex == scalar.value.vertex

    def test_counts_every_logical_query(self):
        graph = build_fig2_graph()
        for oracle in (PrunedLandmarkLabeling.build(graph), BFSOracle(graph)):
            oracle.within_many([0, 1, 2], [2, 3], 3, skip_equal=True)
            assert oracle.query_count == 6

    def test_unmaintained_epoch_bump_refuses(self):
        graph = build_fig2_graph()
        pml = PrunedLandmarkLabeling.build(graph)
        graph_insert_edge(graph, 0, 11)  # bypasses maintenance on purpose
        with pytest.raises(StaleIndexError, match="epoch"):
            pml.within_many([0], [11], 3)

    def test_correct_right_after_insert_and_rebuild(self):
        from tests.test_updates_conformance import make_ctx

        ctx = make_ctx(build_fig2_graph())
        everyone = list(range(ctx.graph.num_vertices))
        insert_edge(ctx, 0, 11)  # apply_edge_insert: patched labels
        for upper in (1, 2, 3):
            assert_block(
                ctx.oracle.within_many(everyone, everyone, upper, True),
                reference_block(ctx.graph, everyone, everyone, upper, True),
            )
        u, v = next(iter(ctx.graph.iter_edges()))
        delete_edge(ctx, u, v)  # rebuild_inplace: fresh label arrays
        for upper in (1, 2, 3):
            assert_block(
                ctx.oracle.within_many(everyone, everyone, upper),
                reference_block(ctx.graph, everyone, everyone, upper),
            )


class TestBFSOracleBatch:
    def test_distances_from_slices_cached_vector(self):
        graph = build_path_graph(8)
        oracle = BFSOracle(graph)
        out = oracle.distances_from(0, [7, 3, 0])
        assert list(out) == [7, 3, 0]
        assert len(oracle._cache) == 1  # one BFS vector serves all targets

    def test_query_count_counts_targets(self):
        oracle = BFSOracle(build_path_graph(5))
        oracle.distances_from(0, [1, 2])
        assert oracle.query_count == 2


class TestBFSOracleLRU:
    def test_eviction_is_least_recently_used(self):
        g = build_path_graph(10)
        oracle = BFSOracle(g, cache_size=2)
        oracle.distance(0, 9)  # cache: [0]
        oracle.distance(1, 9)  # cache: [0, 1]
        oracle.distance(0, 5)  # hit refreshes 0 -> cache: [1, 0]
        oracle.distance(2, 9)  # evicts 1 (least recently *used*), not 0
        assert set(oracle._cache) == {0, 2}

    def test_swapped_endpoint_hit_refreshes(self):
        g = build_path_graph(10)
        oracle = BFSOracle(g, cache_size=2)
        oracle.distance(0, 9)
        oracle.distance(1, 9)
        oracle.distance(9, 0)  # routes through cached source 0 -> refresh
        oracle.distance(2, 9)
        assert set(oracle._cache) == {0, 2}


class TestBFSOracleValidation:
    """Both endpoints are validated before any counting or caching."""

    @pytest.mark.parametrize("u,v", [(-1, 0), (0, -1), (99, 0), (0, 99), (-1, -1)])
    def test_distance_rejects_bad_ids(self, u, v):
        oracle = BFSOracle(build_path_graph(4))
        with pytest.raises(VertexNotFoundError):
            oracle.distance(u, v)
        assert oracle.query_count == 0  # rejected queries are not counted

    def test_negative_id_does_not_wrap(self):
        # Pre-fix, -1 silently indexed the last entry of the BFS vector.
        oracle = BFSOracle(build_path_graph(4))
        oracle.distance(0, 3)
        with pytest.raises(VertexNotFoundError):
            oracle.distance(0, -1)

    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_scalar_and_batch_raise_the_same_error(self, kind):
        graph = build_fig2_graph()
        scalar_arm = make_oracle(kind, graph)
        batch_arm = make_oracle(kind, graph)
        with pytest.raises(VertexNotFoundError):
            scalar_arm.distance(0, -3)
        with pytest.raises(VertexNotFoundError):
            distances_from(batch_arm, 0, [1, -3])


class TestDistanceVectorCache:
    def test_lru_eviction_order(self):
        cache = DistanceVectorCache(max_entries=2)
        o = object()
        va, vb, vc = (np.arange(3),) * 3
        cache.store(o, 0, va)
        cache.store(o, 1, vb)
        assert cache.lookup(o, 0) is not None  # refresh 0
        cache.store(o, 2, vc)  # evicts 1
        assert cache.lookup(o, 1) is None
        assert cache.lookup(o, 0) is not None
        assert cache.lookup(o, 2) is not None

    def test_identity_check_rejects_recycled_id(self):
        cache = DistanceVectorCache(max_entries=4)
        o1 = object()
        cache.store(o1, 0, np.arange(3))
        # Simulate id() reuse: same key, different live object.  Keys are
        # (id(oracle), epoch, source); epoch-less test doubles key at 0.
        key = (id(o1), 0, 0)
        cache._entries[key] = (object(), np.arange(3))
        assert cache.lookup(o1, 0) is None  # identity mismatch -> miss
        assert len(cache) == 0  # stale entry evicted on sight

    def test_hit_miss_counters_and_metrics(self):
        from repro.obs.metrics import metrics

        cache = DistanceVectorCache(max_entries=2)
        o = object()
        hits0 = metrics.counter("repro_distcache_hits_total").value
        misses0 = metrics.counter("repro_distcache_misses_total").value
        assert cache.lookup(o, 0) is None
        cache.store(o, 0, np.arange(2))
        assert cache.lookup(o, 0) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert metrics.counter("repro_distcache_hits_total").value == hits0 + 1
        assert metrics.counter("repro_distcache_misses_total").value == misses0 + 1

    def test_clear(self):
        cache = DistanceVectorCache(max_entries=2)
        cache.store(object(), 0, np.arange(2))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DistanceVectorCache(max_entries=0)

    def test_shared_cache_serves_repeat_large_queries(self):
        n = max(FULL_VECTOR_MIN_TARGETS * 2, 64)
        graph = build_path_graph(n)
        pml = PrunedLandmarkLabeling.build(graph)
        shared_distance_cache.clear()
        targets = np.arange(n)
        hits0 = shared_distance_cache.hits
        first = distances_from(pml, 0, targets)
        second = distances_from(pml, 0, targets)
        np.testing.assert_array_equal(first, second)
        assert shared_distance_cache.hits == hits0 + 1

    def test_cached_vector_path_still_validates_targets(self):
        n = FULL_VECTOR_MIN_TARGETS + 8
        graph = build_path_graph(n)
        pml = PrunedLandmarkLabeling.build(graph)
        shared_distance_cache.clear()
        distances_from(pml, 0, np.arange(n))  # warm the full vector
        bad = list(range(FULL_VECTOR_MIN_TARGETS)) + [-2]
        with pytest.raises(VertexNotFoundError):
            distances_from(pml, 0, bad)  # -2 must not wrap into the vector


# ----------------------------------------------------------------------
# Randomized conformance (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=2 * n,
        )
    )
    builder = GraphBuilder("hyp")
    builder.add_vertices(["L"] * n)
    for u, v in edges:
        builder.add_edge_if_absent(u, v)
    return builder.build()


class TestRandomizedConformance:
    @settings(max_examples=30, deadline=None)
    @given(graph=small_graphs(), source=st.integers(0, 9))
    def test_all_oracles_agree_with_bfs_truth(self, graph, source):
        source %= graph.num_vertices
        truth = np.asarray(bfs_distances(graph, source))
        targets = np.arange(graph.num_vertices)
        for kind in ORACLE_KINDS:
            oracle = make_oracle(kind, graph)
            got = np.asarray(distances_from(oracle, source, targets))
            np.testing.assert_array_equal(got, truth, err_msg=kind)

    @settings(max_examples=40, deadline=None)
    @given(
        graph=small_graphs(),
        data=st.data(),
        upper=st.integers(0, 6),
        skip=st.booleans(),
    )
    def test_within_many_equals_scalar_loop(self, graph, data, upper, skip):
        # Duplicate-free sides in arbitrary order that may overlap each
        # other, on graphs that may be disconnected; the kernel also runs
        # with block constants small enough for several blocks per side.
        vertices = st.permutations(range(graph.num_vertices))
        sources = data.draw(vertices)[: data.draw(st.integers(0, graph.num_vertices))]
        targets = data.draw(vertices)[: data.draw(st.integers(0, graph.num_vertices))]
        reference = reference_block(graph, sources, targets, upper, skip)
        for kind in ORACLE_KINDS:
            oracle = make_oracle(kind, graph)
            got = within_many(oracle, sources, targets, upper, skip_equal=skip)
            assert_block(got, reference, kind)
        with mock.patch.multiple(pml_module, _TARGET_BLOCK=3, _SOURCE_BLOCK=2):
            got = make_oracle("pml", graph).within_many(sources, targets, upper, skip)
        assert_block(got, reference, "pml, tiny blocks")
