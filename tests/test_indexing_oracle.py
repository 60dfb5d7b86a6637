"""Tests for the distance-oracle abstraction."""

from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.indexing.oracle import BFSOracle, DistanceOracle
from repro.indexing.pml import PrunedLandmarkLabeling
from tests.conftest import build_fig2_graph, build_path_graph
from tests.reference_models import CountingOracle


class TestBFSOracle:
    def test_matches_ground_truth(self):
        g = build_fig2_graph()
        oracle = BFSOracle(g)
        for u in range(g.num_vertices):
            truth = bfs_distances(g, u)
            for v in range(g.num_vertices):
                assert oracle.distance(u, v) == int(truth[v])

    def test_self_distance(self):
        oracle = BFSOracle(build_path_graph(3))
        assert oracle.distance(2, 2) == 0

    def test_within(self):
        oracle = BFSOracle(build_path_graph(5))
        assert oracle.within(0, 2, 2)
        assert not oracle.within(0, 3, 2)

    def test_unreachable_within_false(self):
        b = GraphBuilder()
        b.add_vertices("ab")
        oracle = BFSOracle(b.build())
        assert oracle.distance(0, 1) == -1
        assert not oracle.within(0, 1, 99)

    def test_query_count(self):
        oracle = BFSOracle(build_path_graph(3))
        oracle.distance(0, 1)
        oracle.within(0, 2, 5)
        assert oracle.query_count == 2

    def test_cache_reuse_swaps_endpoints(self):
        g = build_path_graph(6)
        oracle = BFSOracle(g)
        oracle.distance(0, 5)  # caches BFS from 0
        # Now query (3, 0): should reuse the cached source 0.
        assert oracle.distance(3, 0) == 3
        assert len(oracle._cache) == 1

    def test_cache_eviction(self):
        g = build_path_graph(10)
        oracle = BFSOracle(g, cache_size=2)
        for source in range(5):
            oracle.distance(source, 9)
        assert len(oracle._cache) <= 2


class TestCountingOracle:
    def test_delegates_and_counts(self):
        g = build_path_graph(4)
        inner = BFSOracle(g)
        counting = CountingOracle(inner)
        assert counting.distance(0, 3) == 3
        assert counting.within(0, 1, 1)
        assert counting.query_count == 2
        counting.reset()
        assert counting.query_count == 0


class TestProtocol:
    def test_implementations_satisfy_protocol(self):
        g = build_path_graph(3)
        assert isinstance(BFSOracle(g), DistanceOracle)
        assert isinstance(PrunedLandmarkLabeling.build(g), DistanceOracle)
        assert isinstance(CountingOracle(BFSOracle(g)), DistanceOracle)

    def test_pml_and_bfs_agree(self):
        g = build_fig2_graph()
        pml = PrunedLandmarkLabeling.build(g)
        bfs = BFSOracle(g)
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert pml.distance(u, v) == bfs.distance(u, v)
