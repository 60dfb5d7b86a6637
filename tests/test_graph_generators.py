"""Tests for repro.graph.generators."""

import pytest

from repro.errors import GraphBuildError
from repro.graph.generators import (
    WORDNET_LABELS,
    assign_labels_uniform,
    assign_labels_zipf,
    dblp_like,
    flickr_like,
    wordnet_like,
)
from repro.graph.algorithms import connected_components
from tests.reference_models import barabasi_albert, erdos_renyi, watts_strogatz


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(50, 100, seed=1)
        assert g.num_vertices == 50
        assert g.num_edges == 100

    def test_deterministic(self):
        assert erdos_renyi(30, 40, seed=5) == erdos_renyi(30, 40, seed=5)

    def test_seed_changes_graph(self):
        assert erdos_renyi(30, 40, seed=5) != erdos_renyi(30, 40, seed=6)

    def test_too_many_edges_rejected(self):
        with pytest.raises(GraphBuildError):
            erdos_renyi(4, 10, seed=0)

    def test_negative_rejected(self):
        with pytest.raises(GraphBuildError):
            erdos_renyi(-1, 0)

    def test_custom_labels(self):
        g = erdos_renyi(3, 1, seed=0, labels=["x", "y", "z"])
        assert g.labels() == ["x", "y", "z"]


class TestBarabasiAlbert:
    def test_sizes(self):
        g = barabasi_albert(200, 2, seed=3)
        assert g.num_vertices == 200
        # each vertex beyond the seed path adds exactly m edges
        assert g.num_edges == 2 + (200 - 3) * 2

    def test_heavy_tail(self):
        g = barabasi_albert(500, 2, seed=3)
        degrees = sorted(g.degree_array())
        assert degrees[-1] > 5 * (2 * g.num_edges / g.num_vertices)

    def test_connected(self):
        g = barabasi_albert(100, 1, seed=2)
        assert len(connected_components(g)) == 1

    def test_parameter_validation(self):
        with pytest.raises(GraphBuildError):
            barabasi_albert(5, 0)
        with pytest.raises(GraphBuildError):
            barabasi_albert(2, 2)

    def test_deterministic(self):
        assert barabasi_albert(50, 2, seed=9) == barabasi_albert(50, 2, seed=9)


class TestWattsStrogatz:
    def test_sizes(self):
        g = watts_strogatz(100, 4, 0.1, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges > 150  # ~2 per vertex, some rewires may collide

    def test_zero_beta_is_lattice(self):
        g = watts_strogatz(20, 2, 0.0, seed=0)
        for v in range(20):
            assert g.has_edge(v, (v + 1) % 20)

    def test_validation(self):
        with pytest.raises(GraphBuildError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(GraphBuildError):
            watts_strogatz(10, 2, 1.5)  # beta out of range
        with pytest.raises(GraphBuildError):
            watts_strogatz(2, 2, 0.1)  # n <= k


class TestLabelAssignment:
    def test_uniform_range_and_determinism(self):
        labels = assign_labels_uniform(1000, 10, seed=4)
        assert set(labels) <= set(range(10))
        assert labels == assign_labels_uniform(1000, 10, seed=4)

    def test_zipf_weights_respected(self):
        labels = assign_labels_zipf(5000, ["a", "b"], [0.9, 0.1], seed=1)
        share_a = labels.count("a") / len(labels)
        assert 0.85 < share_a < 0.95

    def test_zipf_mismatched_lengths(self):
        with pytest.raises(GraphBuildError):
            assign_labels_zipf(10, ["a"], [0.5, 0.5])


class TestDatasetEmulators:
    def test_wordnet_density_and_labels(self):
        g = wordnet_like(800, seed=7)
        assert g.distinct_labels() <= set(WORDNET_LABELS)
        ratio = g.num_edges / g.num_vertices
        assert 1.2 < ratio < 1.8
        # nouns dominate
        assert g.label_frequency("n") > 0.5

    def test_wordnet_connected(self):
        g = wordnet_like(500, seed=7)
        assert len(connected_components(g)) == 1

    def test_wordnet_name(self):
        assert wordnet_like(300, seed=1).name == "wordnet-like"

    def test_dblp_density_and_labels(self):
        g = dblp_like(800, seed=2, num_labels=20)
        assert len(g.distinct_labels()) <= 20
        ratio = g.num_edges / g.num_vertices
        assert 3.0 < ratio < 4.0

    def test_flickr_density(self):
        g = flickr_like(800, seed=3, num_labels=40)
        ratio = g.num_edges / g.num_vertices
        assert 7.0 < ratio < 9.0

    def test_emulators_deterministic(self):
        assert wordnet_like(300, seed=5) == wordnet_like(300, seed=5)
        assert dblp_like(300, seed=5, num_labels=8) == dblp_like(300, seed=5, num_labels=8)

    def test_too_small_rejected(self):
        with pytest.raises(GraphBuildError):
            wordnet_like(2)
