"""Tests for repro.graph.io."""

import pytest

from repro.errors import GraphIOError
from repro.graph.io import load_edge_list, save_edge_list
from tests.conftest import build_fig2_graph, build_path_graph


class TestEdgeListRoundtrip:
    def test_roundtrip(self, tmp_path):
        g = build_fig2_graph()
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        loaded = load_edge_list(path)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        assert set(loaded.iter_edges()) == set(g.iter_edges())
        assert loaded.labels() == [str(l) for l in g.labels()]

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        save_edge_list(build_path_graph(3), path)
        assert load_edge_list(path).name == "mygraph"

    def test_explicit_name(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(build_path_graph(3), path)
        assert load_edge_list(path, name="override").name == "override"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# hi\n\nv 0 A\nv 1 B\n\ne 0 1\n")
        g = load_edge_list(path)
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_multiword_labels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0 hello world\n")
        assert load_edge_list(path).label(0) == "hello world"


class TestEdgeListErrors:
    def test_non_dense_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 1 A\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_missing_label(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_unknown_record(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("x 0 1\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_malformed_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0 A\ne 0\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_edge_before_vertex(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("e 0 1\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_duplicate_edge_wrapped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0 A\nv 1 B\ne 0 1\ne 1 0\n")
        with pytest.raises(GraphIOError):
            load_edge_list(path)

    def test_error_mentions_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("v 0 A\nbroken line\n")
        with pytest.raises(GraphIOError, match=":2"):
            load_edge_list(path)
