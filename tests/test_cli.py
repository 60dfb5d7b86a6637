"""Tests for the command-line interface."""

import pytest

from repro.cli import (
    EXIT_DEADLINE,
    EXIT_ERROR,
    EXIT_OK,
    main,
    parse_query_file,
)
from repro.errors import ReproError
from repro.graph.io import load_edge_list, save_edge_list
from tests.conftest import build_fig2_graph


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    save_edge_list(build_fig2_graph(), path)
    return path


@pytest.fixture()
def query_file(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(
        "# the figure-2 triangle\n"
        "v 0 A\n"
        "v 1 B\n"
        "e 0 1 1 1\n"
        "v 2 C\n"
        "e 1 2 1 2\n"
        "e 0 2 1 3\n"
    )
    return path


class TestParseQueryFile:
    def test_round_structure(self, query_file):
        actions = parse_query_file(query_file)
        kinds = [a.kind for a in actions]
        assert kinds == [
            "NewVertex",
            "NewVertex",
            "NewEdge",
            "NewVertex",
            "NewEdge",
            "NewEdge",
            "Run",
        ]

    def test_default_bounds(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("v 0 A\nv 1 B\ne 0 1\n")
        actions = parse_query_file(path)
        edge = actions[2]
        assert edge.lower == 1 and edge.upper == 1

    def test_single_bound_means_exact(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("v 0 A\nv 1 B\ne 0 1 2\n")
        edge = parse_query_file(path)[2]
        assert edge.lower == 2 and edge.upper == 2

    def test_undeclared_vertex_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("v 0 A\ne 0 1 1 1\n")
        with pytest.raises(ReproError, match=":2"):
            parse_query_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(ReproError):
            parse_query_file(path)

    def test_unknown_record_rejected(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("z 1 2\n")
        with pytest.raises(ReproError):
            parse_query_file(path)


class TestCommands:
    def test_generate_and_stats(self, tmp_path, capsys):
        out = tmp_path / "wn.txt"
        assert main(["generate", "--dataset", "wordnet", "--n", "60", "--out", str(out)]) == 0
        graph = load_edge_list(out)
        assert graph.num_vertices > 10
        assert main(["stats", "--graph", str(out)]) == 0
        captured = capsys.readouterr()
        assert "|V|" in captured.out

    def test_query_end_to_end(self, graph_file, query_file, capsys):
        code = main(
            [
                "query",
                "--graph",
                str(graph_file),
                "--query",
                str(query_file),
                "--strategy",
                "DI",
                "--t-avg-samples",
                "200",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "match:" in captured.out
        assert "V_delta: 3" in captured.err

    def test_query_with_ranking_and_dot(self, graph_file, query_file, tmp_path, capsys):
        dot_path = tmp_path / "out.dot"
        code = main(
            [
                "query",
                "--graph",
                str(graph_file),
                "--query",
                str(query_file),
                "--rank",
                "compactness",
                "--dot",
                str(dot_path),
                "--t-avg-samples",
                "200",
            ]
        )
        assert code == 0
        assert dot_path.read_text().startswith("graph match {")

    def test_query_error_path(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        code = main(
            ["query", "--graph", str(graph_file), "--query", str(bad)]
        )
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    """The exit-code contract (0 ok / 1 error / 3 deadline; 2 is retired)."""

    def _query_argv(self, graph_file, query_file, *extra):
        return [
            "query",
            "--graph",
            str(graph_file),
            "--query",
            str(query_file),
            "--t-avg-samples",
            "200",
            *extra,
        ]

    def test_deadline_exceeded_exits_3(self, graph_file, query_file, capsys):
        code = main(
            self._query_argv(graph_file, query_file, "--deadline", "0.0")
        )
        assert code == EXIT_DEADLINE
        assert "deadline exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [["--resilience", "default"], ["--fault-plan", "{}"]]
    )
    def test_removed_flags_are_usage_errors(self, graph_file, query_file, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(self._query_argv(graph_file, query_file, *flag))
        assert excinfo.value.code == 2  # argparse's usage error


class TestReplayCommand:
    def test_replay_end_to_end(self, graph_file, tmp_path, capsys):
        from repro.gui.recording import save_actions
        from repro.core.actions import NewEdge, NewVertex, Run

        rec = tmp_path / "session.json"
        save_actions(
            [
                NewVertex(0, "A", latency_after=0.01),
                NewVertex(1, "B", latency_after=0.01),
                NewEdge(0, 1, 1, 1, latency_after=0.01),
                Run(),
            ],
            rec,
        )
        code = main(
            [
                "replay",
                "--graph",
                str(graph_file),
                "--recording",
                str(rec),
                "--t-avg-samples",
                "200",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "replayed 4 actions" in captured.err
        assert "match:" in captured.out

    def test_replay_bad_recording(self, graph_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(
            ["replay", "--graph", str(graph_file), "--recording", str(bad)]
        )
        assert code == EXIT_ERROR

    def test_replay_deadline_exceeded_exits_3(self, graph_file, tmp_path, capsys):
        from repro.gui.recording import save_actions
        from repro.core.actions import NewEdge, NewVertex, Run

        rec = tmp_path / "session.json"
        save_actions(
            [
                NewVertex(0, "A", latency_after=0.01),
                NewVertex(1, "B", latency_after=0.01),
                NewEdge(0, 1, 1, 3, latency_after=0.01),
                Run(),
            ],
            rec,
        )
        code = main(
            [
                "replay",
                "--graph",
                str(graph_file),
                "--recording",
                str(rec),
                "--t-avg-samples",
                "200",
                "--deadline",
                "0.0",
            ]
        )
        assert code == EXIT_DEADLINE
        assert "deadline exceeded" in capsys.readouterr().err


class TestUpdateCheck:
    def test_seeded_sweep_passes(self, capsys):
        code = main(
            ["update-check", "--rounds", "1", "--n", "24", "--steps", "5",
             "--seed", "3"]
        )
        assert code == EXIT_OK
        assert "update-check PASS" in capsys.readouterr().out
