"""Odds-and-ends coverage: small helpers and error paths."""

import pytest

from repro.core.cap import CAPIndex
from repro.errors import CAPStateError
from tests.reference_models import ids


class TestCAPErrorPaths:
    def test_remove_missing_level(self):
        with pytest.raises(CAPStateError):
            CAPIndex().remove_level(5)

    def test_reset_missing_level(self):
        with pytest.raises(CAPStateError):
            CAPIndex().reset_level(5, [1])

    def test_prune_isolated_pruning_disabled(self):
        cap = CAPIndex(pruning_enabled=False)
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.begin_edge(0, 1)
        cap.finish_edge(0, 1)
        assert cap.prune_isolated(0, 1) == []
        assert ids(cap.candidates(0)) == {1}  # isolated but kept

    def test_processed_component_no_edges(self):
        cap = CAPIndex()
        cap.add_level(3, [1, 2])
        vertices, edges = cap.processed_component(3)
        assert vertices == {3}
        assert edges == set()


class TestExperimentsCLI:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("exp1", "exp8"):
            assert exp_id in out

    def test_run_rejects_unknown_id(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["run", "exp99"])

    def test_requires_subcommand(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main([])


class TestDatasetOracleOverride:
    def test_bundle_context_with_bfs_oracle(self, dblp_tiny):
        from repro.indexing.oracle import BFSOracle

        oracle = BFSOracle(dblp_tiny.graph)
        ctx = dblp_tiny.make_context(oracle=oracle)
        assert ctx.oracle is oracle
        # Context distances still exact.
        from repro.graph.algorithms import distance

        assert ctx.distance(0, 1) == distance(dblp_tiny.graph, 0, 1)


class TestBoomerMisc:
    def test_probe_idle_zero_budget(self, fig2_ctx):
        from repro.core.blender import Boomer

        boomer = Boomer(fig2_ctx)
        assert boomer.probe_idle(0.0) == 0.0
        assert boomer.probe_idle(-1.0) == 0.0

    def test_execute_stream_with_action_stream_object(self, fig2_ctx):
        from repro.core.actions import ActionStream, NewVertex, Run
        from repro.core.blender import Boomer

        stream = ActionStream([NewVertex(0, "C"), Run()])
        result = Boomer(fig2_ctx).execute_stream(stream)
        assert result.num_matches == 1

    def test_visualize_returns_none_for_spurious_match(self, fig2_ctx):
        from repro.core.actions import NewEdge, NewVertex, Run
        from repro.core.blender import Boomer

        boomer = Boomer(fig2_ctx)
        boomer.apply(NewVertex(0, "X"))
        boomer.apply(NewVertex(1, "X"))
        boomer.apply(NewEdge(0, 1, 3, 3))  # X's are v9..v11
        boomer.apply(Run())
        spurious = [
            m for m in boomer.run_result.matches if boomer.visualize(m) is None
        ]
        validated = [
            m for m in boomer.run_result.matches if boomer.visualize(m) is not None
        ]
        # upper bound admits dist<=3 pairs; lower=3 requires an exact
        # 3-long simple path, which not every pair has
        assert len(validated) + len(spurious) == boomer.run_result.num_matches
