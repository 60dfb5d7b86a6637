"""The paper's worked examples, step by step.

Encodes every concrete intermediate state the paper narrates for the
Figure 2/3 running example, so the reproduction is pinned to the text and
not only to final answers.  Vertex ids: paper's v1..v12 are 0..11.
"""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.lowerbound import detect_path
from tests.reference_models import ids


V = lambda k: k - 1  # paper vertex number -> 0-based id


@pytest.fixture()
def boomer(fig2_ctx):
    return Boomer(fig2_ctx, strategy="IC")


class TestExample57CapConstruction:
    """Example 5.7 / Figure 3: the CAP index after each formulation step."""

    def test_steps_1_2_initial_levels(self, boomer):
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        # Steps 1-2: V_q1 = {v1..v4}, V_q2 = {v5..v8}
        assert ids(boomer.cap.candidates(0)) == {V(1), V(2), V(3), V(4)}
        assert ids(boomer.cap.candidates(1)) == {V(5), V(6), V(7), V(8)}

    def test_steps_3_4_edge1_prunes_v1(self, boomer):
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 1))  # e1.upper = 1, neighbor search
        # Step 4: v1 is isolated (no B within 1 hop) and pruned.
        assert ids(boomer.cap.candidates(0)) == {V(2), V(3), V(4)}
        assert ids(boomer.cap.candidates(1)) == {V(5), V(6), V(7), V(8)}

    def test_steps_5_7_edge2_prunes_v4_v7(self, boomer):
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 1))
        boomer.apply(NewVertex(2, "C"))  # Step 5: V_q3 = {v12}
        assert ids(boomer.cap.candidates(2)) == {V(12)}
        boomer.apply(NewEdge(1, 2, 1, 2))  # Step 6: e2.upper = 2, two-hop
        # Step 7: v7 pruned from V_q2 (no path <= 2 to v12); its A-support
        # v4 cascades out of V_q1.
        assert ids(boomer.cap.candidates(1)) == {V(5), V(6), V(8)}
        assert ids(boomer.cap.candidates(0)) == {V(2), V(3)}

    def test_steps_8_10_edge3_no_pruning(self, boomer):
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 1))
        boomer.apply(NewVertex(2, "C"))
        boomer.apply(NewEdge(1, 2, 1, 2))
        before_prunes = boomer.cap.prune_steps
        boomer.apply(NewEdge(0, 2, 1, 3))  # Step 9: large-upper search
        # Step 10: no isolated vertices identified; nothing pruned.
        assert boomer.cap.prune_steps == before_prunes
        assert ids(boomer.cap.candidates(0)) == {V(2), V(3)}
        assert ids(boomer.cap.candidates(1)) == {V(5), V(6), V(8)}
        assert ids(boomer.cap.candidates(2)) == {V(12)}


class TestSection51AIVSExamples:
    """Section 5.1's concrete AIVS values for the completed index."""

    @pytest.fixture()
    def completed(self, boomer):
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 1))
        boomer.apply(NewVertex(2, "C"))
        boomer.apply(NewEdge(1, 2, 1, 2))
        boomer.apply(NewEdge(0, 2, 1, 3))
        return boomer

    def test_aivs_of_v2(self, completed):
        # "V_q1^q3(v2) = {v12} and V_q1^q2(v2) = {v5}"
        assert ids(completed.cap.aivs(0, 2, V(2))) == {V(12)}
        assert ids(completed.cap.aivs(0, 1, V(2))) == {V(5)}

    def test_v6_v12_connected(self, completed):
        # "(v6, v12) are connected in the index" (via edge (q2, q3))
        assert V(12) in completed.cap.aivs(1, 2, V(6))

    def test_v_delta_from_section_51(self, completed):
        completed.apply(Run())
        got = {
            tuple(sorted(m.items())) for m in completed.run_result.matches
        }
        want = {
            ((0, V(2)), (1, V(5)), (2, V(12))),
            ((0, V(3)), (1, V(6)), (2, V(12))),
            ((0, V(3)), (1, V(8)), (2, V(12))),
        }
        assert got == want


class TestSection54LowerBoundNarrative:
    """Section 5.4's shortest-path / detour walkthrough for V_P = {v3, v8, v12}."""

    def test_shortest_paths_selected_with_default_lowers(self, fig2_ctx):
        # dist(v3, v8) = 1 >= lower 1: the direct edge is selected.
        path = detect_path(fig2_ctx, V(3), V(8), 1, 1)
        assert path == [V(3), V(8)]
        # dist(v8, v12) = 1, dist(v12, v3) = 2 similarly qualify.
        assert detect_path(fig2_ctx, V(8), V(12), 1, 2) == [V(8), V(12)]
        assert len(detect_path(fig2_ctx, V(12), V(3), 1, 3)) - 1 == 2

    def test_bounds_3_3_forces_detour(self, fig2_ctx):
        # "if the edge bound of (q1, q3) is modified to [3,3], then BOOMER
        # needs to take a 'detour' ... instead of taking the shortest path"
        path = detect_path(fig2_ctx, V(3), V(12), 3, 3)
        assert path is not None
        assert len(path) - 1 == 3
        assert path[0] == V(3) and path[-1] == V(12)
        # the length-2 shortest route (v3 -> v8 -> v12) was not acceptable
        assert path != [V(3), V(8), V(12)]


class TestGeneralityExactSubgraphSearch:
    """Section 4: all-default bounds reduce BPH to exact subgraph search."""

    def test_default_bounds_give_subgraph_isomorphism(self, fig2_ctx, fig2_graph):
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "B"))
        boomer.apply(NewVertex(1, "X"))
        boomer.apply(NewEdge(0, 1))  # default [1,1]
        assert boomer.query.is_subgraph_iso_query
        boomer.apply(Run())
        for match in boomer.run_result.matches:
            assert fig2_graph.has_edge(match[0], match[1])
