"""Tests for query-instance generation and soak-schedule determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import Bounds
from repro.errors import ExperimentError
from repro.graph.builder import GraphBuilder
from repro.workload.generator import (
    QueryInstance,
    instantiate,
    instantiate_from_region,
)
from repro.workload.templates import get_template
from repro.workload.traffic import SoakWorkloadConfig, generate_soak_schedule
from tests.conftest import build_fig2_graph
from tests.reference_models import paper_query_set


class TestInstantiate:
    def test_deterministic(self):
        g = build_fig2_graph()
        a = instantiate("Q1", g, seed=5)
        b = instantiate("Q1", g, seed=5)
        assert a.labels == b.labels

    def test_seed_varies_labels(self):
        g = build_fig2_graph()
        variants = {instantiate("Q2", g, seed=s).labels for s in range(8)}
        assert len(variants) > 1

    def test_labels_exist_in_graph(self):
        g = build_fig2_graph()
        inst = instantiate("Q2", g, seed=3)
        for label in inst.labels:
            assert len(g.vertices_with_label(label)) > 0

    def test_default_bounds_copied(self):
        g = build_fig2_graph()
        inst = instantiate("Q1", g, seed=0)
        assert inst.bounds == get_template("Q1").default_bounds

    def test_name_format(self):
        g = build_fig2_graph()
        inst = instantiate("Q1", g, seed=2, dataset="wn")
        assert inst.name == "Q1@wn#2"

    def test_graph_too_small(self):
        b = GraphBuilder()
        b.add_vertex("A")
        with pytest.raises(ExperimentError):
            instantiate_from_region(get_template("Q5"), b.build())

    def test_region_sampling_needs_connectivity(self):
        b = GraphBuilder()
        b.add_vertices("abcde")  # 5 isolated vertices, Q1 needs a walk of 3
        with pytest.raises(ExperimentError):
            instantiate_from_region(get_template("Q1"), b.build())


class TestOverrides:
    @pytest.fixture()
    def inst(self):
        return instantiate("Q1", build_fig2_graph(), seed=1)

    def test_with_bounds(self, inst):
        out = inst.with_bounds({2: Bounds(2, 4)}, tag="x")
        assert out.bounds[1] == Bounds(2, 4)
        assert out.bounds[0] == inst.bounds[0]
        assert out.tag == "x"
        assert "x" in out.name

    def test_with_upper_preserves_lower(self, inst):
        base = inst.with_bounds({1: Bounds(1, 2)})
        out = base.with_upper({1: 5})
        assert out.bounds[0] == Bounds(1, 5)

    def test_with_upper_clamps_lower(self, inst):
        base = inst.with_bounds({1: Bounds(2, 3)})
        out = base.with_upper({1: 1})
        assert out.bounds[0] == Bounds(1, 1)

    def test_unknown_edge_rejected(self, inst):
        with pytest.raises(ExperimentError):
            inst.with_upper({9: 5})

    def test_original_unchanged(self, inst):
        _ = inst.with_upper({1: 9})
        assert inst.bounds == get_template("Q1").default_bounds


class TestBuildQuery:
    def test_structure(self):
        inst = instantiate("Q2", build_fig2_graph(), seed=1)
        query = inst.build_query()
        assert query.num_vertices == 4
        assert query.num_edges == 4
        # 1-based vertex ids matching the paper
        assert query.vertex_ids() == [1, 2, 3, 4]
        for (u, v), bounds in zip(inst.template.edges, inst.bounds):
            assert query.edge_between(u, v).bounds == bounds

    def test_validation_mismatch_rejected(self):
        template = get_template("Q1")
        with pytest.raises(ExperimentError):
            QueryInstance(template=template, labels=("A",), bounds=template.default_bounds)
        with pytest.raises(ExperimentError):
            QueryInstance(
                template=template, labels=("A", "B", "C"), bounds=(Bounds(),)
            )


class TestPaperQuerySet:
    def test_population(self):
        g = build_fig2_graph()
        instances = paper_query_set(g, dataset="fig2", seeds_per_template=2)
        assert len(instances) == 12  # 6 templates x 2 seeds
        names = {i.template.name for i in instances}
        assert names == {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}

    def test_unique_names(self):
        g = build_fig2_graph()
        instances = paper_query_set(g, dataset="fig2")
        assert len({i.name for i in instances}) == len(instances)


class TestSoakSchedule:
    """Determinism regression: one seed pins the *entire* soak schedule."""

    def test_same_seed_identical_schedule(self):
        g = build_fig2_graph()
        config = SoakWorkloadConfig(seed=42, sessions=10, modify_rate=0.5,
                                    abandon_rate=0.2)
        a = generate_soak_schedule(g, config)
        b = generate_soak_schedule(g, config)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_prefix_stable_when_sessions_grow(self):
        """Adding sessions never perturbs the ones before them."""
        g = build_fig2_graph()
        small = generate_soak_schedule(g, SoakWorkloadConfig(seed=7, sessions=5))
        large = generate_soak_schedule(g, SoakWorkloadConfig(seed=7, sessions=9))
        assert [s.to_dict() for s in large[:5]] == [s.to_dict() for s in small]

    def test_arrivals_strictly_ordered_and_heavy_tailed(self):
        g = build_fig2_graph()
        scripts = generate_soak_schedule(
            g, SoakWorkloadConfig(seed=3, sessions=40)
        )
        offsets = [s.arrival_offset for s in scripts]
        assert offsets == sorted(offsets)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))

    def test_abandoned_scripts_never_run(self):
        g = build_fig2_graph()
        scripts = generate_soak_schedule(
            g, SoakWorkloadConfig(seed=1, sessions=30, abandon_rate=0.5)
        )
        abandoned = [s for s in scripts if s.abandoned]
        assert abandoned  # rate 0.5 over 30 sessions: must fire
        for script in abandoned:
            assert script.actions  # nonempty prefix survives
            assert all(a["kind"] != "Run" for a in script.actions)
        for script in scripts:
            if not script.abandoned:
                assert script.actions[-1]["kind"] == "Run"

    def test_modified_scripts_revise_bounds_before_run(self):
        g = build_fig2_graph()
        scripts = generate_soak_schedule(
            g, SoakWorkloadConfig(seed=1, sessions=30, modify_rate=0.6,
                                  abandon_rate=0.0)
        )
        modified = [s for s in scripts if s.modified]
        assert modified
        for script in modified:
            kinds = [a["kind"] for a in script.actions]
            assert "ModifyBounds" in kinds
            assert kinds.index("ModifyBounds") < kinds.index("Run")

    def test_validation_is_loud(self):
        with pytest.raises(ExperimentError):
            SoakWorkloadConfig(sessions=0)
        with pytest.raises(ExperimentError):
            SoakWorkloadConfig(pareto_alpha=1.0)
        with pytest.raises(ExperimentError):
            SoakWorkloadConfig(modify_rate=1.5)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sessions=st.integers(min_value=1, max_value=8),
        modify=st.floats(min_value=0.0, max_value=1.0),
        abandon=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_any_seed_reproduces_itself(self, seed, sessions, modify, abandon):
        g = build_fig2_graph()
        config = SoakWorkloadConfig(
            seed=seed, sessions=sessions,
            modify_rate=modify, abandon_rate=abandon,
        )
        a = generate_soak_schedule(g, config)
        b = generate_soak_schedule(g, config)
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]
