"""Tests for the seeded fault-injection harness (:mod:`repro.faults`)."""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.cost import GUILatencyConstants
from repro.core.preprocessor import make_context, preprocess
from repro.errors import ReproError
from repro.faults import (
    CAPCorruptionSpec,
    CAPCorruptor,
    FaultPlan,
    FaultyLatencyModel,
    FaultyOracle,
    GUIFaultSpec,
    InjectedFaultError,
    OracleFaultSpec,
)
from repro.gui.latency import LatencyModel
from repro.gui.session import VisualSession
from repro.resilience import ResilienceConfig
from tests.conftest import build_fig2_graph
from tests.test_batch_parity import make_two_label_pre


@pytest.fixture(scope="module")
def pre():
    return preprocess(build_fig2_graph(), t_avg_samples=100)


class TestFaultPlan:
    def test_null_plan_is_identity(self, pre):
        plan = FaultPlan()
        assert plan.is_null
        ctx = make_context(pre)
        assert plan.wrap_context(ctx) is ctx
        assert plan.wrap_oracle(ctx.oracle) is ctx.oracle
        model = LatencyModel(GUILatencyConstants())
        assert plan.wrap_latency_model(model) is model
        assert plan.corrupt_cap(None) is None  # cap never touched

    def test_json_round_trip_string(self):
        plan = FaultPlan(
            seed=42,
            oracle=OracleFaultSpec(transient_rate=0.25, fail_after=10),
            gui=GUIFaultSpec(drop_rate=0.1, spike_factor=5.0),
            cap=CAPCorruptionSpec(bogus_pair_count=2),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_json_round_trip_file(self, tmp_path):
        plan = FaultPlan(seed=7, oracle=OracleFaultSpec(fail_after=3))
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ReproError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 1, "disk": {}})
        with pytest.raises(ReproError, match="unknown oracle fault-spec keys"):
            FaultPlan.from_dict({"oracle": {"explode_rate": 1.0}})

    def test_invalid_json_rejected(self):
        with pytest.raises(ReproError, match="invalid fault-plan JSON"):
            FaultPlan.from_json("{not json")

    def test_component_seeds_are_independent(self, pre):
        """Toggling GUI faults must not shift the oracle's fault schedule."""
        spec = OracleFaultSpec(transient_rate=0.5)
        base = FaultPlan(seed=9, oracle=spec)
        with_gui = FaultPlan(seed=9, oracle=spec, gui=GUIFaultSpec(drop_rate=0.5))

        def schedule(plan):
            oracle = plan.wrap_oracle(make_context(pre).oracle)
            outcomes = []
            for _ in range(50):
                try:
                    oracle.distance(0, 1)
                    outcomes.append("ok")
                except InjectedFaultError:
                    outcomes.append("fault")
            return outcomes

        assert schedule(base) == schedule(with_gui)


class TestFaultyOracle:
    def test_permanent_death(self, pre):
        oracle = FaultyOracle(make_context(pre).oracle, OracleFaultSpec(fail_after=2))
        assert oracle.distance(0, 1) >= 0
        assert oracle.within(0, 1, 3) in (True, False)
        with pytest.raises(InjectedFaultError, match="permanently down"):
            oracle.distance(0, 1)
        with pytest.raises(InjectedFaultError):  # stays dead
            oracle.within(0, 1, 3)
        assert oracle.calls == 4 and oracle.faults_injected == 2

    def test_transient_burst_length(self, pre):
        # rate 1.0: the first call faults and opens a burst of exactly 3.
        spec = OracleFaultSpec(transient_rate=1.0, transient_burst=3)
        oracle = FaultyOracle(make_context(pre).oracle, spec, seed=1)
        failures = 0
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                oracle.distance(0, 1)
            failures += 1
        assert failures == 3

    def test_same_seed_same_schedule(self, pre):
        spec = OracleFaultSpec(transient_rate=0.4)
        inner = make_context(pre).oracle

        def run(seed):
            oracle = FaultyOracle(inner, spec, seed=seed)
            out = []
            for _ in range(40):
                try:
                    oracle.distance(0, 1)
                    out.append(True)
                except InjectedFaultError:
                    out.append(False)
            return out

        assert run(5) == run(5)
        assert run(5) != run(6)  # and the seed actually matters

    def test_schedule_isolated_from_global_rng(self, pre):
        """R1 regression: injectors must not touch the ambient ``random``.

        Re-seeding (or draining) the process-global generator between runs
        must leave the fault schedule byte-identical — the injectors draw
        only from their own ``seeded_rng`` instance.
        """
        import random as global_random

        spec = OracleFaultSpec(transient_rate=0.4)
        inner = make_context(pre).oracle

        def run():
            oracle = FaultyOracle(inner, spec, seed=11)
            out = []
            for _ in range(40):
                try:
                    oracle.distance(0, 1)
                    out.append(True)
                except InjectedFaultError:
                    out.append(False)
            return out

        global_random.seed(1)
        first = run()
        global_random.seed(999)
        global_random.random()  # perturb ambient state between runs
        assert run() == first


class TestNullOraclePlan:
    """A plan whose oracle spec injects nothing changes nothing a session
    reports: the wrapper forwards the kernels the engine calls, one tick
    per kernel call, so it sees exactly what ``oracle_calls`` charges."""

    @pytest.fixture(scope="class")
    def two_label_pre(self):
        return make_two_label_pre()

    @pytest.mark.parametrize("strategy", ["IC", "DR", "DI"])
    def test_null_oracle_plan_changes_nothing(self, two_label_pre, strategy):
        # An upper-3 edge between two 12-vertex candidate sets: one
        # within_many block of 144 logical queries.
        actions = [
            NewVertex(0, "A", latency_after=0.002),
            NewVertex(1, "B", latency_after=0.002),
            NewEdge(0, 1, 1, 3, latency_after=0.002),
            Run(),
        ]
        reports = {}
        for plan in (None, FaultPlan(seed=3, oracle=OracleFaultSpec())):
            session = VisualSession(
                make_context(two_label_pre),
                resilience=ResilienceConfig.default(),
                fault_plan=plan,
            )
            run = session.run_actions(actions, strategy=strategy).run
            counters = session.ctx.counters
            reports[plan is None] = (
                counters.snapshot(),
                run.matches.order,
                run.matches.block.tobytes(),
            )
            if plan is not None:
                assert isinstance(session.ctx.oracle, FaultyOracle)
                assert session.ctx.oracle.calls == counters.oracle_calls
                assert session.ctx.oracle.faults_injected == 0
        assert reports[True] == reports[False]
        assert reports[True][0]["distance_queries"] >= 12 * 12


class TestFaultyLatencyModel:
    def test_drop_and_spike_are_seeded(self):
        spec = GUIFaultSpec(drop_rate=0.3, spike_rate=0.3, spike_factor=10.0)
        constants = GUILatencyConstants()

        def run(seed):
            # Fresh inner model each run: the model itself is stateful.
            faulty = FaultyLatencyModel(
                LatencyModel(constants, seed=0), spec, seed=seed
            )
            return [faulty.vertex_time() for _ in range(30)]

        assert run(3) == run(3)
        values = run(3)
        assert 0.0 in values  # drops happened
        assert max(values) > constants.t_vertex * 5  # spikes happened

    def test_all_steps_perturbed(self):
        faulty = FaultyLatencyModel(
            LatencyModel(GUILatencyConstants()), GUIFaultSpec(drop_rate=1.0), seed=0
        )
        assert faulty.vertex_time() == 0.0
        assert faulty.edge_time(default_bounds=True) == 0.0
        assert faulty.modify_time() == 0.0
        assert faulty.run_click_time() == 0.0
        assert faulty.drops_injected == 4


class TestCAPCorruptor:
    def _built_cap(self, pre):
        boomer = Boomer(make_context(pre), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 2))
        boomer.apply(NewVertex(2, "C"))
        boomer.apply(NewEdge(1, 2, 1, 2))
        return boomer

    def test_each_mode_reports_damage(self, pre):
        boomer = self._built_cap(pre)
        spec = CAPCorruptionSpec(
            drop_pair_count=1, bogus_pair_count=1, drop_candidate_count=1
        )
        report = CAPCorruptor(spec, seed=3).corrupt(boomer.cap)
        assert len(report.dropped_pairs) == 1
        assert len(report.bogus_pairs) == 1
        assert len(report.dropped_candidates) == 1
        assert report.total == 3

    def test_corruption_is_detectable(self, pre):
        """Every damage mode must violate an audited invariant."""
        for spec in (
            CAPCorruptionSpec(drop_pair_count=1),
            CAPCorruptionSpec(bogus_pair_count=1),
            CAPCorruptionSpec(drop_candidate_count=1),
        ):
            boomer = self._built_cap(pre)
            report = CAPCorruptor(spec, seed=3).corrupt(boomer.cap)
            assert report.total == 1
            issues = boomer.cap.integrity_issues(boomer.query)
            assert issues, f"{spec} was not detected structurally"

    def test_same_seed_same_damage(self, pre):
        spec = CAPCorruptionSpec(drop_pair_count=2, bogus_pair_count=2)
        reports = []
        for _ in range(2):
            boomer = self._built_cap(pre)
            reports.append(CAPCorruptor(spec, seed=11).corrupt(boomer.cap))
        assert reports[0].dropped_pairs == reports[1].dropped_pairs
        assert reports[0].bogus_pairs == reports[1].bogus_pairs
