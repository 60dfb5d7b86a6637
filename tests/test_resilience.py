"""Tests for the resilience layer: retry, deadline, checker, degradation.

Includes the acceptance scenarios of the resilience work: a permanent
oracle failure mid-stream leaves a *degraded* session whose match set
equals a clean BU run, and a transient failure is retried away so the
CAP-path result equals the fault-free result.
"""

from dataclasses import replace

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.modification import quarantine_edge
from repro.core.preprocessor import make_context, preprocess
from repro.errors import (
    ActionError,
    CAPCorruptionError,
    CAPStateError,
    DeadlineExceededError,
    DegradedModeError,
    ReproError,
    RetryExhaustedError,
)
from repro.faults import CAPCorruptionSpec, CAPCorruptor, FaultPlan, OracleFaultSpec
from repro.gui.session import VisualSession
from repro.resilience import (
    POSTURES,
    CAPInvariantChecker,
    Deadline,
    ResilienceConfig,
    RetryPolicy,
)
from tests.conftest import build_fig2_graph


@pytest.fixture(scope="module")
def pre():
    return preprocess(build_fig2_graph(), t_avg_samples=100)


def triangle_actions():
    return [
        NewVertex(0, "A", latency_after=0.002),
        NewVertex(1, "B", latency_after=0.002),
        NewEdge(0, 1, 1, 1, latency_after=0.002),
        NewVertex(2, "C", latency_after=0.002),
        NewEdge(1, 2, 1, 2, latency_after=0.002),
        NewEdge(0, 2, 1, 3, latency_after=0.002),
        Run(),
    ]


def match_set(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_recovers_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("blip")
            return "ok"

        assert RetryPolicy(max_attempts=3, base_delay=0.0).call(flaky) == "ok"
        assert len(attempts) == 3

    def test_exhaustion_wraps_and_chains(self):
        def dead():
            raise RuntimeError("down")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(dead, label="oracle probe")
        err = excinfo.value
        assert err.operation == "oracle probe"
        assert err.attempts == 2
        assert isinstance(err.last_error, RuntimeError)
        assert err.__cause__ is err.last_error

    def test_repro_errors_never_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise CAPStateError("logic bug")

        with pytest.raises(CAPStateError):
            RetryPolicy(max_attempts=5, base_delay=0.0).call(broken)
        assert len(attempts) == 1

    def test_backoff_schedule_clamped(self):
        policy = RetryPolicy(base_delay=0.01, backoff=10.0, max_delay=0.05)
        assert policy.delay_for(1) == pytest.approx(0.01)
        assert policy.delay_for(2) == pytest.approx(0.05)  # clamped
        assert policy.delay_for(5) == pytest.approx(0.05)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_on_retry_hook_sees_each_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise RuntimeError("blip")
            return 1

        RetryPolicy(max_attempts=3, base_delay=0.0).call(
            flaky, on_retry=lambda attempt, exc: seen.append((attempt, str(exc)))
        )
        assert seen == [(1, "blip"), (2, "blip")]

    def test_refuses_to_sleep_past_deadline(self):
        deadline = Deadline(10.0)

        def dead():
            raise RuntimeError("down")

        # backoff far beyond the remaining budget: fail fast instead.
        policy = RetryPolicy(max_attempts=3, base_delay=99.0, max_delay=99.0)
        with pytest.raises(DeadlineExceededError, match="backing off"):
            policy.call(dead, deadline=deadline)


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_unlimited_checkpoints_are_noops(self):
        deadline = Deadline.unlimited()
        for _ in range(100):
            deadline.checkpoint("loop")
        assert deadline.checkpoints == 0  # not even counted

    def test_zero_budget_fires_immediately(self):
        deadline = Deadline(0.0, label="drain")
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.checkpoint()
        assert "drain" in str(excinfo.value)
        assert excinfo.value.limit == 0.0

    def test_generous_budget_passes(self):
        deadline = Deadline(60.0)
        deadline.checkpoint("fast op")
        assert deadline.checkpoints == 1

    def test_subbudget_never_exceeds_remaining(self):
        assert Deadline(None).subbudget(0.5).limit == pytest.approx(0.5)
        assert Deadline(60.0).subbudget(0.5).limit == pytest.approx(0.5)
        assert Deadline(0.0).subbudget(0.5).limit <= 0.0

    def test_is_timeout_error(self):
        # Callers with generic timeout handling catch it without imports.
        with pytest.raises(TimeoutError):
            Deadline(0.0).checkpoint()


# ---------------------------------------------------------------------------
# CAPInvariantChecker
# ---------------------------------------------------------------------------
class TestChecker:
    def _session(self, pre, resilience=None):
        boomer = Boomer(
            make_context(pre), strategy="IC", resilience=resilience
        )
        for action in triangle_actions()[:-1]:
            boomer.apply(action)
        return boomer

    def test_clean_index_audits_clean(self, pre):
        boomer = self._session(pre)
        report = CAPInvariantChecker().audit(boomer.cap, boomer.query, boomer.engine.ctx)
        assert report.clean
        assert report.edges_checked == 3
        assert report.pairs_sampled > 0

    def test_audit_finds_every_corruption_mode(self, pre):
        for spec in (
            CAPCorruptionSpec(drop_pair_count=1),
            CAPCorruptionSpec(bogus_pair_count=1),
            CAPCorruptionSpec(drop_candidate_count=1),
        ):
            boomer = self._session(pre)
            CAPCorruptor(spec, seed=2).corrupt(boomer.cap)
            report = CAPInvariantChecker().audit(
                boomer.cap, boomer.query, boomer.engine.ctx
            )
            assert not report.clean, f"{spec} escaped the audit"
            assert report.corrupt_edges

    def test_repair_restores_clean_state_and_answers(self, pre):
        clean = self._session(pre)
        clean.apply(Run())
        expected = match_set(clean.run_result.matches)

        boomer = self._session(pre, resilience=ResilienceConfig.default())
        CAPCorruptor(
            CAPCorruptionSpec(drop_pair_count=2, bogus_pair_count=1), seed=2
        ).corrupt(boomer.cap)
        checker = CAPInvariantChecker()
        report = checker.audit(boomer.cap, boomer.query, boomer.engine.ctx)
        assert not report.clean
        repair = checker.repair(boomer.engine, report)
        assert repair.quarantined
        assert repair.rebuilt_edges > 0
        post = checker.audit(boomer.cap, boomer.query, boomer.engine.ctx)
        assert post.clean
        boomer.apply(Run())
        assert match_set(boomer.run_result.matches) == expected

    def test_unrepairable_raises_corruption_error(self, pre):
        boomer = self._session(pre, resilience=ResilienceConfig.default())
        CAPCorruptor(CAPCorruptionSpec(drop_pair_count=1), seed=2).corrupt(boomer.cap)
        # Kill the oracle so the rebuild fails: repair cannot converge.
        dead = FaultPlan(seed=1, oracle=OracleFaultSpec(fail_after=0))
        boomer.engine.ctx = dead.wrap_context(boomer.engine.ctx)
        with pytest.raises((CAPCorruptionError, RetryExhaustedError)):
            CAPInvariantChecker().repair(boomer.engine)


# ---------------------------------------------------------------------------
# quarantine_edge (modification-layer repair primitive)
# ---------------------------------------------------------------------------
class TestQuarantine:
    def test_quarantine_repools_without_reprocessing(self, pre):
        boomer = Boomer(make_context(pre), strategy="IC")
        for action in triangle_actions()[:-1]:
            boomer.apply(action)
        assert boomer.cap.is_processed(0, 1)
        report = quarantine_edge(boomer.engine, 0, 1)
        assert report.kind == "quarantine"
        # The whole processed component is rolled back and re-pooled,
        # but NOT eagerly re-processed (even under IC).
        assert not boomer.cap.is_processed(0, 1)
        assert boomer.engine.pool.contains(0, 1)
        assert (0, 1) in report.repooled_edges

    def test_quarantine_unprocessed_edge_rejected(self, pre):
        boomer = Boomer(make_context(pre), strategy="DR")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        boomer.apply(NewEdge(0, 1, 1, 2))
        quarantine_edge(boomer.engine, 0, 1)  # now pooled, not processed
        with pytest.raises(CAPStateError, match="not processed"):
            quarantine_edge(boomer.engine, 0, 1)


# ---------------------------------------------------------------------------
# Degradation ladder + terminal states (acceptance scenarios)
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_acceptance_permanent_failure_degrades_to_bu_matches(self, pre):
        """Seeded e2e: permanent oracle death mid-stream -> session
        completes degraded, match set equal to a clean BU run."""
        from repro.baseline.bu import BoomerUnaware

        session = VisualSession(
            make_context(pre),
            resilience=ResilienceConfig.default(),
            fault_plan=FaultPlan(seed=3, oracle=OracleFaultSpec(fail_after=0)),
        )
        result = session.run_actions(triangle_actions(), strategy="DI")
        assert result.degraded
        assert result.fallback in ("bu-oracle", "bu-bfs")
        assert any(r.status == "failed-deferred" for r in result.boomer.action_reports)

        clean_bu = BoomerUnaware(make_context(pre)).evaluate(result.boomer.query)
        assert match_set(result.run.matches) == match_set(clean_bu.matches)

    def test_acceptance_transient_failure_recovers_on_cap_path(self, pre):
        clean = VisualSession(make_context(pre)).run_actions(
            triangle_actions(), strategy="DI"
        )
        faulty = VisualSession(
            make_context(pre),
            resilience=ResilienceConfig.default(),
            fault_plan=FaultPlan(
                seed=3, oracle=OracleFaultSpec(transient_rate=0.5, transient_burst=1)
            ),
        ).run_actions(triangle_actions(), strategy="DI")
        assert not faulty.degraded
        assert match_set(faulty.run.matches) == match_set(clean.run.matches)

    def test_degradation_reports_on_run_result(self, pre):
        plan = FaultPlan(seed=3, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(
            plan.wrap_context(make_context(pre)),
            strategy="DR",
            resilience=ResilienceConfig.default(),
        )
        for action in triangle_actions():
            boomer.apply(action)
        run = boomer.run_result
        assert run.degraded
        assert run.fallback == "bu-bfs"  # session oracle is dead: rung 2 skipped
        assert "RetryExhaustedError" in run.degradation_reason
        assert run.matches.extras["fallback"] == "bu-bfs"

    def test_degradation_disabled_raises(self, pre):
        plan = FaultPlan(seed=3, oracle=OracleFaultSpec(fail_after=0))
        config = ResilienceConfig(degrade_to_bu=False, retry=RetryPolicy(max_attempts=2))
        boomer = Boomer(
            plan.wrap_context(make_context(pre)), strategy="DR", resilience=config
        )
        with pytest.raises(RetryExhaustedError):
            for action in triangle_actions():
                boomer.apply(action)

    def test_all_rungs_failing_raises_degraded_mode_error(self, pre, monkeypatch):
        from repro.baseline import bu as bu_module

        def exploding_evaluate(self, query):
            raise RuntimeError("BU exploded too")

        monkeypatch.setattr(bu_module.BoomerUnaware, "evaluate", exploding_evaluate)
        plan = FaultPlan(seed=3, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(
            plan.wrap_context(make_context(pre)),
            strategy="DR",
            resilience=ResilienceConfig.default(),
        )
        with pytest.raises(DegradedModeError, match="every degradation rung failed"):
            for action in triangle_actions():
                boomer.apply(action)

    def test_deadline_exceeded_never_degrades(self, pre):
        boomer = Boomer(
            make_context(pre),
            strategy="DR",
            resilience=ResilienceConfig(deadline_seconds=0.0),
        )
        with pytest.raises(DeadlineExceededError):
            for action in triangle_actions():
                boomer.apply(action)
        assert boomer.run_result is None

    def test_failed_run_is_terminal(self, pre):
        boomer = Boomer(
            make_context(pre),
            strategy="DR",
            resilience=ResilienceConfig(deadline_seconds=0.0),
        )
        with pytest.raises(DeadlineExceededError):
            for action in triangle_actions():
                boomer.apply(action)
        with pytest.raises(CAPStateError, match="terminal failed-Run state"):
            boomer.apply(NewVertex(9, "A"))

    def test_successful_run_still_raises_action_error(self, pre):
        # Regression: the terminal-state guard must not change the
        # long-standing contract for *successful* runs.
        boomer = Boomer(make_context(pre), strategy="IC")
        for action in triangle_actions():
            boomer.apply(action)
        with pytest.raises(ActionError, match="already executed"):
            boomer.apply(NewVertex(9, "A"))

    def test_verify_on_run_repairs_corruption(self, pre):
        session = VisualSession(
            make_context(pre),
            resilience=ResilienceConfig.default(),  # audit auto-forced on
            fault_plan=FaultPlan(
                seed=5, cap=CAPCorruptionSpec(drop_pair_count=1, bogus_pair_count=1)
            ),
        )
        clean = VisualSession(make_context(pre)).run_actions(
            triangle_actions(), strategy="DI"
        )
        result = session.run_actions(triangle_actions(), strategy="DI")
        assert not result.degraded  # repaired in place, CAP path kept
        assert result.run.cap_repaired_edges > 0
        assert match_set(result.run.matches) == match_set(clean.run.matches)


# ---------------------------------------------------------------------------
# ResilienceConfig postures
# ---------------------------------------------------------------------------
class TestConfig:
    def test_postures(self):
        default = ResilienceConfig.default()
        assert default.degrade_to_bu and not default.verify_cap_on_run
        strict = ResilienceConfig.strict()
        assert strict.retry.max_attempts == 1
        assert not strict.degrade_to_bu and not strict.absorb_action_failures
        paranoid = ResilienceConfig.paranoid(deadline_seconds=5.0)
        assert paranoid.verify_cap_on_run
        assert paranoid.deadline_seconds == 5.0

    def test_from_posture_is_the_one_name_mapping(self):
        """What ``--resilience``/``--deadline`` and the wire's
        ``create_session`` resolve through."""
        assert POSTURES == ("off", "default", "strict", "paranoid")
        assert ResilienceConfig.from_posture("off") is None
        assert ResilienceConfig.from_posture(None) is None
        for name in POSTURES[1:]:
            assert ResilienceConfig.from_posture(name) == getattr(ResilienceConfig, name)()
        # A deadline bounds whatever the posture gives; alone it implies "default".
        assert ResilienceConfig.from_posture("off", 2.0) == replace(
            ResilienceConfig.default(), deadline_seconds=2.0
        )
        assert ResilienceConfig.from_posture("strict", 2.0) == replace(
            ResilienceConfig.strict(), deadline_seconds=2.0
        )
        built = ResilienceConfig.paranoid()
        assert ResilienceConfig.from_posture(built) is built
        assert ResilienceConfig.from_posture(built, 1.5).deadline_seconds == 1.5
        with pytest.raises(ValueError, match="bogus"):
            ResilienceConfig.from_posture("bogus")

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            ResilienceConfig.default().degrade_to_bu = False

    def test_exported_from_repro_root(self):
        import repro

        for name in ("ResilienceConfig", "RetryPolicy", "Deadline", "FaultPlan"):
            assert hasattr(repro, name)
