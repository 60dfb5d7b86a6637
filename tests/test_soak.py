"""Smoke soak: a short chaos run must pass the SLO gate end to end.

This is the ~30-second version of ``benchmarks/bench_soak.py`` (the
nightly job runs the long one): real sockets, tight budgets, seeded
faults, abandoning users, drain, restore-and-verify.  Plus unit tests
for the SLO arithmetic itself, which must stay boringly predictable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import FaultPlan, GUIFaultSpec, OracleFaultSpec
from repro.soak import SLO, SOAK_CONFIG, SoakReport, run_soak
from repro.soak.slo import percentile
from repro.workload import SoakWorkloadConfig


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 0.5) == 3.0
        assert percentile(samples, 1.0) == 5.0

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0


class TestSLO:
    def test_clean_report_passes(self):
        report = SoakReport(
            runs_completed=3, run_latency={"p50": 0.1, "p95": 0.2, "p99": 0.3}
        )
        assert SLO().check(report) == []

    def test_every_clause_fires(self):
        report = SoakReport(
            runs_completed=0,
            run_latency={"p50": 99.0, "p95": 99.0, "p99": 99.0},
            leaked_sessions=1,
            lock_inversions=2,
            unresolved_sheds=3,
            restore_mismatches=4,
            memory_growth_mib=1e6,
            unexpected_errors=["boom"],
        )
        violations = SLO(
            p50_run_seconds=1.0, p95_run_seconds=1.0, p99_run_seconds=1.0
        ).check(report)
        text = "\n".join(violations)
        for needle in (
            "p50", "p95", "p99", "leaked", "inversion", "shed",
            "diverged", "memory", "run(s) completed", "untyped",
        ):
            assert needle in text, f"missing clause: {needle}"

    def test_report_round_trips_to_dict(self):
        report = SoakReport(runs_completed=2, passed=True)
        payload = report.to_dict()
        assert payload["runs_completed"] == 2
        assert payload["passed"] is True
        assert set(payload) >= {
            "run_latency", "typed_errors", "drain_summary", "violations",
        }


@pytest.mark.slow
class TestSmokeSoak:
    def test_chaos_soak_meets_slo(self, dblp_tiny):
        plan = FaultPlan(
            seed=99,
            oracle=OracleFaultSpec(transient_rate=0.02, transient_burst=2),
            gui=GUIFaultSpec(drop_rate=0.05, spike_rate=0.05),
        )
        workload = SoakWorkloadConfig(
            seed=99,
            sessions=8,
            mean_interarrival_seconds=1.0,
            modify_rate=0.3,
            abandon_rate=0.2,
            postures=("default", "strict"),
        )
        report = run_soak(
            dblp_tiny.make_context(),
            workload,
            replace(SOAK_CONFIG, max_sessions=6),
            fault_plan=plan,
            slo=SLO(
                p50_run_seconds=60.0,
                p95_run_seconds=120.0,
                p99_run_seconds=240.0,
            ),
            time_scale=0.01,
            lock_monitor=True,
        )
        assert report.passed, "SLO violations:\n" + "\n".join(report.violations)
        # The gate is only meaningful if the machinery actually fired.
        assert report.runs_completed >= 1
        assert report.sessions_checkpointed >= 1
        assert report.sessions_restored >= 1
        assert report.leaked_sessions == 0
        assert report.lock_inversions == 0
        assert report.restore_mismatches == 0
        assert report.unexpected_errors == []
        assert report.drain_summary.get("busy") == []

    def test_soak_without_chaos_or_monitor(self, dblp_tiny):
        """The harness itself must not depend on faults or lockdep."""
        report = run_soak(
            dblp_tiny.make_context(),
            SoakWorkloadConfig(seed=5, sessions=4, abandon_rate=0.0),
            replace(SOAK_CONFIG, max_sessions=4),
            time_scale=0.01,
            lock_monitor=False,
            verify_restore=False,
        )
        assert report.passed, "\n".join(report.violations)
        assert report.sessions_started == 4
        assert report.lock_inversions == 0
