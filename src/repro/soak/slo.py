"""The soak pass bar and its machine-readable verdict."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SLO", "SoakReport", "percentile"]


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank on a sorted copy."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class SLO:
    """What the service must guarantee under sustained chaos.

    Latency bounds apply to the wire ``run`` verb (the user-facing SRT
    path).  The structural bounds are absolute: a single leaked session,
    lock-order inversion, unresolved shed, or restore mismatch is an
    outage-class bug regardless of how good the latencies look.
    """

    p50_run_seconds: float = 2.0
    p95_run_seconds: float = 10.0
    p99_run_seconds: float = 20.0
    #: Sessions still open after drain (excluding deliberately-busy ones).
    max_leaked_sessions: int = 0
    #: Lock-order inversions observed by the lockorder monitor.
    max_lock_inversions: int = 0
    #: Shed requests that neither succeeded on retry nor surfaced as a
    #: typed retryable error.
    max_unresolved_sheds: int = 0
    #: Restored sessions whose matches differ from the original run.
    max_restore_mismatches: int = 0
    #: Peak traced allocation growth over the soak (MiB).
    max_memory_growth_mib: float = 256.0
    #: The soak must actually exercise the engine to mean anything.
    min_completed_runs: int = 1

    def check(self, report: "SoakReport") -> list[str]:
        """Every SLO clause ``report`` violates (empty = pass)."""
        violations: list[str] = []
        lat = report.run_latency
        for name, bound in (
            ("p50", self.p50_run_seconds),
            ("p95", self.p95_run_seconds),
            ("p99", self.p99_run_seconds),
        ):
            value = lat.get(name, 0.0)
            if value > bound:
                violations.append(
                    f"run latency {name}={value:.3f}s exceeds {bound:.3f}s"
                )
        if report.leaked_sessions > self.max_leaked_sessions:
            violations.append(
                f"{report.leaked_sessions} session(s) leaked past drain "
                f"(allowed {self.max_leaked_sessions})"
            )
        if report.lock_inversions > self.max_lock_inversions:
            violations.append(
                f"{report.lock_inversions} lock-order inversion(s) "
                f"(allowed {self.max_lock_inversions})"
            )
        if report.unresolved_sheds > self.max_unresolved_sheds:
            violations.append(
                f"{report.unresolved_sheds} shed request(s) neither "
                "retried to success nor surfaced typed"
            )
        if report.restore_mismatches > self.max_restore_mismatches:
            violations.append(
                f"{report.restore_mismatches} restored session(s) "
                "diverged from their original matches"
            )
        if report.memory_growth_mib > self.max_memory_growth_mib:
            violations.append(
                f"memory grew {report.memory_growth_mib:.1f} MiB "
                f"(allowed {self.max_memory_growth_mib:.1f})"
            )
        if report.runs_completed < self.min_completed_runs:
            violations.append(
                f"only {report.runs_completed} run(s) completed "
                f"(need >= {self.min_completed_runs})"
            )
        if report.unexpected_errors:
            violations.append(
                f"{len(report.unexpected_errors)} untyped client "
                f"failure(s): {report.unexpected_errors[:3]}"
            )
        return violations

    def to_dict(self) -> dict[str, object]:
        return {
            "p50_run_seconds": self.p50_run_seconds,
            "p95_run_seconds": self.p95_run_seconds,
            "p99_run_seconds": self.p99_run_seconds,
            "max_leaked_sessions": self.max_leaked_sessions,
            "max_lock_inversions": self.max_lock_inversions,
            "max_unresolved_sheds": self.max_unresolved_sheds,
            "max_restore_mismatches": self.max_restore_mismatches,
            "max_memory_growth_mib": self.max_memory_growth_mib,
            "min_completed_runs": self.min_completed_runs,
        }


@dataclass
class SoakReport:
    """Everything one soak produced (``BENCH_soak.json`` payload)."""

    # -- traffic outcome -------------------------------------------------
    sessions_scheduled: int = 0
    sessions_started: int = 0
    sessions_abandoned: int = 0
    runs_completed: int = 0
    #: Wire ``run`` latencies: p50/p95/p99/max/count (wall seconds).
    run_latency: dict[str, float] = field(default_factory=dict)
    #: Typed failures seen client-side, keyed by stable v2 error code.
    typed_errors: dict[str, int] = field(default_factory=dict)
    #: Failures that were NOT typed ReproErrors — each one an SLO breach.
    unexpected_errors: list[str] = field(default_factory=list)

    # -- backpressure / lifecycle ----------------------------------------
    requests_shed: int = 0
    #: Sheds whose request never succeeded and never surfaced typed.
    unresolved_sheds: int = 0
    sessions_evicted: int = 0
    sessions_checkpointed: int = 0
    sessions_restored: int = 0
    restore_mismatches: int = 0
    drain_summary: dict[str, object] = field(default_factory=dict)
    leaked_sessions: int = 0

    # -- resource health -------------------------------------------------
    memory_growth_mib: float = 0.0
    lock_inversions: int = 0
    wall_seconds: float = 0.0

    # -- verdict ---------------------------------------------------------
    slo: dict[str, object] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    passed: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "sessions_scheduled": self.sessions_scheduled,
            "sessions_started": self.sessions_started,
            "sessions_abandoned": self.sessions_abandoned,
            "runs_completed": self.runs_completed,
            "run_latency": dict(self.run_latency),
            "typed_errors": dict(self.typed_errors),
            "unexpected_errors": list(self.unexpected_errors),
            "requests_shed": self.requests_shed,
            "unresolved_sheds": self.unresolved_sheds,
            "sessions_evicted": self.sessions_evicted,
            "sessions_checkpointed": self.sessions_checkpointed,
            "sessions_restored": self.sessions_restored,
            "restore_mismatches": self.restore_mismatches,
            "drain_summary": dict(self.drain_summary),
            "leaked_sessions": self.leaked_sessions,
            "memory_growth_mib": self.memory_growth_mib,
            "lock_inversions": self.lock_inversions,
            "wall_seconds": self.wall_seconds,
            "slo": dict(self.slo),
            "violations": list(self.violations),
            "passed": self.passed,
        }
