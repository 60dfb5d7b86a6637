"""Chaos soak of the live service — emits ``BENCH_soak.json``.

Runs :func:`repro.soak.run_soak` against a registry dataset with
deliberately tight budgets (so backpressure, eviction, checkpointing and
restore all fire), a Run deadline, abandoning users (client-thread
death), and the lockorder monitor watching every lock the service takes.

The assertion is the SLO itself: run latency percentiles, zero leaked
sessions, zero lock-order inversions, zero unresolved sheds, zero
restore mismatches (drained-and-restored sessions must reproduce their
original matches byte-for-byte), bounded traced-memory growth, and no
untyped client-visible failures.  Unlike the figure benchmarks there is
no paper artifact to match — the artifact *is* the robustness verdict.

Scale knobs:

* ``REPRO_BENCH_SCALE=tiny`` (smoke, ~30 s): fewer sessions on the tiny
  dataset — the regular test workflow's smoke-soak.
* default ``small`` (nightly, minutes): more sessions, small dataset,
  longer exposure.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.conftest import SCALE
from repro.datasets.registry import get_dataset
from repro.soak import SLO, SOAK_CONFIG, run_soak
from repro.workload import SoakWorkloadConfig

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_soak.json"

#: Per-scale traffic shape: (sessions, max_sessions, mean interarrival).
_SHAPES = {
    "tiny": (12, 8, 1.0),
    "small": (40, 12, 1.0),
}


def test_soak_meets_slo():
    sessions, max_sessions, interarrival = _SHAPES.get(SCALE, _SHAPES["small"])
    bundle = get_dataset("dblp", SCALE if SCALE in _SHAPES else "small")
    workload = SoakWorkloadConfig(
        seed=2024,
        sessions=sessions,
        mean_interarrival_seconds=interarrival,
        modify_rate=0.3,
        abandon_rate=0.15,
    )
    slo = SLO(
        # Generous wall-clock bounds: CI machines vary wildly, and the
        # structural clauses (leaks, inversions, mismatches, untyped
        # failures) are the real regression net.
        p50_run_seconds=30.0,
        p95_run_seconds=120.0,
        p99_run_seconds=240.0,
    )
    report = run_soak(
        bundle.make_context(),
        workload,
        replace(SOAK_CONFIG, max_sessions=max_sessions),
        slo=slo,
        time_scale=0.02,
        lock_monitor=True,
    )

    payload = report.to_dict()
    payload["scale"] = SCALE
    payload["dataset"] = bundle.name
    OUTPUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(
        f"soak[{SCALE}]: {report.runs_completed} runs "
        f"(p95 {report.run_latency.get('p95', 0.0):.3f}s), "
        f"{report.requests_shed} shed, {report.sessions_evicted} evicted, "
        f"{report.sessions_restored} restored, "
        f"{report.memory_growth_mib:.1f} MiB growth, "
        f"{report.wall_seconds:.1f}s wall"
    )

    # The soak must have actually exercised eviction and restore — a
    # pass with nothing fired would be vacuous.
    assert report.runs_completed >= 1
    assert report.sessions_checkpointed >= 1
    assert report.sessions_restored >= 1

    assert report.passed, "SLO violations:\n" + "\n".join(report.violations)


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
