"""Batched distance kernels vs the per-pair scalar loop — ``BENCH_batch.json``.

The ISSUE-4 acceptance criteria, pinned at bench scale:

1. **Fewer interpreter-level oracle invocations.**  A batched Run must
   issue at least ``CALL_REDUCTION_FACTOR`` (3x) fewer *Python-level*
   oracle calls (``oracle_calls``) than the scalar arm, for the *same*
   logical ``distance_queries`` total — the kernels change transport, not
   work.  An upper->=3 edge is one ``within_many`` block, so one call
   (not one per source): the batched arm is expected to make a handful
   of calls per Run where the scalar arm makes one per candidate pair.
2. **Not slower.**  Interleaved A/B (order alternated per repeat, per-arm
   minimum over ``REPEATS``): the batched arm's wall-clock must not exceed
   the scalar arm's by more than a small noise allowance.  The CI
   ``batch-kernels`` job enforces this.
3. **Bit-identical answers.**  Same matches, same counts, both arms —
   asserted unconditionally at every scale.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from benchmarks.conftest import ASSERT_SHAPES, SCALE
from repro.datasets.registry import get_dataset
from repro.experiments.exp3_strategies import exp3_instance
from repro.experiments.harness import session_for

REPEATS = 5
#: Minimum factor by which batching must cut Python-level oracle calls.
CALL_REDUCTION_FACTOR = 3.0
#: The batched arm may be at most this much slower (machine noise).
SLOWDOWN_ALLOWANCE = 1.10

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


@pytest.fixture(scope="module")
def bundle():
    return get_dataset("wordnet", SCALE)


@pytest.fixture(scope="module")
def instance(bundle):
    return exp3_instance("wordnet", "Q1", bundle.graph)


def _run_once(bundle, instance, batch_enabled):
    session = session_for(bundle)
    session.ctx = replace(session.ctx, batch_enabled=batch_enabled)
    start = time.perf_counter()
    result = session.run(instance, strategy="DI")
    return time.perf_counter() - start, result


def match_set(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


def test_batched_kernels_cut_oracle_calls(bundle, instance, benchmark):
    batch_times, scalar_times = [], []
    batch_result = scalar_result = None
    for repeat in range(REPEATS):
        arms = [(True, batch_times), (False, scalar_times)]
        if repeat % 2:  # alternate order: cancels warm-cache / drift bias
            arms.reverse()
        for batch_enabled, sink in arms:
            elapsed, result = _run_once(bundle, instance, batch_enabled)
            sink.append(elapsed)
            if batch_enabled:
                batch_result = result
            else:
                scalar_result = result

    batch_counters = batch_result.run.counters
    scalar_counters = scalar_result.run.counters
    batch_calls = batch_counters["oracle_calls"]
    scalar_calls = scalar_counters["oracle_calls"]
    reduction = scalar_calls / batch_calls if batch_calls else float("inf")

    batch_min = min(batch_times)
    scalar_min = min(scalar_times)
    speedup = scalar_min / batch_min if batch_min else float("inf")

    print(
        f"\nbatch kernels ({SCALE}, min of {REPEATS}): "
        f"scalar {scalar_min * 1e3:.2f} ms / {scalar_calls} oracle calls, "
        f"batched {batch_min * 1e3:.2f} ms / {batch_calls} oracle calls "
        f"({reduction:.1f}x fewer calls, {speedup:.2f}x wall-clock)"
    )

    # Bit-identical answers and identical logical work — at every scale.
    assert match_set(batch_result.run.matches) == match_set(
        scalar_result.run.matches
    )
    assert (
        batch_counters["distance_queries"] == scalar_counters["distance_queries"]
    )
    assert batch_counters["pairs_added"] == scalar_counters["pairs_added"]
    assert batch_calls < scalar_calls

    if ASSERT_SHAPES:
        assert reduction >= CALL_REDUCTION_FACTOR, (
            f"batched arm made {batch_calls} Python-level oracle calls vs "
            f"{scalar_calls} scalar ({reduction:.1f}x); need "
            f">= {CALL_REDUCTION_FACTOR:.0f}x reduction"
        )
        assert batch_min <= scalar_min * SLOWDOWN_ALLOWANCE, (
            f"batched arm {batch_min * 1e3:.2f} ms is slower than scalar "
            f"{scalar_min * 1e3:.2f} ms beyond the "
            f"{SLOWDOWN_ALLOWANCE:.0%} allowance"
        )

    OUTPUT.write_text(
        json.dumps(
            {
                "artifact": "BENCH_batch",
                "scale": SCALE,
                "dataset": bundle.name,
                "repeats": REPEATS,
                "scalar_min_seconds": scalar_min,
                "batch_min_seconds": batch_min,
                "wall_clock_speedup": speedup,
                "scalar_oracle_calls": scalar_calls,
                "batch_oracle_calls": batch_calls,
                "call_reduction_factor": reduction,
                "distance_queries": batch_counters["distance_queries"],
                "matches": len(match_set(batch_result.run.matches)),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {OUTPUT.name}")

    benchmark.pedantic(
        lambda: _run_once(bundle, instance, True),
        rounds=3,
        iterations=1,
    )
