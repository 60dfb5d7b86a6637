"""``python -m pytest perf/tests -q`` - not collected by the tier-1 suite.

Smoke-runs every workload through ``run.py`` the way the driver calls it and
holds the output against ``BENCHMARK.json``; unit-tests the per-script
percentile estimator and the self-time arithmetic.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF))

import run  # noqa: E402
import spans  # noqa: E402
from yardstick import GAIN, Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_declared_metric(workload: str, trace: int) -> None:
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--smoke", "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]  # a bound is a share of it
    if trace:
        coverage = result["metrics"]["trace.coverage_pct"]["value"]
        assert abs(coverage - 100.0) <= 5.0


def test_benchmark_json_names_the_workloads_of_the_workload_file() -> None:
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert SPEC["paths"] == ["perf"]


def session(script: str, ms: list[float], slowdown: float = 1.0, error: str | None = None) -> dict:
    return {"script": script, "ms": ms, "slowdown": slowdown, "error": error}


def test_a_script_costs_the_median_over_its_rounds_and_percentiles_go_over_scripts() -> None:
    # create, two actions, run, matches, results, close
    sessions = [
        session("fast", [1.0, 2.0, 2.0, 5.0, 3.0, 4.0, 1.0]),
        session("fast", [1.0, 9.0, 2.0, 6.0, 3.0, 4.0, 1.0]),  # a burst hit one action
        session("fast", [1.0, 2.0, 7.0, 50.0, 3.0, 4.0, 1.0]),  # ... and here two others
        session("mid", [1.0, 10.0, 10.0, 40.0, 30.0, 8.0, 1.0]),
        # The box ran this round at half speed: every time counts half.
        session("slow", [2.0, 100.0, 100.0, 800.0, 180.0, 40.0, 2.0], slowdown=2.0),
        session("slow", [1.0, 50.0, 50.0, 300.0, 95.0, 20.0, 1.0]),
        session("slow", [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], error="refused"),  # not a sample
    ]
    scripts = run.per_script(sessions)
    # Per part the median round: no pooled sample, and no session nobody saw.
    assert scripts["fast"] == {"formulation": 9.0, "srt": 6.0, "fetch": 3.0, "page": 4.0, "session": 26.0}
    assert scripts["slow"]["srt"] == 350.0 and scripts["slow"]["fetch"] == 92.5
    assert run.p50(scripts, "srt") == 40.0
    assert run.p90(scripts, "srt") == 350.0
    assert run.nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0
    assert run.nearest_rank(list(range(1, 11)), 0.9) == 9


def test_update_latency_is_the_median_over_edges_of_each_edges_median() -> None:
    def update(kind: str, edge: list[int], ms: float, error: str | None = None) -> dict:
        return {"kind": kind, "edge": edge, "ms": ms, "slowdown": 1.0, "error": error}

    updates = [
        update("insert", [1, 2], 5.0),
        update("insert", [1, 2], 4.0),
        update("insert", [1, 2], 40.0),
        update("insert", [3, 4], 9.0),
        update("insert", [5, 6], 20.0),
        update("delete", [1, 2], 150.0),
        update("delete", [3, 4], 0.0, error="shed"),
    ]
    assert run.update_p50(updates, "insert") == 9.0
    assert run.update_p50(updates, "delete") == 150.0
    assert run.update_p50([], "insert") == 0.0


def test_every_round_gets_its_own_order_and_edges_alternate() -> None:
    scripts = [{"name": f"s{i}", "edge": None} for i in range(6)]
    orders = [[s["name"] for s in run.round_order(scripts, random.Random(f"7/{r}"))] for r in range(3)]
    assert all(sorted(o) == sorted(s["name"] for s in scripts) for o in orders)
    assert len({tuple(o) for o in orders}) == 3
    assert orders[0] == [s["name"] for s in run.round_order(scripts, random.Random("7/0"))]
    mixed = scripts[:3] + [{"name": f"e{i}", "edge": [i, i + 1]} for i in range(3)]
    order = run.round_order(mixed, random.Random(1))
    assert [bool(s["edge"]) for s in order] == [True, False] * 3


def test_slowdown_scales_the_probes_mean_cost_in_the_interval_over_its_quiet_cost() -> None:
    starts = [i * 0.01 for i in range(100)]
    costs = [0.001] * 50 + [0.0015] * 50  # the second half second ran a neighbour
    speed = Speed(starts, costs)
    assert speed.quiet == pytest.approx(0.001)
    assert speed.slowdown((0.0, 0.495)) == pytest.approx(1.0)
    assert speed.slowdown((0.5, 1.0)) == pytest.approx(1.0 + GAIN * 0.5)
    assert speed.slowdown((0.0, 0.245), (0.75, 1.0)) == pytest.approx(1.0 + GAIN * 0.25)
    assert speed.slowdown((0.0, 0.05)) == 1.0  # too few samples to tell
    assert Speed([], []).slowdown((0.0, 1.0)) == 1.0


def span(id: str, parent: str | None, start: float, end: float, layer: str = "x") -> dict:
    return {"id": id, "parent": parent, "layer": layer, "name": id, "start": start, "end": end, "thread": 1}


def test_self_time_counts_overlapping_children_once() -> None:
    tree = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 3.0, 6.0),  # overlaps a for one second
        span("c", "root", 9.0, 12.0),  # runs past the parent: clipped at 10
        span("a1", "a", 1.5, 2.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(3.0)


def test_stitch_hangs_the_server_side_under_the_round_trip_that_caused_it() -> None:
    client = [
        {**span("c1", None, 0.0, 5.0, "client"), "op": "run", "session": "s7", "req_id": 3},
        {**span("c2", None, 0.0, 6.0, "client"), "op": "run", "session": "s8", "req_id": 3},
    ]
    server = [
        {**span("s1", None, 1.0, 4.0, "server"), "op": "run", "session": "s8", "req_id": 3, "thread": 9},
        {**span("s2", "s1", 2.0, 3.0, "enumerate"), "thread": 9},
        {**span("s3", None, 4.1, 4.2, "protocol"), "name": "protocol.encode_line", "thread": 9},
    ]
    forest = spans.stitch(client, server)
    parents = {s["id"]: s["parent"] for s in forest}
    assert parents == {"c1": None, "c2": None, "s1": "c2", "s2": "s1", "s3": "c2"}
    summary = spans.summarize(forest)
    assert summary["round_trip_s"] == pytest.approx(11.0)
    assert summary["by_op"]["run"]["enumerate"] == pytest.approx(1.0)
    assert sum(v["self_s"] for v in summary["layers"].values()) == pytest.approx(11.0)
