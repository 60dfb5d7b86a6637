"""Is the benchmark steadier than its own bounds?  Run it twice and compare.

    python perf/noise.py --sets 2 --runs 5

Each set runs every workload ``--runs`` times, run *i* with ``--seed i``.
Per workload and end-to-end metric this prints each set's median and
quartiles (``statistics.quantiles(values, n=4)``), the within-set spread
(Q3 - Q1 as a share of the median) and the gap between the sets' medians in
the direction that counts as worse, and exits non-zero where that gap, or a
spread, exceeds the bound ``BENCHMARK.json`` gives the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    done = subprocess.run(
        [
            sys.executable, str(PERF / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} --seed {seed} exited with {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} --seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    spec = json.loads((PERF.parent / "BENCHMARK.json").read_text())

    values: dict[tuple[str, str], list[list[float]]] = {}
    for s in range(args.sets):
        for seed in range(args.runs):
            for workload in (w["name"] for w in spec["workloads"]):
                print(f"set {s + 1} run {seed + 1}/{args.runs} {workload}", file=sys.stderr)
                for name, value in one_run(workload, seed, spec["run_seconds"]).items():
                    values.setdefault((workload, name), [[] for _ in range(args.sets)])[s].append(value)

    (PERF / "out" / "noise.json").write_text(
        json.dumps([{"workload": w, "metric": m, "sets": v} for (w, m), v in values.items()])
    )
    worst = 0
    print(f"{'workload':12s} {'metric':22s} " + "".join(
        f"{f'set {s + 1}: q1 / median / q3':>36s} {'spread':>7s}" for s in range(args.sets)
    ) + f" {'gap':>7s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in (w["name"] for w in spec["workloads"]):
            sets = values[(workload, metric["name"])]
            medians = [statistics.median(v) for v in sets]
            cells, flags = "", ""
            for v, median in zip(sets, medians):
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / median
                cells += f"{q1:12.4f}{median:12.4f}{q3:12.4f} {spread:7.1%}"
                if spread > metric["bound"]:
                    flags += " SPREAD"
            gap = max(sign * (m / medians[0] - 1.0) for m in medians[1:]) if len(medians) > 1 else 0.0
            if gap > metric["bound"]:
                flags += " GAP"
            worst |= bool(flags)
            print(f"{workload:12s} {metric['name']:22s} {cells} {gap:7.1%} {metric['bound']:6.0%}{flags}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
