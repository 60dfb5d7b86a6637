"""CLI for the experiment harness.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run exp1 exp2 --scale tiny
    python -m repro.experiments all --scale small --out EXPERIMENTS.md

``run`` and ``all`` print every table and the claim verdicts, and exit 1
when a claim expected at the run's scale FAILs (see
:mod:`repro.experiments.claims`); claims whose tables the run did not
produce are not evaluated.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    EXPERIMENT_REGISTRY,
    get_experiment,
    write_report,
)
from repro.experiments.claims import evaluate_claims, render_claims
from repro.experiments.harness import ExperimentTable


def _run_ids(exp_ids: list[str], scale: str) -> list[ExperimentTable]:
    tables: list[ExperimentTable] = []
    for exp_id in exp_ids:
        experiment = get_experiment(exp_id)
        print(f"== {exp_id}: {experiment.title} (scale={scale})", file=sys.stderr)
        for table in experiment.run(scale=scale):
            print(table.render())
            print()
            tables.append(table)
    return tables


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("ids", nargs="+", choices=sorted(EXPERIMENT_REGISTRY))
    run.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    run.add_argument("--out", default=None, help="also write a markdown report")

    everything = sub.add_parser("all", help="run every experiment")
    everything.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    everything.add_argument("--out", default=None, help="write EXPERIMENTS.md here")

    args = parser.parse_args(argv)

    if args.command == "list":
        for exp_id in sorted(EXPERIMENT_REGISTRY):
            experiment = EXPERIMENT_REGISTRY[exp_id]
            artifacts = ", ".join(experiment.artifacts)
            print(f"{exp_id}: {experiment.title} [{artifacts}]")
        return 0

    ids = sorted(EXPERIMENT_REGISTRY) if args.command == "all" else args.ids
    tables = _run_ids(ids, args.scale)
    verdicts = evaluate_claims({t.artifact: t for t in tables})
    print(render_claims(verdicts, args.scale))
    if args.out:
        path = write_report(tables, args.scale, args.out)
        print(f"report written to {path}", file=sys.stderr)
    failing = [v.claim_id for v in verdicts if v.passed is False and v.expected_at(args.scale)]
    if failing:
        print(f"claims expected at {args.scale} that FAIL: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
