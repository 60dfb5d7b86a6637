"""Exp 1 — Figure 5: 3-strategy vs 1-strategy PVS under Immediate construction.

Paper setup (Sec. 7.2): DBLP dataset, all template queries with their
default bounds, Immediate construction; the "3-Strategy" arm picks
neighbor/two-hop/large-upper search per edge bound, the "1-Strategy" arm
forces every edge through the PML all-pairs (large-upper) search.  Metric:
average SRT per query.

Expected shape: 3-strategy SRT significantly smaller for every query
(forcing all-pairs work for bound-1/2 edges floods the formulation timeline
and leaves a backlog at Run).
"""

from __future__ import annotations

from repro.datasets.registry import get_dataset
from repro.experiments.harness import (
    Experiment,
    ExperimentTable,
    average_sessions,
    register_experiment,
    scale_settings,
)
from repro.workload.generator import instantiate
from repro.workload.templates import template_names

__all__ = ["Exp1PVSStrategies"]


@register_experiment
class Exp1PVSStrategies(Experiment):
    """3-strategy vs 1-strategy PVS (Figure 5)."""

    id = "exp1"
    title = "3-Strategy vs 1-Strategy for IC (avg SRT, DBLP)"
    artifacts = ("Figure 5",)

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        settings = scale_settings(scale)
        bundle = get_dataset("dblp", scale)
        rows: list[list[object]] = []
        for name in template_names():
            instance = instantiate(name, bundle.graph, dataset="dblp")
            three = average_sessions(bundle, instance, "IC", settings)
            one = average_sessions(
                bundle, instance, "IC", settings, force_large_upper=True
            )
            speedup = one["srt"] / three["srt"] if three["srt"] > 0 else float("inf")
            rows.append(
                [
                    name,
                    round(three["srt"] * 1e3, 3),
                    round(one["srt"] * 1e3, 3),
                    round(speedup, 2),
                    int(three["distance_queries"]),
                    int(one["distance_queries"]),
                    int(three["matches"]),
                ]
            )
        table = ExperimentTable(
            experiment=self.id,
            artifact="Figure 5",
            title=self.title,
            headers=[
                "query", "3-strategy SRT (ms)", "1-strategy SRT (ms)", "speedup",
                "3-strategy dist. queries", "1-strategy dist. queries", "|V_delta|",
            ],
            rows=rows,
            notes=[
                "paper shape: 3-strategy < 1-strategy for every query",
                f"scale={scale}; SRT includes formulation backlog at Run",
            ],
        )
        return [table]
