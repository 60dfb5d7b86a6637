"""Exp 7 — Figures 15/16/17: impact of the query formulation sequence (QFS).

Paper setup (Appendix D): Q1 under three edge orders and Q6 under four
(Table 2), on WordNet and Flickr, for IC/DR/DI.  Bounds use the Exp-3
per-dataset settings so that expensive edges exist where the paper had
them.  Metrics: CAP construction time (Fig. 15), SRT (Fig. 16), peak CAP
size (Fig. 17).

Expected shape: on the WordNet analog, IC degrades (~2x) when expensive
edges are drawn early (Q1 S1 — e1 carries the big bound and is first; Q6
S1/S2) while DR/DI are insensitive to the order; on the Flickr analog
nothing is expensive, so all strategies are flat across sequences.
"""

from __future__ import annotations

from repro.datasets.registry import get_dataset
from repro.experiments.exp3_strategies import exp3_instance
from repro.experiments.harness import (
    Experiment,
    ExperimentTable,
    average_sessions,
    register_experiment,
    scale_settings,
)
from repro.workload.qfs import QFS_SEQUENCES

__all__ = ["Exp7QFS"]


@register_experiment
class Exp7QFS(Experiment):
    """QFS sensitivity (Figures 15, 16, 17)."""

    id = "exp7"
    title = "Impact of query formulation sequence"
    artifacts = ("Figure 15", "Figure 16", "Figure 17")
    datasets = ("wordnet", "flickr")

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        settings = scale_settings(scale)
        templates = ("Q1", "Q6") if scale == "small" else ("Q1",)
        cap_time_rows: list[list[object]] = []
        srt_rows: list[list[object]] = []
        size_rows: list[list[object]] = []
        for dataset in self.datasets:
            bundle = get_dataset(dataset, scale)
            for name in templates:
                instance = exp3_instance(dataset, name, bundle.graph)
                for sequence, order in QFS_SEQUENCES[name].items():
                    per_strategy = {
                        s: average_sessions(
                            bundle, instance, s, settings, edge_order=order
                        )
                        for s in ("IC", "DR", "DI")
                    }
                    tag = [dataset, f"{name}{sequence}"]
                    cap_time_rows.append(
                        tag
                        + [
                            round(per_strategy[s]["cap_time"] * 1e3, 3)
                            for s in ("IC", "DR", "DI")
                        ]
                    )
                    srt_rows.append(
                        tag
                        + [
                            round(per_strategy[s]["srt"] * 1e3, 3)
                            for s in ("IC", "DR", "DI")
                        ]
                        + [int(per_strategy["DI"]["matches"]), per_strategy["DI"]["answer"]]
                    )
                    size_rows.append(
                        tag
                        + [
                            int(per_strategy[s]["cap_peak_size"])
                            for s in ("IC", "DR", "DI")
                        ]
                    )
        headers = ["dataset", "query+QFS", "IC", "DR", "DI"]
        return [
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 15",
                title="CAP construction time per QFS (ms)",
                headers=headers,
                rows=cap_time_rows,
                notes=["paper shape: IC varies ~2x across QFS on wordnet; DR/DI flat"],
            ),
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 16",
                title="SRT per QFS (ms)",
                headers=headers + ["|V_delta|", "answer sha256"],
                rows=srt_rows,
                notes=["paper shape: IC worst when expensive edges drawn early"],
            ),
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 17",
                title="Peak CAP size per QFS",
                headers=headers,
                rows=size_rows,
                notes=["paper shape: IC peak inflated when expensive edges early"],
            ),
        ]
