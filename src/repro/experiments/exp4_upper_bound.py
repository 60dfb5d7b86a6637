"""Exp 4 — Figures 10/11/13: effect of varying the upper bound, and the
§5.2 Remark's index footprint.

Paper setup (Sec. 7.2 + Appendix D): templates Q2, Q5, Q6 on DBLP and
Flickr; the *varied* edges sweep ``upper ∈ {1, 3, 5, 10}`` while a few
companion edges are pinned:

* DBLP — Q2: vary e1, e2.  Q5: pin e3=1, e4=2; vary e2 (mirroring Flickr).
  Q6: pin e5=e6=2; vary e1, e2.
* Flickr — Q2: vary e1, e2.  Q5: pin e3=1, e4=2; vary e2.
  Q6: pin e4=2, e5=2, e6=1; vary e1, e3.

Metrics per (dataset, query, upper): CAP construction time (Fig. 10), SRT
(Fig. 11, including BU for the "orders of magnitude" comparison), and
peak CAP size (Fig. 13).

Expected shapes: cost and size grow with the bound but flatten (companion
strict bounds keep pruning); DR/DI below IC at high bounds on DBLP; all
orders of magnitude below BU.

The footprint table sets the paper's §5.2 Remark against the same sweep:
a static SPath-style k-neighbourhood index (every vertex's labels within
``k`` hops) against the peak CAP of a DI session on dblp/Q2 at upper bound
``k``.  The Remark's shape: the static index is far larger, and it grows
with ``k``.
"""

from __future__ import annotations

from repro.datasets.registry import get_dataset
from repro.experiments.harness import (
    Experiment,
    ExperimentTable,
    average_sessions,
    register_experiment,
    run_bu,
    scale_settings,
)
from repro.indexing.kneighborhood import KNeighborhoodIndex
from repro.workload.generator import QueryInstance, instantiate

__all__ = ["Exp4UpperBound", "exp4_plan", "UPPER_SWEEP"]

UPPER_SWEEP = (1, 3, 5, 10)
FOOTPRINT_KS = (1, 2, 3)

#: (dataset, template) -> (pinned {edge: upper}, varied edge indices)
_PLAN: dict[tuple[str, str], tuple[dict[int, int], tuple[int, ...]]] = {
    ("dblp", "Q2"): ({}, (1, 2)),
    ("dblp", "Q5"): ({3: 1, 4: 2}, (2,)),
    ("dblp", "Q6"): ({5: 2, 6: 2}, (1, 2)),
    ("flickr", "Q2"): ({}, (1, 2)),
    ("flickr", "Q5"): ({3: 1, 4: 2}, (2,)),
    ("flickr", "Q6"): ({4: 2, 5: 2, 6: 1}, (1, 3)),
}


def exp4_plan(dataset: str, template_name: str) -> tuple[dict[int, int], tuple[int, ...]]:
    """Pinned bounds and varied edges for one (dataset, template)."""
    return _PLAN[(dataset, template_name.upper())]


def exp4_instance(
    dataset: str, template_name: str, graph, upper: int, seed: int = 23
) -> QueryInstance:
    """Template instance with Exp-4 pins and the sweep value applied."""
    pinned, varied = exp4_plan(dataset, template_name)
    instance = instantiate(template_name, graph, seed=seed, dataset=dataset)
    overrides = dict(pinned)
    overrides.update({i: upper for i in varied})
    return instance.with_upper(overrides, tag=f"u{upper}")


@register_experiment
class Exp4UpperBound(Experiment):
    """Upper-bound sweep (Figures 10, 11, 13)."""

    id = "exp4"
    title = "Effect of varying the upper bound"
    artifacts = ("Figure 10", "Figure 11", "Figure 13", "§5.2 footprint")
    datasets = ("dblp", "flickr")
    templates = ("Q2", "Q5", "Q6")

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        settings = scale_settings(scale)
        sweep = UPPER_SWEEP if scale == "small" else (1, 3, 5)
        cap_time_rows: list[list[object]] = []
        srt_rows: list[list[object]] = []
        size_rows: list[list[object]] = []
        for dataset in self.datasets:
            bundle = get_dataset(dataset, scale)
            for name in self.templates:
                for upper in sweep:
                    instance = exp4_instance(dataset, name, bundle.graph, upper)
                    per_strategy = {
                        s: average_sessions(bundle, instance, s, settings)
                        for s in ("IC", "DR", "DI")
                    }
                    bu = run_bu(bundle, instance, settings)
                    bu_cell = "DNF" if bu.timed_out else round(bu.srt_seconds * 1e3, 2)
                    cap_time_rows.append(
                        [
                            dataset,
                            name,
                            upper,
                            round(per_strategy["IC"]["cap_time"] * 1e3, 3),
                            round(per_strategy["DR"]["cap_time"] * 1e3, 3),
                            round(per_strategy["DI"]["cap_time"] * 1e3, 3),
                        ]
                    )
                    srt_rows.append(
                        [
                            dataset,
                            name,
                            upper,
                            bu_cell,
                            round(per_strategy["IC"]["srt"] * 1e3, 3),
                            round(per_strategy["DR"]["srt"] * 1e3, 3),
                            round(per_strategy["DI"]["srt"] * 1e3, 3),
                        ]
                    )
                    size_rows.append(
                        [
                            dataset,
                            name,
                            upper,
                            int(per_strategy["IC"]["cap_peak_size"]),
                            int(per_strategy["DR"]["cap_peak_size"]),
                            int(per_strategy["DI"]["cap_peak_size"]),
                            bundle.graph.num_vertices,
                        ]
                    )
        return [
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 10",
                title="CAP construction time vs upper bound",
                headers=["dataset", "query", "upper", "IC (ms)", "DR (ms)", "DI (ms)"],
                rows=cap_time_rows,
                notes=["paper shape: grows with the bound, then flattens"],
            ),
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 11",
                title="SRT vs upper bound",
                headers=["dataset", "query", "upper", "BU (ms)", "IC (ms)", "DR (ms)", "DI (ms)"],
                rows=srt_rows,
                notes=[
                    "paper shape: DR/DI <= IC at high bounds on DBLP; all "
                    "orders of magnitude below BU",
                    f"sweep={list(sweep)} (paper: {list(UPPER_SWEEP)})",
                ],
            ),
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 13",
                title="Peak CAP size vs upper bound",
                headers=["dataset", "query", "upper", "IC", "DR", "DI", "|V|"],
                rows=size_rows,
                notes=["paper shape: grows with bound, modest in absolute terms"],
            ),
            self._footprint(scale, settings),
        ]

    def _footprint(self, scale: str, settings) -> ExperimentTable:
        bundle = get_dataset("dblp", scale)
        rows: list[list[object]] = []
        for k in FOOTPRINT_KS:
            static = KNeighborhoodIndex(bundle.graph, k=k).total_entries()
            instance = exp4_instance("dblp", "Q2", bundle.graph, upper=k)
            peak = int(average_sessions(bundle, instance, "DI", settings)["cap_peak_size"])
            rows.append([k, static, peak, round(static / max(peak, 1), 1)])
        return ExperimentTable(
            experiment=self.id,
            artifact="§5.2 footprint",
            title="Static k-neighbourhood index vs peak CAP (dblp, Q2 at upper k, DI)",
            headers=["k", "static entries", "CAP peak", "ratio"],
            rows=rows,
            notes=["paper shape: the static index is far larger and grows with k"],
        )
