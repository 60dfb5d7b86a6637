"""Exp 5 — Figure 14: cost of the just-in-time lower-bound check.

Paper setup (Appendix D): templates Q2, Q5, Q6 on WordNet and Flickr; lower
bounds varied in {1, 2, 3}; for each setting, 10 random partial-matched
vertex sets ``V_P ∈ V_Δ`` are validated (DetectPath per query edge) and the
average per-result check time is reported — one row at a time, as the paper
measures it, and beside it the per-result cost of validating consecutive
pages of ``V_Δ`` as a block each, which is what the Results Panel pays.

To make lower > 1 satisfiable, every edge's upper bound is raised to at
least ``lower + 1`` (the paper's instances guarantee the same by
construction).  Expected shape: per-result check time far below the 5 s
interactivity budget the paper cites, roughly flat in the lower bound on
the WordNet analog.
"""

from __future__ import annotations

from repro.core.blender import Boomer
from repro.core.enumerate import PartialMatches
from repro.core.lowerbound import filter_by_lower_bound
from repro.core.query import Bounds
from repro.datasets.registry import get_dataset
from repro.experiments.harness import (
    Experiment,
    ExperimentTable,
    register_experiment,
    scale_settings,
    session_for,
)
from repro.utils.rng import seeded_rng
from repro.obs.clock import now
from repro.workload.generator import QueryInstance, instantiate

__all__ = ["Exp5LowerBound", "exp5_instance", "LOWER_SWEEP"]

LOWER_SWEEP = (1, 2, 3)


def exp5_instance(
    dataset: str, template_name: str, graph, lower: int, seed: int = 29
) -> QueryInstance:
    """Instance with every edge at ``[lower, max(upper, lower + 1)]``."""
    base = instantiate(template_name, graph, seed=seed, dataset=dataset)
    bounds = {
        i: Bounds(lower, max(b.upper, lower + 1))
        for i, b in enumerate(base.bounds, start=1)
    }
    return base.with_bounds(bounds, tag=f"l{lower}")


@register_experiment
class Exp5LowerBound(Experiment):
    """Lower-bound check cost (Figure 14)."""

    id = "exp5"
    title = "Cost of lower-bound checking at result visualization"
    artifacts = ("Figure 14",)
    datasets = ("wordnet", "flickr")
    templates = ("Q2", "Q5", "Q6")
    samples = 10  # random V_P per setting, as in the paper
    page_rows, pages = 10, 5  # consecutive Results-Panel pages from row 0

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        settings = scale_settings(scale)
        rows: list[list[object]] = []
        for dataset in self.datasets:
            bundle = get_dataset(dataset, scale)
            session = session_for(bundle)
            for name in self.templates:
                for lower in LOWER_SWEEP:
                    instance = exp5_instance(dataset, name, bundle.graph, lower)
                    result = session.run(
                        instance, strategy="DI", max_results=settings.max_results
                    )
                    order, block = result.run.matches.order, result.run.matches.block
                    picked = range(len(block))
                    if len(block) > self.samples:
                        picked = seeded_rng(7).sample(picked, self.samples)
                    avg_ms, passed = self._check_cost(
                        result.boomer, order, [block[i : i + 1] for i in picked]
                    )
                    stop = min(len(block), self.page_rows * self.pages)
                    paged_ms, _ = self._check_cost(
                        result.boomer, order,
                        [block[at : at + self.page_rows] for at in range(0, stop, self.page_rows)],
                    )
                    rows.append(
                        [dataset, name, lower, round(avg_ms, 3), len(picked), passed, round(paged_ms, 3)]
                    )
        return [
            ExperimentTable(
                experiment=self.id,
                artifact="Figure 14",
                title="Avg lower-bound check time per result (10 random V_P)",
                headers=[
                    "dataset", "query", "lower", "avg check (ms)", "V_P checked", "passed",
                    "paged check (ms/result)",
                ],
                rows=rows,
                notes=[
                    "paper shape: well under the 5s interactivity budget; "
                    "relatively flat on the WordNet analog",
                    f"paged = the first {self.pages} pages of {self.page_rows} rows of "
                    "V_delta, one block verify per page, per row",
                ],
            )
        ]

    def _check_cost(self, boomer: Boomer, order, blocks) -> tuple[float, int]:
        """Average filter_by_lower_bound time per row (ms) over ``blocks`` of
        V_delta rows, each verified in one call, and how many rows passed."""
        rows, passed = sum(len(block) for block in blocks), 0
        start = now()
        for block in blocks:
            verdicts = filter_by_lower_bound(
                PartialMatches(order, block), boomer.query, boomer.engine.ctx
            )
            passed += sum(verdict is not None for verdict in verdicts)
        return ((now() - start) / rows * 1e3 if rows else 0.0), passed
