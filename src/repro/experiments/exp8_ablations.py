"""Exp 8 (reproduction extra) — ablations of DESIGN.md's design choices.

Not a paper figure: these benches quantify the individual design decisions
the paper motivates qualitatively.

A. **Scan choice** (Lemma 5.3/5.4): cost-model choice vs forced in-scan vs
   forced out-scan, on CAP construction time.  All three arms run through
   the block kernel (``indexing.twohop.hop_pairs``), where an in-scan is
   one shared pass from the other level, so they land within noise of
   each other; the counters still say how each source was scanned.
B. **Enumeration reorder** (Algorithm 11): matching order sorted by |V_q|
   vs user drawing order, on enumeration time.
C. **Distance oracle** (footnote 5): PML vs memoized plain BFS, on CAP
   construction time of a large-upper query.
D. **Post-formulation evaluators** (Sec. 8): BU (nested loop) vs distance
   join (materialize + multi-way join) vs blended DI, on SRT — the same
   answers three ways.
"""

from __future__ import annotations

from repro.core.blender import Boomer
from repro.core.enumerate import partial_vertex_sets
from repro.datasets.registry import get_dataset
from repro.experiments.exp3_strategies import exp3_instance
from repro.experiments.harness import (
    Experiment,
    ExperimentTable,
    register_experiment,
    scale_settings,
)
from repro.gui.session import VisualSession
from repro.indexing.oracle import BFSOracle
from repro.obs.clock import now
from repro.workload.generator import instantiate

__all__ = ["Exp8Ablations"]


@register_experiment
class Exp8Ablations(Experiment):
    """Design-choice ablations (reproduction extra)."""

    id = "exp8"
    title = "Ablations: scan choice, reorder, oracle, evaluator"
    artifacts = ("Ablation A", "Ablation B", "Ablation C", "Ablation D")

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        settings = scale_settings(scale)
        return [
            self._scan_choice(scale, settings),
            self._reorder(scale, settings),
            self._oracle(scale, settings),
            self._evaluators(scale, settings),
        ]

    # ------------------------------------------------------------------
    def _scan_choice(self, scale: str, settings) -> ExperimentTable:
        bundle = get_dataset("dblp", scale)
        rows: list[list[object]] = []
        for name in ("Q1", "Q2", "Q5"):
            instance = instantiate(name, bundle.graph, dataset="dblp")
            row: list[object] = [name]
            for mode in (None, "in", "out"):
                ctx = bundle.make_context()
                ctx.scan_override = mode
                session = VisualSession(ctx, bundle.latency, jitter=0.0)
                result = session.run(
                    instance, strategy="IC", max_results=settings.max_results
                )
                row.append(round(result.cap_construction_seconds * 1e3, 3))
            rows.append(row)
        return ExperimentTable(
            experiment=self.id,
            artifact="Ablation A",
            title="PVS scan choice: cost model vs forced in/out (CAP time, ms)",
            headers=["query", "cost-model", "forced in-scan", "forced out-scan"],
            rows=rows,
            notes=[
                "expected: the three arms within noise of each other — the cost "
                "model still picks per source, but a block in-scan is one shared "
                "pass from V_qj, no longer the catastrophic arm"
            ],
        )

    def _reorder(self, scale: str, settings) -> ExperimentTable:
        bundle = get_dataset("wordnet", scale)
        rows: list[list[object]] = []
        for name in ("Q1", "Q2"):
            instance = exp3_instance("wordnet", name, bundle.graph)
            session = VisualSession(bundle.make_context(), bundle.latency, jitter=0.0)
            result = session.run(
                instance, strategy="DI", max_results=settings.max_results
            )
            boomer: Boomer = result.boomer
            timings: list[float] = []
            counts: list[int] = []
            for reorder in (True, False):
                start = now()
                matches = partial_vertex_sets(
                    boomer.query,
                    boomer.cap,
                    matching_order=boomer.query.matching_order,
                    max_results=settings.max_results,
                    reorder=reorder,
                )
                timings.append(now() - start)
                counts.append(len(matches))
            rows.append(
                [
                    name,
                    round(timings[0] * 1e3, 3),
                    round(timings[1] * 1e3, 3),
                    counts[0],
                    counts[1],
                ]
            )
        return ExperimentTable(
            experiment=self.id,
            artifact="Ablation B",
            title="Enumeration matching-order reorder (time, ms)",
            headers=["query", "reordered", "drawing order", "matches (re)", "matches (draw)"],
            rows=rows,
            notes=["same match sets; reorder should not be slower"],
        )

    def _evaluators(self, scale: str, settings) -> ExperimentTable:
        """BU vs distance join vs blended DI on the same queries (SRT)."""
        from repro.baseline.bu import BoomerUnaware
        from repro.baseline.distance_join import DistanceJoin
        from repro.workload.generator import instantiate as plain_instantiate

        bundle = get_dataset("dblp", scale)
        rows: list[list[object]] = []
        for name in ("Q1", "Q3", "Q6"):
            instance = plain_instantiate(name, bundle.graph, seed=17, dataset="dblp")
            query = instance.build_query()
            bu = BoomerUnaware(
                bundle.make_context(),
                timeout_seconds=settings.bu_timeout_seconds,
                max_results=settings.max_results,
            ).evaluate(query)
            dj = DistanceJoin(
                bundle.make_context(),
                timeout_seconds=settings.bu_timeout_seconds,
                max_results=settings.max_results,
            ).evaluate(query.copy())
            session = VisualSession(bundle.make_context(), bundle.latency, jitter=0.0)
            blended = session.run(
                instance, strategy="DI", max_results=settings.max_results
            )
            rows.append(
                [
                    name,
                    "DNF" if bu.timed_out else round(bu.srt_seconds * 1e3, 3),
                    "DNF" if dj.timed_out else round(dj.srt_seconds * 1e3, 3),
                    round(blended.srt_seconds * 1e3, 3),
                    blended.num_matches,
                ]
            )
        return ExperimentTable(
            experiment=self.id,
            artifact="Ablation D",
            title="Post-formulation evaluators vs blended DI (SRT, ms, dblp)",
            headers=["query", "BU", "distance join", "blended DI", "matches"],
            rows=rows,
            notes=[
                "same V_delta three ways; the blended engine amortized its "
                "work into formulation latency, the others pay at Run"
            ],
        )

    def _oracle(self, scale: str, settings) -> ExperimentTable:
        bundle = get_dataset("dblp", scale)
        instance = exp3_instance("dblp", "Q2", bundle.graph)
        rows: list[list[object]] = []
        for label, oracle in (
            ("PML", None),
            ("BFS (memoized)", BFSOracle(bundle.graph)),
        ):
            ctx = bundle.make_context(oracle=oracle)
            session = VisualSession(ctx, bundle.latency, jitter=0.0)
            result = session.run(
                instance, strategy="DR", max_results=settings.max_results
            )
            rows.append(
                [
                    label,
                    round(result.cap_construction_seconds * 1e3, 3),
                    result.num_matches,
                ]
            )
        return ExperimentTable(
            experiment=self.id,
            artifact="Ablation C",
            title="Distance oracle: PML vs plain BFS (Q2/dblp, CAP time)",
            headers=["oracle", "CAP time (ms)", "matches"],
            rows=rows,
            notes=["identical matches required; PML expected faster per query"],
        )
