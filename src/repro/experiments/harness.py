"""Shared experiment harness.

Every experiment module produces :class:`ExperimentTable` objects — the
rows/series the paper's corresponding figure or table plots — from the same
measured primitives: simulated visual sessions (:class:`VisualSession`) and
BU baseline runs.  The harness also fixes the scale-dependent knobs in one
place (BU timeout = the analog of the paper's 2-hour cap, enumeration cap).
"""

from __future__ import annotations

import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baseline.bu import BoomerUnaware, BUResult
from repro.datasets.registry import DatasetBundle
from repro.errors import ExperimentError
from repro.gui.session import SessionResult, VisualSession
from repro.utils.fmt import ascii_table
from repro.workload.generator import QueryInstance

__all__ = [
    "ExperimentTable",
    "Experiment",
    "ScaleSettings",
    "scale_settings",
    "session_for",
    "average_sessions",
    "run_bu",
    "EXPERIMENT_REGISTRY",
    "register_experiment",
    "get_experiment",
]


@dataclass(frozen=True)
class ScaleSettings:
    """Scale-dependent harness knobs."""

    scale: str
    bu_timeout_seconds: float  # analog of the paper's 2-hour SRT cap
    max_results: int  # enumeration cap (reported when hit)
    repeats: int  # sessions averaged per measurement


def scale_settings(scale: str) -> ScaleSettings:
    """Harness knobs for ``tiny`` (tests) and ``small`` (benchmarks)."""
    if scale == "tiny":
        return ScaleSettings(scale="tiny", bu_timeout_seconds=5.0, max_results=5_000, repeats=1)
    if scale == "small":
        return ScaleSettings(scale="small", bu_timeout_seconds=30.0, max_results=20_000, repeats=1)
    raise ExperimentError(f"unknown scale {scale!r}")


@dataclass
class ExperimentTable:
    """One regenerated paper artifact (a figure's series or a table)."""

    experiment: str  # e.g. "exp3"
    artifact: str  # e.g. "Figure 7 (WordNet)"
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """ASCII rendering (what the bench harness prints)."""
        body = ascii_table(self.headers, self.rows, title=f"{self.artifact} — {self.title}")
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return body

    def to_markdown(self) -> str:
        """Markdown rendering (what EXPERIMENTS.md embeds)."""
        lines = [f"#### {self.artifact} — {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join(["---"] * len(self.headers)) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_md_cell(c) for c in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*Note: {note}*")
        lines.append("")
        return "\n".join(lines)


def _md_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Experiment:
    """Base class; subclasses set the metadata and implement :meth:`run`."""

    #: registry id, e.g. "exp3"
    id: str = ""
    #: human title
    title: str = ""
    #: paper artifacts regenerated, e.g. ("Figure 7", "Figure 8")
    artifacts: tuple[str, ...] = ()

    def run(self, scale: str = "small") -> list[ExperimentTable]:
        """Execute the experiment; returns one table per artifact/series."""
        raise NotImplementedError


EXPERIMENT_REGISTRY: dict[str, type[Experiment]] = {}


def register_experiment(cls: type[Experiment]) -> type[Experiment]:
    """Class decorator adding an experiment to the registry."""
    if not cls.id:
        raise ExperimentError(f"{cls.__name__} lacks an id")
    EXPERIMENT_REGISTRY[cls.id] = cls
    return cls


def get_experiment(exp_id: str) -> Experiment:
    """Instantiate a registered experiment by id."""
    try:
        return EXPERIMENT_REGISTRY[exp_id]()
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None


# ---------------------------------------------------------------------------
# Measurement primitives
# ---------------------------------------------------------------------------
def session_for(bundle: DatasetBundle, seed: int = 0) -> VisualSession:
    """A fresh deterministic (jitter-free) session runner for ``bundle``."""
    return VisualSession(
        bundle.make_context(), bundle.latency, jitter=0.0, seed=seed
    )


def average_sessions(
    bundle: DatasetBundle,
    instance: QueryInstance,
    strategy: str,
    settings: ScaleSettings,
    edge_order: Sequence[int] | None = None,
    pruning: bool = True,
    force_large_upper: bool = False,
    repeats: int | None = None,
) -> dict[str, float]:
    """Run ``repeats`` sessions and average the headline metrics.

    Returned keys: ``srt``, ``cap_time``, ``cap_size``, ``matches``,
    ``backlog``, ``deferred``, ``truncated`` (0/1).
    """
    runs: list[SessionResult] = []
    count = repeats if repeats is not None else settings.repeats
    session = session_for(bundle)
    for _ in range(count):
        runs.append(
            session.run(
                instance,
                strategy=strategy,
                edge_order=edge_order,
                pruning=pruning,
                force_large_upper=force_large_upper,
                max_results=settings.max_results,
            )
        )
    return {
        "srt": statistics.fmean(r.srt_seconds for r in runs),
        "cap_time": statistics.fmean(r.cap_construction_seconds for r in runs),
        "cap_size": statistics.fmean(r.cap_size for r in runs),
        "cap_peak_size": statistics.fmean(r.cap_peak_size for r in runs),
        "matches": statistics.fmean(r.num_matches for r in runs),
        "backlog": statistics.fmean(r.backlog_seconds for r in runs),
        "deferred": statistics.fmean(
            r.run.counters["edges_deferred"] for r in runs
        ),
        "truncated": float(any(r.run.matches.truncated for r in runs)),
    }


def run_bu(
    bundle: DatasetBundle,
    instance: QueryInstance,
    settings: ScaleSettings,
) -> BUResult:
    """One BU baseline evaluation under the scale's timeout."""
    bu = BoomerUnaware(
        bundle.make_context(),
        timeout_seconds=settings.bu_timeout_seconds,
        max_results=settings.max_results,
    )
    return bu.evaluate(instance.build_query())
