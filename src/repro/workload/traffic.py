"""Soak traffic: heavy-tailed arrivals of simulated formulation sessions.

The paper's experiments replay one session at a time; the service needs
the opposite — *sustained, overlapping, realistic* user traffic, in the
spirit of Orion's user-session model (PAPERS.md): sessions arrive with
heavy-tailed interarrival gaps (a Pareto process — bursts and lulls, not
a metronome), think between actions with jittered GUI latency, sometimes
revise bounds mid-formulation, and sometimes abandon the session outright
(the client thread dies without a goodbye — exactly the worker-thread
death the chaos soak injects).

Everything is **derived deterministically from one seed**: the same
:class:`SoakWorkloadConfig` always yields the same arrival offsets, the
same per-session action lists with the same think times, the same
modification and abandonment choices (the determinism regression in
``tests/test_workload_generator.py`` pins this).  Per-session randomness
comes from :func:`~repro.utils.rng.spawn_rng` streams, so adding a
session never perturbs the ones before it.

Actions are emitted in the session-recording dict format
(:mod:`repro.gui.recording`) — the same bytes the wire protocol's
``action`` op accepts — so a schedule drives :class:`ServiceClient`
directly and can be archived as a benchmark artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.actions import ModifyBounds
from repro.core.cost import GUILatencyConstants
from repro.errors import ExperimentError
from repro.graph.graph import Graph
from repro.workload.generator import instantiate
from repro.workload.templates import template_names
from repro.utils.rng import seeded_rng, spawn_rng

__all__ = ["SoakWorkloadConfig", "SessionScript", "generate_soak_schedule"]


@dataclass(frozen=True)
class SoakWorkloadConfig:
    """One reproducible traffic mix (immutable; the seed is the identity).

    Parameters
    ----------
    seed:
        Root seed; every arrival, label choice, think time, modification
        and abandonment derives from it.
    sessions:
        Number of user sessions in the schedule.
    mean_interarrival_seconds:
        Mean gap between session starts (virtual seconds; the soak
        harness scales them to wall clock).
    pareto_alpha:
        Tail index of the interarrival distribution (must be > 1 so the
        mean exists; lower = burstier).
    think_jitter:
        Lognormal jitter of the GUI latency model (0 = the paper's fixed
        per-action constants).
    think_speed:
        Speed multiplier on think time (2.0 = users twice as fast).
    modify_rate:
        Probability a session revises one edge's upper bound
        mid-formulation (a ``ModifyBounds`` before Run).
    abandon_rate:
        Probability a session walks away mid-formulation: the schedule
        truncates its actions and never runs — the driving thread just
        stops without closing the session.
    templates:
        Template names to draw from (default: all six paper templates).
    """

    seed: int = 0
    sessions: int = 20
    mean_interarrival_seconds: float = 0.5
    pareto_alpha: float = 1.5
    think_jitter: float = 0.15
    think_speed: float = 1.0
    modify_rate: float = 0.3
    abandon_rate: float = 0.1
    templates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ExperimentError("soak schedule needs at least one session")
        if self.pareto_alpha <= 1.0:
            raise ExperimentError(
                "pareto_alpha must be > 1 (heavier tails have no mean "
                "interarrival to target)"
            )
        if self.mean_interarrival_seconds < 0:
            raise ExperimentError("mean_interarrival_seconds must be >= 0")
        for rate in (self.modify_rate, self.abandon_rate):
            if not 0.0 <= rate <= 1.0:
                raise ExperimentError("rates must be within [0, 1]")


@dataclass
class SessionScript:
    """One simulated user's complete, pre-drawn behavior."""

    index: int
    name: str  # instance name, e.g. "Q2@soak#17"
    arrival_offset: float  # virtual seconds after soak start
    #: Recording-format dicts, ``Run`` last — unless the user abandons,
    #: in which case the list is truncated and ``abandoned`` is True.
    actions: list[dict] = field(default_factory=list)
    abandoned: bool = False
    modified: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "name": self.name,
            "arrival_offset": self.arrival_offset,
            "actions": list(self.actions),
            "abandoned": self.abandoned,
            "modified": self.modified,
        }


def generate_soak_schedule(
    graph: Graph, config: SoakWorkloadConfig
) -> list[SessionScript]:
    """Materialize the full soak schedule for ``config`` on ``graph``.

    Pure function of ``(graph, config)``: no wall clock, no global RNG.
    """
    # Imported here, not at module top: repro.gui.simulator itself imports
    # repro.workload (for QueryInstance), so a top-level import would be
    # circular whenever repro.gui initializes first.
    from repro.gui.latency import LatencyModel
    from repro.gui.recording import action_to_dict
    from repro.gui.simulator import SimulatedUser

    root = seeded_rng(config.seed)
    arrivals_rng = spawn_rng(root, "arrivals")
    names = config.templates or tuple(template_names())
    # Normalize Pareto samples so the configured mean is actually the
    # mean: E[paretovariate(a)] = a / (a - 1).
    pareto_mean = config.pareto_alpha / (config.pareto_alpha - 1.0)

    scripts: list[SessionScript] = []
    clock = 0.0
    for index in range(config.sessions):
        gap = (
            arrivals_rng.paretovariate(config.pareto_alpha)
            / pareto_mean
            * config.mean_interarrival_seconds
        )
        clock += gap
        rng = spawn_rng(root, f"session-{index}")
        template = rng.choice(list(names))
        instance = instantiate(
            template, graph, seed=rng.randrange(2**31), dataset="soak"
        )
        model = LatencyModel(
            GUILatencyConstants(),
            jitter=config.think_jitter,
            speed=config.think_speed,
            seed=rng.randrange(2**31),
        )
        actions = SimulatedUser(model).formulate(instance)

        modified = False
        if rng.random() < config.modify_rate:
            # Revise one edge's upper bound mid-formulation: loosen it by
            # 1 so the query stays valid and typically gains matches.
            edge_index = rng.randrange(len(instance.bounds))
            u, v = instance.template.edges[edge_index]
            bounds = instance.bounds[edge_index]
            revise = ModifyBounds(
                u=u,
                v=v,
                lower=bounds.lower,
                upper=bounds.upper + 1,
                latency_after=model.action_time(actions[-2])
                if len(actions) > 1
                else None,
            )
            actions.insert(len(actions) - 1, revise)
            modified = True

        abandoned = False
        if rng.random() < config.abandon_rate and len(actions) > 2:
            # Walk away mid-formulation: keep a nonempty prefix, drop Run.
            cut = rng.randrange(1, len(actions) - 1)
            actions = actions[:cut]
            abandoned = True

        scripts.append(
            SessionScript(
                index=index,
                name=instance.name,
                arrival_offset=clock,
                actions=[action_to_dict(a) for a in actions],
                abandoned=abandoned,
                modified=modified,
            )
        )
    return scripts
