"""The ledger's four workloads: which scripts run, on what, how often, and why.

A workload is a *fixed* population of formulation scripts (template x
label seed x bound overrides) on one dataset, played ``rounds`` times.
Neither changes with ``--seed`` or with the speed of the machine, so two
commits are always scored by the same estimator on the same scripts.
``--seed`` draws the order the scripts are played in, anew for every
round; README, "What --seed changes", has the measurements behind that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

__all__ = ["Workload", "WORKLOADS", "SMOKE_SCRIPTS", "SMOKE_ROUNDS", "NOMINAL_SECONDS", "PAGE", "digest"]

#: ``--smoke`` keeps this many scripts per workload (two of the first label
#: seed, two of the last), enough to touch every verb and layer in seconds.
SMOKE_SCRIPTS = 4
SMOKE_ROUNDS = 2
#: ``rounds`` below are sized for a measured window of about this many
#: seconds on the 2-core box this was written on; ``--seconds`` scales them.
NOMINAL_SECONDS = 15
#: ``results(limit=PAGE)``: the first page of result subgraphs a GUI shows.
PAGE = 10


def digest(matches: list) -> str:
    """sha256 of a canonical match list, the same in generator and reference."""
    return hashlib.sha256(json.dumps(matches, separators=(",", ":")).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    scale: str
    #: Construction strategy sent with ``create_session``; None lets the
    #: service pick its default (``DI``).
    strategy: str | None
    templates: tuple[str, ...]
    label_seeds: tuple[int, ...]
    #: Measured rounds over the whole script list at ``NOMINAL_SECONDS``.
    rounds: int
    clients: int = 1
    #: Raise the last edge's upper bound to 3 (odd label seeds: also the
    #: first edge's), so those edges are expensive and take the
    #: ``large_upper_search`` path.
    upper3: bool = False
    #: Every second script brings an edge of its own, inserted before its
    #: session and deleted after it: an update between any two sessions.
    updates: bool = False

    def rounds_for(self, seconds: float) -> int:
        """Fixed by the workload and ``--seconds`` alone, never by a stopwatch."""
        return max(2, round(self.rounds * seconds / NOMINAL_SECONDS))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="engine_pvs",
            why="fixed scripts in seeded order, upper-3 edges deferred under DR and drained "
            "at Run: srt is large_upper_search, within_many, add_pairs and pruning",
            dataset="dblp",
            scale="small",
            strategy="DR",
            templates=("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"),
            label_seeds=(0, 1, 2),
            rounds=6,
            upper3=True,
        ),
        Workload(
            name="engine_enum",
            why="fixed scripts in seeded order, IC builds the whole CAP inside action: srt is "
            "the truncated 10k-match enumeration alone, fetch is canonicalise plus JSON",
            dataset="wordnet",
            scale="small",
            strategy="IC",
            templates=("Q2", "Q3", "Q4", "Q5", "Q6"),
            label_seeds=(0, 1, 2, 3),
            rounds=4,
        ),
        Workload(
            name="wire_crowd",
            why="fixed scripts in seeded order, tiny engine work and two clients: codec, "
            "dispatch, manager lock, socket and the GIL convoy between handler threads dominate",
            dataset="flickr",
            scale="tiny",
            strategy=None,
            templates=("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"),
            label_seeds=(0, 1, 2, 3, 4, 5, 6, 7),
            rounds=10,
            clients=2,
        ),
        Workload(
            name="mutate_mix",
            why="fixed scripts in seeded order, an edge insert or delete between any two "
            "sessions on one PML: label patch, rebuild_inplace and cache drops beside oracle reads",
            dataset="wordnet",
            scale="small",
            strategy=None,
            templates=("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"),
            label_seeds=(0, 1),
            rounds=4,
            updates=True,
        ),
    )
}
