"""Small shared utilities: timers, RNG helpers, formatting."""

from repro.utils.timing import Deadline, Stopwatch, TimeBudget
from repro.utils.rng import seeded_rng, spawn_rng
from repro.utils.fmt import format_duration, format_count, ascii_table

__all__ = [
    "Deadline",
    "Stopwatch",
    "TimeBudget",
    "seeded_rng",
    "spawn_rng",
    "format_duration",
    "format_count",
    "ascii_table",
]
