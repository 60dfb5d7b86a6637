"""The process-wide monotonic clock every timed component shares.

BOOMER's whole evaluation is an exercise in attributing milliseconds —
CAP work hidden inside GUI latency, Run-phase residue (SRT), per-edge
costs — so *every* timestamp in the system must come from one clock, or
span timelines, stopwatch accumulators, and deadline accounting drift
apart.  This module is that single source:

* :func:`now` — monotonic seconds (``time.perf_counter``);
* :data:`monotonic` — the underlying callable, exposed so tests can
  monkeypatch one symbol (``repro.obs.clock.monotonic``) and move time
  for spans, stopwatches, budgets, and deadlines *together*.

``repro.utils.timing`` (:class:`Stopwatch`, :class:`TimeBudget`) and
``repro.obs.trace`` (span timestamps) both read through this module at
call time, never caching the callable, so a monkeypatched clock takes
effect everywhere at once.
"""

from __future__ import annotations

import time

__all__ = ["monotonic", "now"]

#: The raw clock callable.  Monkeypatch this (and only this) in tests
#: that need deterministic time; everything timed reads through it.
monotonic = time.perf_counter


def now() -> float:
    """Current monotonic timestamp in seconds (shared clock source)."""
    return monotonic()
