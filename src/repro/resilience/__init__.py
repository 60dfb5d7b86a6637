"""Resilience layer: retries, deadlines, CAP auditing, graceful degradation.

BOOMER's value proposition is that CAP construction hides inside GUI
latency — so a flaky distance oracle, a blown time budget, or a corrupted
CAP entry does not just fail a query, it breaks the interactive illusion
the paper measures.  This package is the defensive machinery that keeps
the illusion intact:

* :class:`RetryPolicy` — bounded, backoff-spaced retries around the
  per-edge CAP construction primitives;
* :class:`Deadline` — a :class:`~repro.utils.timing.TimeBudget` with
  cooperative cancellation checkpoints threaded through pool drain and
  ``V_Δ`` enumeration;
* :class:`CAPInvariantChecker` — integrity audit plus quarantine-and-
  rebuild repair of corrupted query-edge entries;
* :class:`ResilienceConfig` — the per-session bundle of all of the above,
  including the degradation ladder down to the BU baseline.

Fault *injection* (the attack side used by tests and experiments) lives in
the sibling package :mod:`repro.faults`; the two share nothing but the
error taxonomy in :mod:`repro.errors`, so production code never imports
the injectors.
"""

from repro.resilience.checker import CAPAuditReport, CAPInvariantChecker, CAPRepairReport
from repro.resilience.deadline import Deadline
from repro.resilience.policy import POSTURES, ResilienceConfig
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CAPAuditReport",
    "CAPInvariantChecker",
    "CAPRepairReport",
    "Deadline",
    "POSTURES",
    "ResilienceConfig",
    "RetryPolicy",
]
