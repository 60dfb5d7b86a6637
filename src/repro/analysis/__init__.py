"""Codebase-aware static analysis and runtime invariant checking.

Two halves, one goal — the invariants BOOMER's blending guarantee rests
on are *enforced on every commit*, not sampled by tests:

* **boomerlint** (:mod:`~repro.analysis.engine`,
  :mod:`~repro.analysis.rules`, :mod:`~repro.analysis.rules_flow`,
  :mod:`~repro.analysis.registry`) — an AST-walking lint engine whose
  rules each guard a defect no runtime test catches: seeded-RNG
  determinism (R1), the typed error taxonomy (R2), the metrics/span
  naming taxonomy (R4), service lock discipline (R6), and inferred lock
  guards (R12).  Every rule sees one file at a time, and no comment can
  silence one.  Run it as ``python -m repro lint src/repro``: it prints
  ``file:line:col: RULE message`` per hit and exits 0 or 1.
* **lock-order race detection** (:mod:`~repro.analysis.lockorder`) — a
  lockdep-style monitor that instruments ``threading`` locks during the
  service concurrency tests and fails on acquisition-order cycles, the
  deadlocks that never need to actually happen to be real.

See docs/ANALYSIS.md for the rule catalog, each rule's seeded-mutation
fixture, how to add a rule, and race-detector usage.
"""

from repro.analysis.engine import LintEngine, LintReport, ModuleSource, module_key
from repro.analysis.lockorder import (
    Inversion,
    LockOrderMonitor,
    MonitoredLock,
    MonitoredRLock,
    patch_locks,
)
from repro.analysis.registry import (
    Rule,
    Violation,
    all_rules,
    get_rules,
    register,
    rule_ids,
)

__all__ = [
    # lint engine
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "module_key",
    "Rule",
    "Violation",
    "register",
    "all_rules",
    "get_rules",
    "rule_ids",
    # lock-order detector
    "LockOrderMonitor",
    "MonitoredLock",
    "MonitoredRLock",
    "Inversion",
    "patch_locks",
]
