"""Codebase-aware static analysis and runtime invariant checking.

Two halves, one goal — the invariants BOOMER's blending guarantee rests
on are *enforced on every commit*, not sampled by tests:

* **boomerlint** (:mod:`~repro.analysis.engine`,
  :mod:`~repro.analysis.rules`, :mod:`~repro.analysis.registry`,
  :mod:`~repro.analysis.suppress`) — an AST-walking lint engine whose
  rules encode this repo's contracts: seeded-RNG determinism (R1), the
  typed error taxonomy (R2), the metrics/span naming taxonomy (R4),
  public-API coherence (R5), and service lock discipline (R6).  On top
  of the per-file tier sits a whole-program tier
  (:mod:`~repro.analysis.project`, :mod:`~repro.analysis.dataflow`, :mod:`~repro.analysis.rules_flow`,
  :mod:`~repro.analysis.rules_project`): cross-module protocol-drift
  (R9), epoch-guard flow (R10), resource lifecycle (R11), and inferred
  lock-guard (R12) rules, plus SARIF output and a content-hash
  incremental cache.  Run it as ``python -m repro
  lint src/repro``; suppress a deliberate exception inline with
  ``# boomerlint: disable=R2``.
* **lock-order race detection** (:mod:`~repro.analysis.lockorder`) — a
  lockdep-style monitor that instruments ``threading`` locks during the
  service concurrency tests and fails on acquisition-order cycles, the
  deadlocks that never need to actually happen to be real.

See docs/ANALYSIS.md for the rule catalog, the suppression syntax, how
to add a rule, and race-detector usage.
"""

from repro.analysis.cache import LintCache
from repro.analysis.engine import LintEngine, LintReport, ModuleSource, module_key
from repro.analysis.lockorder import (
    Inversion,
    LockOrderMonitor,
    MonitoredLock,
    MonitoredRLock,
    patch_locks,
)
from repro.analysis.project import ModuleFacts, ProjectIndex, ProjectRule
from repro.analysis.registry import (
    Rule,
    Violation,
    all_rules,
    get_rules,
    register,
    rule_ids,
)
from repro.analysis.sarif import to_sarif

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
    # whole-program tier
    "ModuleFacts",
    "ProjectIndex",
    "ProjectRule",
    # operational modes
    "LintCache",
    "to_sarif",
    # lock-order detector
    "LockOrderMonitor",
    "MonitoredLock",
    "MonitoredRLock",
    "Inversion",
    "patch_locks",
]
