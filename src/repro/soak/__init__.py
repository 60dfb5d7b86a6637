"""Chaos soak harness: sustained multi-user traffic with an SLO gate.

The ROADMAP's robustness bar for the service is not "passes unit tests"
— it is "survives hours of heavy-tailed, overloading, concurrent
traffic without leaking anything or returning a wrong answer".  This
package is that proving ground:

* :func:`run_soak` drives a real :class:`~repro.service.QueryServer`
  over the wire with a :class:`~repro.workload.SoakWorkloadConfig`
  schedule (Pareto arrivals, jittered think time, mid-session bound
  revisions, abandoned sessions = client-thread death), while the
  service runs under a :class:`~repro.service.ServeConfig` with
  deliberately tight budgets, a Run deadline and an
  :class:`~repro.service.OverloadPolicy` (:data:`SOAK_CONFIG`) so
  shedding, eviction, checkpointing and restore all actually fire —
  plus, behind a worker pool, a worker SIGKILL mid-traffic.
* :class:`SLO` declares the pass bar — latency percentiles, zero leaked
  sessions/locks, bounded memory growth, every shed resolved, restored
  sessions byte-identical — and :class:`SoakReport` is the machine-
  readable verdict (``BENCH_soak.json`` in CI).

Invoke it as ``python -m repro soak`` (see :mod:`repro.cli`) or from
``benchmarks/bench_soak.py``.
"""

from repro.soak.harness import SOAK_CONFIG, run_soak
from repro.soak.slo import SLO, SoakReport

__all__ = ["SLO", "SOAK_CONFIG", "SoakReport", "run_soak"]
