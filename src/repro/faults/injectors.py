"""Deterministic fault injectors for the oracle, GUI latency, and CAP store.

Every injector draws from its own seeded generator (via
:func:`repro.utils.rng.seeded_rng` — boomerlint rule R1 keeps raw
``random`` out of this module), so a given :class:`~repro.faults.FaultPlan`
produces the *same* fault schedule on every run — failures are
reproducible test inputs, not flakes.

:class:`InjectedFaultError` deliberately derives from :class:`RuntimeError`
and **not** from :class:`~repro.errors.ReproError`: an injected fault
models an *external* component blowing up (a remote oracle, a disk), which
is exactly the class of error the resilience layer's
:class:`~repro.resilience.RetryPolicy` treats as transient and retries.
Library-logic errors (``ReproError``) are never retried.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cap import CAPIndex, pair_keys
from repro.faults.plan import CAPCorruptionSpec, GUIFaultSpec, OracleFaultSpec
from repro.gui.latency import LatencyModel
from repro.indexing.oracle import DistanceOracle
from repro.utils.rng import seeded_rng

__all__ = [
    "InjectedFaultError",
    "FaultyOracle",
    "FaultyLatencyModel",
    "CAPCorruptor",
    "CorruptionReport",
]


class InjectedFaultError(RuntimeError):
    """A seeded, injected component failure (not a library-logic error)."""

    def __init__(self, component: str, detail: str) -> None:
        super().__init__(f"injected {component} fault: {detail}")
        self.component = component
        self.detail = detail


class FaultyOracle:
    """Distance-oracle wrapper that fails and stalls per its spec.

    Implements the :class:`~repro.indexing.oracle.DistanceOracle` protocol
    and forwards all four methods to ``inner``.  A *call* is one method
    invocation: a scalar query, or one ``distances_from``/``within_many``
    kernel call however many pairs it answers — the unit
    ``EngineCounters.oracle_calls`` counts, so :attr:`calls` equals it
    for a session over this oracle.  Three failure modes, all seeded and
    all per call:

    * *transient*: each call independently fails with probability
      ``spec.transient_rate`` (in bursts of ``spec.transient_burst``
      consecutive calls) — a retry after the burst succeeds;
    * *permanent*: after ``spec.fail_after`` successful calls every later
      call fails — the component is dead for the rest of the session;
    * *latency spikes*: with probability ``spec.latency_spike_rate`` a call
      additionally sleeps ``spec.latency_spike_seconds`` — slow is a fault
      mode too, and it is what deadlines exist for.
    """

    def __init__(self, inner: DistanceOracle, spec: OracleFaultSpec, seed: int = 0) -> None:
        self.inner = inner
        self.spec = spec
        self._rng = seeded_rng(seed)
        self.calls = 0
        self.faults_injected = 0
        self.spikes_injected = 0
        self._burst_remaining = 0

    def _tick(self) -> None:
        self.calls += 1
        spec = self.spec
        if spec.fail_after is not None and self.calls > spec.fail_after:
            self.faults_injected += 1
            raise InjectedFaultError(
                "oracle", f"permanently down after {spec.fail_after} calls"
            )
        if self._burst_remaining > 0:
            self._burst_remaining -= 1
            self.faults_injected += 1
            raise InjectedFaultError("oracle", "transient failure (burst)")
        if spec.transient_rate > 0 and self._rng.random() < spec.transient_rate:
            self._burst_remaining = max(spec.transient_burst - 1, 0)
            self.faults_injected += 1
            raise InjectedFaultError("oracle", "transient failure")
        if (
            spec.latency_spike_rate > 0
            and spec.latency_spike_seconds > 0
            and self._rng.random() < spec.latency_spike_rate
        ):
            self.spikes_injected += 1
            time.sleep(spec.latency_spike_seconds)

    def distance(self, u: int, v: int) -> int:
        """Counted, possibly-faulty ``dist(u, v)``."""
        self._tick()
        return self.inner.distance(u, v)

    def within(self, u: int, v: int, upper: int) -> bool:
        """Counted, possibly-faulty bounded-distance check."""
        self._tick()
        return self.inner.within(u, v, upper)

    def distances_from(self, source: int, targets) -> np.ndarray:
        """One counted, possibly-faulty kernel call for every target."""
        self._tick()
        return self.inner.distances_from(source, targets)

    def within_many(
        self, sources, targets, upper: int, skip_equal: bool = False
    ) -> np.ndarray:
        """One counted, possibly-faulty kernel call for the whole block."""
        self._tick()
        return self.inner.within_many(sources, targets, upper, skip_equal)


class FaultyLatencyModel:
    """Latency-model wrapper that perturbs the GUI timing envelope.

    Two perturbations, sampled per visual step:

    * *drop*: with probability ``spec.drop_rate`` a step's latency becomes
      0 — the engine gets **no** idle window (the user acted instantly, or
      the GUI event never carried its timing);
    * *spike*: with probability ``spec.spike_rate`` the latency is
      multiplied by ``spec.spike_factor`` — a frozen UI thread gives the
      engine a huge window, which must not break the timeline accounting.
    """

    def __init__(self, inner: LatencyModel, spec: GUIFaultSpec, seed: int = 0) -> None:
        self.inner = inner
        self.spec = spec
        self._rng = seeded_rng(seed)
        self.drops_injected = 0
        self.spikes_injected = 0

    def _perturb(self, value: float) -> float:
        spec = self.spec
        if spec.drop_rate > 0 and self._rng.random() < spec.drop_rate:
            self.drops_injected += 1
            return 0.0
        if spec.spike_rate > 0 and self._rng.random() < spec.spike_rate:
            self.spikes_injected += 1
            return value * spec.spike_factor
        return value

    def action_time(self, action) -> float:
        """Perturbed duration of performing ``action`` visually."""
        return self._perturb(self.inner.action_time(action))

    def vertex_time(self) -> float:
        """Perturbed ``T_node``."""
        return self._perturb(self.inner.vertex_time())

    def edge_time(self, default_bounds: bool) -> float:
        """Perturbed ``T_edge``."""
        return self._perturb(self.inner.edge_time(default_bounds))

    def modify_time(self) -> float:
        """Perturbed modification-step duration."""
        return self._perturb(self.inner.modify_time())

    def run_click_time(self) -> float:
        """Perturbed Run-click duration."""
        return self._perturb(self.inner.run_click_time())


@dataclass
class CorruptionReport:
    """What a :class:`CAPCorruptor` pass actually damaged."""

    dropped_pairs: list[tuple[tuple[int, int], int, int]] = field(default_factory=list)
    bogus_pairs: list[tuple[tuple[int, int], int, int]] = field(default_factory=list)
    dropped_candidates: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of individual corruptions applied."""
        return (
            len(self.dropped_pairs)
            + len(self.bogus_pairs)
            + len(self.dropped_candidates)
        )


class CAPCorruptor:
    """Applies seeded bit-rot-style damage to a live CAP index.

    Reaches into the index's internals on purpose — real corruption does
    not use the public API either.  All three damage modes are *detectable*
    by the resilience layer's audit:

    * *drop-pair*: remove one direction of an AIVS pair (breaks symmetry);
    * *bogus-pair*: insert a symmetric pair, in sorted position, between a
      candidate and a vertex id beyond every level (caught by liveness, and
      unverifiable for the sampled upper-bound spot check);
    * *drop-candidate*: delete a candidate from its level while pair
      blocks still name it (breaks AIVS liveness).
    """

    def __init__(self, spec: CAPCorruptionSpec, seed: int = 0) -> None:
        self.spec = spec
        self._rng = seeded_rng(seed)

    def corrupt(self, cap: CAPIndex) -> CorruptionReport:
        """Damage ``cap`` in place; returns what was done (for assertions)."""
        report = CorruptionReport()
        rng = self._rng
        levels, blocks = cap._levels, cap._blocks  # noqa: SLF001 - deliberate internal access
        directed = sorted(blocks)

        if self.spec.drop_pair_count > 0 and directed:
            candidates = [
                (key, vi, vj) for key in directed for vi, vj in blocks[key].tolist()
            ]
            for key, vi, vj in self._pick(candidates, self.spec.drop_pair_count):
                block = blocks[key]  # one direction only
                blocks[key] = block[(block != (vi, vj)).any(axis=1)]
                report.dropped_pairs.append((key, vi, vj))

        if self.spec.bogus_pair_count > 0 and directed:
            for _ in range(self.spec.bogus_pair_count):
                qi, qj = rng.choice(directed)
                if not len(levels.get(qi, ())):
                    continue
                vi = rng.choice(levels[qi].tolist())
                # A data vertex that is not a live candidate of qj (nor of
                # the graph): max id + offset — liveness check must flag it.
                top = max(int(level[-1]) for level in levels.values() if len(level))
                vj = top + 1 + rng.randrange(1000)
                for key, row in (((qi, qj), (vi, vj)), ((qj, qi), (vj, vi))):
                    block = blocks[key]
                    at = np.searchsorted(pair_keys(*block.T), pair_keys(*np.array([row]).T))
                    blocks[key] = np.insert(block, at, row, axis=0)
                report.bogus_pairs.append(((qi, qj), vi, vj))

        if self.spec.drop_candidate_count > 0:
            referenced = [
                (key[0], vi)
                for key in directed
                for vi in np.unique(blocks[key][:, 0]).tolist()
                if vi in levels.get(key[0], ())
            ]
            for q, v in self._pick(sorted(set(referenced)), self.spec.drop_candidate_count):
                levels[q] = levels[q][levels[q] != v]  # level lies; blocks still name v
                report.dropped_candidates.append((q, v))

        return report

    def _pick(self, population: list, count: int) -> list:
        """Sample without replacement, tolerating small populations."""
        if not population:
            return []
        return self._rng.sample(population, min(count, len(population)))
