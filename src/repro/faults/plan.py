"""FaultPlan: one seeded, serializable description of what breaks when.

Experiments, property tests, and the CLI all need to inject the *same*
faults; a :class:`FaultPlan` is the single mechanism they share.  It is a
plain frozen dataclass (JSON round-trippable for the CLI's ``--fault-plan``
flag) naming up to three fault domains:

* :class:`OracleFaultSpec` — the distance oracle misbehaves (transient or
  permanent failures, latency spikes);
* :class:`GUIFaultSpec` — the latency envelope misbehaves (dropped or
  spiked idle windows);
* :class:`CAPCorruptionSpec` — the CAP store rots (dropped/bogus pairs,
  vanished candidates).

The plan's ``seed`` derives per-component seeds, so the oracle's fault
schedule does not shift when, say, GUI faults are toggled on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cap import CAPIndex
    from repro.core.context import EngineContext
    from repro.faults.injectors import CorruptionReport, FaultyLatencyModel, FaultyOracle
    from repro.gui.latency import LatencyModel

__all__ = ["OracleFaultSpec", "GUIFaultSpec", "CAPCorruptionSpec", "FaultPlan"]


@dataclass(frozen=True)
class OracleFaultSpec:
    """How the distance oracle fails.

    Every field counts *calls*: one scalar ``distance``/``within``, or one
    ``distances_from``/``within_many`` kernel call however many pairs it
    answers — the unit of ``EngineCounters.oracle_calls``.  An upper-3
    edge is one call, so a 2 % rate fails it about once in fifty.
    """

    #: Per-call probability of a transient failure.
    transient_rate: float = 0.0
    #: Consecutive failing calls per transient fault (a retryable burst).
    transient_burst: int = 1
    #: Successful calls before the oracle dies permanently (None = never).
    fail_after: int | None = None
    #: Per-call probability of an added latency spike.
    latency_spike_rate: float = 0.0
    #: Duration of each injected spike.
    latency_spike_seconds: float = 0.0


@dataclass(frozen=True)
class GUIFaultSpec:
    """How the GUI latency envelope fails."""

    #: Probability a step's latency collapses to zero (no idle window).
    drop_rate: float = 0.0
    #: Probability a step's latency is multiplied by ``spike_factor``.
    spike_rate: float = 0.0
    spike_factor: float = 10.0


@dataclass(frozen=True)
class CAPCorruptionSpec:
    """How the CAP store rots (counts, not rates — corruption is discrete)."""

    #: AIVS pairs to delete in one direction only (symmetry violation).
    drop_pair_count: int = 0
    #: Symmetric-but-invalid pairs to insert (bound/liveness violation).
    bogus_pair_count: int = 0
    #: Candidates to delete while AIVS entries still reference them.
    drop_candidate_count: int = 0


_SPEC_FIELDS = {
    "oracle": OracleFaultSpec,
    "gui": GUIFaultSpec,
    "cap": CAPCorruptionSpec,
}


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    ``FaultPlan()`` (all specs None) is the null plan: applying it is a
    no-op, so harness code can thread a plan unconditionally.
    """

    seed: int = 0
    oracle: OracleFaultSpec | None = None
    gui: GUIFaultSpec | None = None
    cap: CAPCorruptionSpec | None = None

    # -- derived seeds (stable per component) ---------------------------
    def _component_seed(self, component: str) -> int:
        offsets = {"oracle": 1, "gui": 2, "cap": 3}
        return self.seed * 1_000_003 + offsets[component]

    # -- application ----------------------------------------------------
    def wrap_oracle(self, oracle) -> "FaultyOracle":
        """Wrap a distance oracle per this plan (identity if no oracle spec)."""
        if self.oracle is None:
            return oracle
        from repro.faults.injectors import FaultyOracle

        return FaultyOracle(oracle, self.oracle, seed=self._component_seed("oracle"))

    def wrap_context(self, ctx: "EngineContext") -> "EngineContext":
        """A context whose oracle is wrapped per this plan (shares the rest)."""
        if self.oracle is None:
            return ctx
        from dataclasses import replace

        return replace(ctx, oracle=self.wrap_oracle(ctx.oracle))

    def wrap_latency_model(self, model: "LatencyModel") -> "FaultyLatencyModel | LatencyModel":
        """Wrap a GUI latency model per this plan (identity if no GUI spec)."""
        if self.gui is None:
            return model
        from repro.faults.injectors import FaultyLatencyModel

        return FaultyLatencyModel(model, self.gui, seed=self._component_seed("gui"))

    def corrupt_cap(self, cap: "CAPIndex") -> "CorruptionReport | None":
        """Apply this plan's CAP corruption in place (None if no CAP spec)."""
        if self.cap is None:
            return None
        from repro.faults.injectors import CAPCorruptor

        return CAPCorruptor(self.cap, seed=self._component_seed("cap")).corrupt(cap)

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing."""
        return self.oracle is None and self.gui is None and self.cap is None

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        out: dict = {"seed": self.seed}
        for name in _SPEC_FIELDS:
            spec = getattr(self, name)
            if spec is not None:
                out[name] = asdict(spec)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected loudly."""
        if not isinstance(data, dict):
            raise ReproError(f"fault plan must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_SPEC_FIELDS) - {"seed"}
        if unknown:
            raise ReproError(f"unknown fault-plan keys: {sorted(unknown)}")
        kwargs: dict = {"seed": int(data.get("seed", 0))}
        for name, spec_cls in _SPEC_FIELDS.items():
            if name in data and data[name] is not None:
                spec_data = data[name]
                valid = {f for f in spec_cls.__dataclass_fields__}
                bad = set(spec_data) - valid
                if bad:
                    raise ReproError(
                        f"unknown {name} fault-spec keys: {sorted(bad)}"
                    )
                kwargs[name] = spec_cls(**spec_data)
        return cls(**kwargs)

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize (and optionally write) the plan as JSON."""
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file path or a JSON string."""
        text = str(source)
        candidate = Path(text)
        try:
            is_file = candidate.is_file()
        except OSError:  # e.g. name too long to be a path
            is_file = False
        if is_file:
            text = candidate.read_text(encoding="utf-8")
        elif not text.lstrip().startswith(("{", "[")):
            # Not inline JSON either: almost certainly a mistyped path.
            raise ReproError(f"fault-plan file not found: {text!r}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid fault-plan JSON: {exc}") from exc
        return cls.from_dict(data)
