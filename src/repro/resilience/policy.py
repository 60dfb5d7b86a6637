"""Session-level resilience configuration and the degradation ladder.

One :class:`ResilienceConfig` travels from the caller (CLI flag, session
harness, experiment) into :class:`repro.core.blender.Boomer` and controls
every defensive behavior:

* **retry** — transient oracle/component failures inside ``process_edge``
  are retried with backoff (see :class:`repro.resilience.RetryPolicy`);
* **deadline** — the Run phase (pool drain + enumeration) is bounded; a
  blown budget raises :class:`~repro.errors.DeadlineExceededError` at the
  next cooperative checkpoint;
* **verification** — the CAP index is audited (and repaired) before
  enumeration, so storage corruption cannot silently change answers;
* **degradation** — when the CAP path is unrecoverable the engine walks
  the ladder below instead of failing the query.

Degradation ladder
------------------
1. *CAP path* (normal): retries + repair keep the blended pipeline alive.
2. *BU with the session oracle*: correct-but-slower evaluation that needs
   no CAP index at all — survives arbitrary CAP corruption.
3. *BU with a fresh BFS oracle*: needs nothing but the raw graph —
   survives a permanently dead distance oracle too.

Every rung yields the *same* match set (BU and BOOMER agree by the
deferral-neutrality invariant), so degradation trades latency, never
correctness.  A run that degrades is flagged on its
:class:`~repro.core.blender.RunResult` so benchmarks can report
degraded-mode SRT separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.resilience.retry import RetryPolicy

__all__ = ["POSTURES", "ResilienceConfig"]

#: The posture names ``--resilience`` and the wire's ``create_session``
#: accept (see :meth:`ResilienceConfig.from_posture`).
POSTURES = ("off", "default", "strict", "paranoid")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the resilience layer (immutable; share freely).

    Parameters
    ----------
    retry:
        Policy wrapped around per-edge CAP construction.
    deadline_seconds:
        Wall-clock budget for the Run phase (None = unbounded).
    degrade_to_bu:
        Walk the BU degradation ladder on unrecoverable CAP failure
        instead of raising.
    verify_cap_on_run:
        Audit (and if needed repair) the CAP index at the Run click,
        before the pool drains into it and enumeration reads it.  Off by
        default: it spends oracle queries, and the structural invariants
        are already property-tested; turn it on when the storage layer is
        untrusted.
    audit_sample_pairs:
        Per-edge oracle spot-check budget of the pre-enumeration audit.
    absorb_action_failures:
        Survive mid-formulation component failures by deferring the
        affected CAP work to Run (``failed-deferred`` action status).
        Off in the strict posture so failures stay loud.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline_seconds: float | None = None
    degrade_to_bu: bool = True
    verify_cap_on_run: bool = False
    audit_sample_pairs: int = 16
    absorb_action_failures: bool = True

    @classmethod
    def from_posture(
        cls,
        posture: "str | ResilienceConfig | None",
        deadline_seconds: float | None = None,
    ) -> "ResilienceConfig | None":
        """The configuration a posture stands for (None = resilience off).

        ``posture`` is one of :data:`POSTURES`, or an already-built
        configuration (``None`` for "off"), which passes through; anything
        else raises :class:`ValueError`.  A ``deadline_seconds`` override
        bounds the Run phase of whatever that gives, and implies the
        default posture when it gives none.
        """
        if not (posture is None or isinstance(posture, cls)):
            if posture not in POSTURES:
                raise ValueError(
                    f"unknown resilience posture {posture!r} "
                    f"(choose from {sorted(POSTURES)})"
                )
            posture = None if posture == "off" else getattr(cls, posture)()
        if deadline_seconds is not None:
            posture = replace(posture or cls(), deadline_seconds=deadline_seconds)
        return posture

    @classmethod
    def default(cls) -> "ResilienceConfig":
        """The standard production posture (retries + degradation)."""
        return cls()

    @classmethod
    def strict(cls) -> "ResilienceConfig":
        """Fail loudly: no retries, no degradation, no absorption."""
        return cls(
            retry=RetryPolicy(max_attempts=1),
            degrade_to_bu=False,
            absorb_action_failures=False,
        )

    @classmethod
    def paranoid(cls, deadline_seconds: float | None = None) -> "ResilienceConfig":
        """Everything on: retries, degradation, CAP verification, deadline."""
        return cls(
            deadline_seconds=deadline_seconds,
            degrade_to_bu=True,
            verify_cap_on_run=True,
        )
