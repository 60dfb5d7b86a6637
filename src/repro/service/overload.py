"""Admission backpressure: watermarks, shedding verdicts, retry hints.

Hard admission control (:class:`~repro.errors.AdmissionError`) only fires
once the session budget is *exhausted and unevictable* — by then every
tenant is already paying queueing delay.  :class:`OverloadPolicy` adds the
earlier, softer layer: configurable **watermarks** on the three resources
that actually saturate a hosting process —

* **open sessions** (fraction of ``max_sessions``),
* **CAP-entry usage** (fraction of ``cap_entry_budget``) — retained
  state, the quantity LRU eviction reclaims,
* **in-flight requests** (queue depth across all wire verbs) — the GIL-
  bound compute the service cannot parallelize past hardware,

— past which the :class:`~repro.service.manager.SessionManager` *sheds*
work with a typed, retryable :class:`~repro.errors.ServiceOverloadedError`
carrying a ``retry_after_ms`` hint, instead of queueing it into collapse.
Shedding is load-dependent and transient; clients holding a
:class:`~repro.service.client.RetryPolicy` (see
:class:`~repro.service.client.ServiceClient`) retry after the hint and
normally succeed, which is what the soak harness (:mod:`repro.soak`)
asserts: **every shed request either succeeds on retry or fails with a
typed retryable error** — never an untyped hang or a wrong answer.

The same verdict type (reason ``"draining"``) refuses new work during a
graceful :meth:`~repro.service.manager.SessionManager.drain`, so one
client-side code path handles both "busy now" and "going away".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import OverloadConfigError, ServiceOverloadedError

__all__ = ["OverloadPolicy"]


@dataclass(frozen=True)
class OverloadPolicy:
    """Watermark configuration for load shedding (immutable; share freely).

    Parameters
    ----------
    session_watermark:
        Fraction of ``max_sessions`` past which *new-session* admissions
        shed once nothing idle is evictable (1.0 keeps the pre-overload
        behavior of refusing only at the hard budget).
    cap_watermark:
        Fraction of ``cap_entry_budget`` past which new-session
        admissions shed (existing sessions keep working — shedding
        targets load growth, never the request in flight).
    max_inflight:
        Maximum concurrently dispatched requests (queue depth) before
        session-mutating verbs shed.  ``None`` disables the queue-depth
        watermark.
    retry_after_ms:
        Base client back-off hint attached to every shed verdict.
    retry_after_draining_ms:
        Hint used while draining (typically longer: the process is going
        away, the client should re-resolve and talk to another instance
        or wait out the restart).
    """

    session_watermark: float = 0.85
    cap_watermark: float = 0.9
    max_inflight: int | None = None
    retry_after_ms: int = 50
    retry_after_draining_ms: int = 250

    def __post_init__(self) -> None:
        if not 0.0 < self.session_watermark <= 1.0:
            raise OverloadConfigError("session_watermark must be in (0, 1]")
        if not 0.0 < self.cap_watermark <= 1.0:
            raise OverloadConfigError("cap_watermark must be in (0, 1]")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise OverloadConfigError("max_inflight must be >= 1 (or None)")
        if self.retry_after_ms < 0 or self.retry_after_draining_ms < 0:
            raise OverloadConfigError("retry hints must be >= 0")

    # -- watermark arithmetic -------------------------------------------
    def session_threshold(self, max_sessions: int) -> int:
        """Open-session count at which creations start shedding."""
        return max(1, math.ceil(self.session_watermark * max_sessions))

    def cap_threshold(self, cap_entry_budget: int | None) -> int | None:
        """CAP-entry usage at which creations start shedding (None = off)."""
        if cap_entry_budget is None:
            return None
        return max(1, math.ceil(self.cap_watermark * cap_entry_budget))

    # -- verdict construction -------------------------------------------
    def shed(self, reason: str, detail: str) -> ServiceOverloadedError:
        """The typed, retryable verdict for one shed decision."""
        hint = (
            self.retry_after_draining_ms
            if reason == "draining"
            else self.retry_after_ms
        )
        return ServiceOverloadedError(
            f"load shed ({reason}): {detail}",
            reason=reason,
            retry_after_ms=hint,
        )
