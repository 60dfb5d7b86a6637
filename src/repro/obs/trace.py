"""Lightweight span tracing: parent/child nesting over the shared clock.

One :class:`Tracer` records one session's phase-attributed timeline —
effectively a machine-readable Figure-7 SRT decomposition per query.  A
span is opened with :meth:`Tracer.span` (a context manager) or
:meth:`Tracer.start` (manual close, for phases that outlive one call
frame, e.g. the formulation phase spanning many wire requests), carries
a name plus arbitrary attributes, and nests under whichever span is
open when it starts.  Completed spans land in a bounded ring buffer
(oldest dropped first, drop count kept), so a long-lived session cannot
grow without bound.

Balanced by construction
------------------------
``with tracer.span(...)`` closes on *any* exit, recording the exception
on the span; :meth:`Span.close` closes still-open descendants first
(marked ``truncated``) so the exported forest is always balanced — no
orphaned open spans survive a failed action or a blown deadline.
:meth:`Tracer.finish` force-closes whatever remains (used at terminal
session failure and export time).

Cost model
----------
The :data:`NULL_TRACER` is the default everywhere: ``span()`` returns a
shared no-op span, so an un-traced engine pays one attribute lookup and
one call per instrumentation point — a few dozen per query edge's worth
of real work.  ``benchmarks/bench_obs_overhead.py`` pins this below the
2% budget on the Figure-8 workload.  Hot *per-probe* events (PML oracle
calls) are never spanned; they flow through counters
(:mod:`repro.obs.metrics`) instead.

Threading: a tracer is deliberately lock-free and therefore not
thread-safe on its own.  Every writer must hold the owning session's
lock — which the service layer already guarantees (requests and the
idle probes they donate both run under the per-session lock).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.obs import clock

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "DEFAULT_CAPACITY"]

#: Ring-buffer capacity (closed spans retained per tracer).
DEFAULT_CAPACITY = 8192


class Span:
    """One open-or-closed span.  Created by :class:`Tracer`, never directly."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start", "end", "attrs", "error")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        start: float,
        attrs: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.attrs = attrs
        self.error: str | None = None

    # -- annotations -----------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    @property
    def open(self) -> bool:
        """True until the span is closed."""
        return self.end is None

    @property
    def duration(self) -> float:
        """Seconds from start to end (to *now* while still open)."""
        end = self.end if self.end is not None else self.tracer._now()
        return end - self.start

    # -- lifecycle -------------------------------------------------------
    def close(self, error: str | None = None) -> "Span":
        """Close this span (idempotent), closing open descendants first."""
        if self.end is None:
            if error is not None:
                self.error = error
            self.tracer._close(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None and self.error is None:
            self.error = f"{exc_type.__name__}: {exc}"
        self.close()
        return False

    # -- export ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Wire/JSON form of this span (times relative to the tracer epoch)."""
        record: dict[str, Any] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": (self.end - self.start) if self.end is not None else None,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        if self.error is not None:
            record["error"] = self.error
        if self.end is None:
            record["open"] = True
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration * 1e3:.3f}ms"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class Tracer:
    """Per-session span recorder over the shared clock.

    Parameters
    ----------
    capacity:
        Ring-buffer size for *closed* spans; the oldest are dropped (and
        counted in :attr:`dropped`) once it fills.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = capacity
        self.epoch = clock.now()
        self._closed: deque[Span] = deque()
        self._stack: list[Span] = []
        self._next_id = 1
        self.started = 0  # spans ever opened
        self.dropped = 0  # closed spans evicted by the ring buffer

    # -- time ------------------------------------------------------------
    def _now(self) -> float:
        """Seconds since this tracer's epoch (shared clock)."""
        return clock.now() - self.epoch

    # -- span creation ----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the current one; use as ``with``."""
        return self.start(name, **attrs)

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span for manual :meth:`Span.close` (multi-call phases)."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, self._next_id, parent, name, self._now(), attrs)
        self._next_id += 1
        self.started += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        """Pop ``span`` (and any still-open descendants) off the stack."""
        if span not in self._stack:  # already force-closed by an ancestor
            return
        while self._stack:
            top = self._stack.pop()
            if top is not span and top.end is None:
                # A descendant left open (caller skipped its close, e.g.
                # an exception unwound past it): close it here so the
                # exported tree stays balanced.
                top.end = self._now()
                top.attrs.setdefault("truncated", True)
                self._record(top)
            if top is span:
                break
        span.end = self._now()
        self._record(span)

    def _record(self, span: Span) -> None:
        if len(self._closed) >= self.capacity:
            self._closed.popleft()
            self.dropped += 1
        self._closed.append(span)

    # -- lifecycle ---------------------------------------------------------
    @property
    def open_depth(self) -> int:
        """How many spans are currently open (0 = balanced)."""
        return len(self._stack)

    def finish(self, error: str | None = None) -> int:
        """Force-close every open span (innermost first); returns count."""
        closed = 0
        while self._stack:
            span = self._stack[-1]
            if error is not None and span.error is None:
                span.error = error
            span.close()
            closed += 1
        return closed

    # -- export ------------------------------------------------------------
    def spans(self) -> Iterator[Span]:
        """Closed spans (oldest first), then still-open ones."""
        yield from self._closed
        yield from self._stack

    def export(self, include_open: bool = True) -> list[dict[str, Any]]:
        """All spans as JSON-ready records, ordered by start time."""
        source = self.spans() if include_open else iter(self._closed)
        return sorted(
            (s.to_dict() for s in source), key=lambda r: (r["start"], r["span_id"])
        )

    def clear(self) -> None:
        """Drop every recorded span (open spans are abandoned too)."""
        self._closed.clear()
        self._stack.clear()


class _NullSpan:
    """Shared do-nothing span: the entire cost of disabled tracing."""

    __slots__ = ()
    open = False
    duration = 0.0
    error = None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def close(self, error: str | None = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def to_dict(self) -> dict[str, Any]:
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op returning the shared span."""

    enabled = False
    capacity = 0
    epoch = 0.0
    started = 0
    dropped = 0
    open_depth = 0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def start(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, error: str | None = None) -> int:
        return 0

    def spans(self) -> Iterator[Span]:
        return iter(())

    def export(self, include_open: bool = True) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass


#: The process-wide disabled tracer; the default on every engine.
NULL_TRACER = NullTracer()
