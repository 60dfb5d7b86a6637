"""Timing primitives.

The blended querying paradigm is all about *budgeted* computation: a query
edge may only be processed if its estimated cost fits inside the GUI latency
that the user's next action will provide.  Two small primitives support this
throughout the code base:

* :class:`Stopwatch` — an accumulating timer used to measure CAP construction
  time, SRT, and per-phase costs.
* :class:`TimeBudget` — a countdown used by the Defer-to-Idle strategy's
  pool probing (Algorithm 10 in the paper) to stop draining the edge pool
  once the idle window is exhausted.
* :class:`Deadline` — a :class:`TimeBudget` whose :meth:`~Deadline.checkpoint`
  raises once it is spent: the Run deadline, checked between CAP edges
  and between enumeration chunks.

Both read the process-wide clock in :mod:`repro.obs.clock` at call time —
the same source span timestamps use — so stopwatch accumulators, deadline
accounting, and trace timelines can never skew against each other.
Monkeypatch ``repro.obs.clock.monotonic`` to move all of them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeadlineExceededError
from repro.obs import clock


@dataclass
class Stopwatch:
    """Accumulating stopwatch.

    >>> sw = Stopwatch()
    >>> sw.start(); _ = sum(range(1000)); sw.stop()
    >>> sw.elapsed >= 0.0
    True

    The stopwatch may be started and stopped repeatedly; ``elapsed``
    accumulates across runs.  Use :meth:`reset` to zero it.
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Stopwatch":
        """Start (or resume) the stopwatch.  Idempotent while running."""
        if self._started_at is None:
            self._started_at = clock.now()
        return self

    def stop(self) -> float:
        """Stop the stopwatch and return total elapsed seconds."""
        if self._started_at is not None:
            self.elapsed += clock.now() - self._started_at
            self._started_at = None
        return self.elapsed

    def reset(self) -> None:
        """Zero the accumulated time and stop the watch."""
        self.elapsed = 0.0
        self._started_at = None

    @property
    def running(self) -> bool:
        """True while the stopwatch is started."""
        return self._started_at is not None

    def read(self) -> float:
        """Return elapsed time including the current run, without stopping."""
        if self._started_at is None:
            return self.elapsed
        return self.elapsed + (clock.now() - self._started_at)

    def __enter__(self) -> "Stopwatch":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class TimeBudget:
    """Countdown budget over wall-clock time.

    ``TimeBudget(0.5)`` grants half a second; :meth:`remaining` shrinks as
    real time passes and :attr:`exhausted` flips once it reaches zero.  A
    non-positive initial budget is exhausted immediately, and ``None`` means
    *unlimited* (used by tests and by Defer-to-Run pool drain, which runs to
    completion regardless of latency).
    """

    def __init__(self, seconds: float | None) -> None:
        self._limit = seconds
        self._start = clock.now()

    @property
    def limit(self) -> float | None:
        """The initially granted budget in seconds (``None`` = unlimited)."""
        return self._limit

    def remaining(self) -> float:
        """Seconds left; ``float('inf')`` when unlimited; never negative."""
        if self._limit is None:
            return float("inf")
        left = self._limit - (clock.now() - self._start)
        return left if left > 0.0 else 0.0

    @property
    def exhausted(self) -> bool:
        """True once no budget remains."""
        return self.remaining() <= 0.0

    def can_afford(self, estimated_cost: float) -> bool:
        """True if ``estimated_cost`` seconds fit within the remaining budget."""
        return estimated_cost <= self.remaining()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeBudget(limit={self._limit}, remaining={self.remaining():.4f})"


class Deadline(TimeBudget):
    """A :class:`TimeBudget` that cancels the loops that check it.

    >>> Deadline(None).checkpoint("drain")     # unlimited: a no-op
    >>> Deadline(0.0).exhausted
    True

    Cancellation is cooperative: the Run phase checks the deadline
    between pooled edges and between enumeration chunks, never inside
    ``process_edge``, so a :class:`~repro.errors.DeadlineExceededError`
    leaves the CAP index consistent.  ``label`` names the phase when a
    checkpoint gives no context of its own.
    """

    def __init__(self, seconds: float | None, label: str = "operation") -> None:
        super().__init__(seconds)
        self.label = label

    def checkpoint(self, context: str | None = None) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        if self.limit is not None and self.exhausted:
            raise DeadlineExceededError(context or self.label, limit=self.limit)
