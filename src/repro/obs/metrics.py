"""Process-wide metrics: counters, gauges, histograms, text exposition.

One :class:`MetricsRegistry` per process (the module-level
:data:`metrics`) aggregates what every session, server thread, and
scheduler does: oracle calls, CAP entries, deferral decisions,
evictions, per-verb service latency.  The
registry is deliberately tiny and dependency-free:

* metrics are named like Prometheus series (``repro_oracle_calls_total``)
  with optional labels (``op="run"``) — one instrument per
  (name, labels) pair, created on first use and cached;
* updates are a single lock-guarded float add (``+=`` is not atomic
  across Python bytecode boundaries, and one server hosts many
  threads), cheap enough for per-request use.  The engine's *per-probe*
  hot path never touches the registry — :class:`EngineCounters` stay
  lock-free and are folded in once per Run
  (see :func:`record_run_counters`);
* :meth:`MetricsRegistry.snapshot` returns a plain dict,
  :meth:`MetricsRegistry.delta` diffs two snapshots (what benchmarks
  and the harness consume), and :meth:`MetricsRegistry.render_text`
  emits the Prometheus text exposition format for scrapers and the
  ``metrics`` service verb.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "record_run_counters",
    "DEFAULT_BUCKETS",
]

#: Histogram bucket upper bounds (seconds) tuned for service latencies:
#: sub-millisecond pings through multi-second Runs.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, float("inf"),
)


def _series_key(name: str, labels: Mapping[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> float:
        return self.value

    def _render(self, key: str) -> list[str]:
        return [f"{key} {_fmt(self.value)}"]


class Gauge:
    """A value that can go up and down (open sessions, CAP entries)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: Mapping[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _snapshot(self) -> float:
        return self.value

    def _render(self, key: str) -> list[str]:
        return [f"{key} {_fmt(self.value)}"]


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: Mapping[str, str],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or buckets[-1] != float("inf"):
            buckets = tuple(buckets) + (float("inf"),)
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation (e.g. a request latency in seconds)."""
        with self._lock:
            self._sum += value
            self._count += 1
            for i, upper in enumerate(self.buckets):
                if value <= upper:
                    self._counts[i] += 1
                    break

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _snapshot(self) -> dict[str, Any]:
        with self._lock:
            cumulative, running = [], 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return {
                "count": self._count,
                "sum": self._sum,
                "buckets": {
                    _le(upper): cum for upper, cum in zip(self.buckets, cumulative)
                },
            }

    def _render(self, key: str) -> list[str]:
        snap = self._snapshot()
        base, labels = self.name, self.labels
        lines = []
        for le, cum in snap["buckets"].items():
            lines.append(
                f"{_series_key(base + '_bucket', {**labels, 'le': le})} {cum}"
            )
        lines.append(f"{_series_key(base + '_sum', labels)} {_fmt(snap['sum'])}")
        lines.append(f"{_series_key(base + '_count', labels)} {snap['count']}")
        return lines


def _le(upper: float) -> str:
    return "+Inf" if upper == float("inf") else _fmt(upper)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named instruments with cheap atomic updates and snapshot export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[str, Counter | Gauge | Histogram] = {}
        self._help: dict[str, str] = {}

    # -- instrument access (get-or-create) -------------------------------
    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = _series_key(name, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = Histogram(name, labels, buckets=buckets)
                self._register(key, name, help, series)
            elif not isinstance(series, Histogram):
                raise TypeError(f"{key} is a {series.kind}, not a histogram")
            return series

    def _get(self, cls, name: str, help: str, labels: Mapping[str, str]):
        key = _series_key(name, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = cls(name, labels)
                self._register(key, name, help, series)
            elif not isinstance(series, cls):
                raise TypeError(f"{key} is a {series.kind}, not a {cls.kind}")
            return series

    def _register(self, key: str, name: str, help: str, series) -> None:
        self._series[key] = series
        if help and name not in self._help:
            self._help[name] = help

    # -- export ----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Every series as a flat ``{series_key: value}`` dict.

        Counter/gauge values are numbers; histograms are
        ``{count, sum, buckets}`` dicts.  JSON-ready.
        """
        with self._lock:
            series = dict(self._series)
        return {key: s._snapshot() for key, s in sorted(series.items())}

    @staticmethod
    def delta(
        before: Mapping[str, Any], after: Mapping[str, Any]
    ) -> dict[str, Any]:
        """``after - before`` for numeric series and histogram counts.

        Series absent from ``before`` count from zero; gauges diff like
        counters (the caller knows which is which by name).
        """
        out: dict[str, Any] = {}
        for key, value in after.items():
            prior = before.get(key)
            if isinstance(value, dict):
                prior = prior if isinstance(prior, dict) else {}
                out[key] = {
                    "count": value["count"] - prior.get("count", 0),
                    "sum": value["sum"] - prior.get("sum", 0.0),
                }
            else:
                out[key] = value - (prior if isinstance(prior, (int, float)) else 0)
        return out

    def render_text(self) -> str:
        """Prometheus text exposition format (``# TYPE`` + samples)."""
        with self._lock:
            series = dict(self._series)
            helps = dict(self._help)
        by_name: dict[str, list[tuple[str, Counter | Gauge | Histogram]]] = {}
        for key, s in sorted(series.items()):
            by_name.setdefault(s.name, []).append((key, s))
        lines: list[str] = []
        for name, group in sorted(by_name.items()):
            if name in helps:
                lines.append(f"# HELP {name} {helps[name]}")
            lines.append(f"# TYPE {name} {group[0][1].kind}")
            for key, s in group:
                lines.extend(s._render(key))
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Forget every series (tests and bench isolation)."""
        with self._lock:
            self._series.clear()
            self._help.clear()


#: The process-wide registry (what the service ``metrics`` verb exports).
metrics = MetricsRegistry()


def record_run_counters(
    counters: Mapping[str, int],
    srt_seconds: float,
    cap_construction_seconds: float,
    outcome: str,
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold one completed Run's engine counters into the registry.

    Called once per Run by the blender, so the per-probe hot path (tens
    of thousands of oracle calls) costs zero registry locks; the
    aggregate still lands in ``repro_oracle_calls_total`` et al.
    """
    reg = registry if registry is not None else metrics
    reg.counter(
        "repro_oracle_calls_total", "distance-oracle queries issued"
    ).inc(counters.get("distance_queries", 0))
    reg.counter(
        "repro_oracle_python_calls_total",
        "interpreter-level oracle invocations (a batched kernel call "
        "answering many distances counts once)",
    ).inc(counters.get("oracle_calls", 0))
    reg.counter(
        "repro_cap_edges_processed_total", "query edges processed into the CAP"
    ).inc(counters.get("edges_processed", 0))
    reg.counter(
        "repro_cap_edges_deferred_total", "edges parked in the pool (Defer decisions)"
    ).inc(counters.get("edges_deferred", 0))
    reg.counter(
        "repro_pool_probes_total", "idle-window pool probes (Algorithm 10)"
    ).inc(counters.get("pool_probes", 0))
    reg.counter(
        "repro_cap_pairs_added_total", "AIVS pairs materialized"
    ).inc(counters.get("pairs_added", 0))
    reg.counter(
        "repro_enum_dfs_steps_total", "V_delta DFS frames popped"
    ).inc(counters.get("dfs_steps", 0))
    reg.counter(
        "repro_enum_rows_expanded_total", "V_delta partial rows expanded, over all depths"
    ).inc(counters.get("rows_expanded", 0))
    reg.counter(
        "repro_runs_total", "Run clicks by outcome", outcome=outcome
    ).inc()
    reg.histogram(
        "repro_run_srt_seconds", "engine-side SRT per Run"
    ).observe(srt_seconds)
    reg.histogram(
        "repro_cap_construction_seconds", "total CAP build time per Run"
    ).observe(cap_construction_seconds)
