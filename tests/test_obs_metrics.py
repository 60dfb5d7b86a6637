"""Tests for :mod:`repro.obs.metrics`: instruments, registry, exposition.

The registry is process-wide state, so every test here builds its own
:class:`MetricsRegistry` — the shared module-level ``metrics`` object is
only touched to assert it exists and is separate.
"""

import json
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics,
    record_run_counters,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        assert reg.counter("x_total", op="a") is not reg.counter("x_total", op="b")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(TypeError):
            reg.gauge("thing")
        with pytest.raises(TypeError):
            reg.histogram("thing")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("open_sessions")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = MetricsRegistry().histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        snap = h._snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.555)
        # Prometheus semantics: each bucket counts everything <= its bound.
        assert snap["buckets"]["0.01"] == 1
        assert snap["buckets"]["0.1"] == 2
        assert snap["buckets"]["1"] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_inf_bucket_appended_when_missing(self):
        h = MetricsRegistry().histogram("h_seconds", buckets=(1.0,))
        assert h.buckets[-1] == float("inf")

    def test_default_buckets_cover_service_latencies(self):
        assert DEFAULT_BUCKETS[0] <= 0.001
        assert DEFAULT_BUCKETS[-1] == float("inf")


class TestRegistryExport:
    def test_snapshot_is_flat_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("a_total", op="run").inc(2)
        reg.gauge("b").set(7)
        reg.histogram("c_seconds").observe(0.3)
        snap = reg.snapshot()
        assert snap['a_total{op="run"}'] == 2
        assert snap["b"] == 7
        assert snap["c_seconds"]["count"] == 1
        json.dumps(snap)  # must not raise

    def test_delta_diffs_counters_and_histogram_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("a_total")
        h = reg.histogram("c_seconds")
        c.inc(3)
        h.observe(0.1)
        before = reg.snapshot()
        c.inc(4)
        h.observe(0.2)
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["a_total"] == 4
        assert d["c_seconds"]["count"] == 1
        assert d["c_seconds"]["sum"] == pytest.approx(0.2)

    def test_delta_counts_new_series_from_zero(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("fresh_total").inc(9)
        assert MetricsRegistry.delta(before, reg.snapshot())["fresh_total"] == 9

    def test_render_text_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests served", op="ping").inc(2)
        reg.histogram("lat_seconds", "latency", buckets=(1.0,), op="ping").observe(0.5)
        text = reg.render_text()
        assert "# HELP req_total requests served" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="ping"} 2' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="1",op="ping"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf",op="ping"} 1' in text
        assert 'lat_seconds_count{op="ping"} 1' in text
        assert text.endswith("\n")

    def test_render_text_empty_registry(self):
        assert MetricsRegistry().render_text() == ""

    def test_reset_forgets_everything(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc()
        reg.reset()
        assert reg.snapshot() == {}

    def test_concurrent_increments_do_not_lose_updates(self):
        reg = MetricsRegistry()
        c = reg.counter("races_total")

        def hammer():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestRecordRunCounters:
    COUNTERS = {
        "distance_queries": 40,
        "edges_processed": 3,
        "edges_deferred": 1,
        "pool_probes": 2,
        "pairs_added": 12,
    }

    def test_folds_engine_counters_into_registry(self):
        reg = MetricsRegistry()
        record_run_counters(
            self.COUNTERS,
            srt_seconds=0.25,
            cap_construction_seconds=0.1,
            outcome="ok",
            registry=reg,
        )
        snap = reg.snapshot()
        assert snap["repro_oracle_calls_total"] == 40
        assert snap["repro_cap_edges_processed_total"] == 3
        assert snap["repro_cap_edges_deferred_total"] == 1
        assert snap["repro_pool_probes_total"] == 2
        assert snap["repro_cap_pairs_added_total"] == 12
        assert snap['repro_runs_total{outcome="ok"}'] == 1
        assert snap["repro_run_srt_seconds"]["count"] == 1
        assert snap["repro_cap_construction_seconds"]["count"] == 1

    def test_failed_run_records_its_outcome(self):
        reg = MetricsRegistry()
        record_run_counters(
            self.COUNTERS,
            srt_seconds=1.0,
            cap_construction_seconds=0.0,
            outcome="failed",
            registry=reg,
        )
        snap = reg.snapshot()
        assert snap['repro_runs_total{outcome="failed"}'] == 1
        assert 'repro_runs_total{outcome="ok"}' not in snap

    def test_defaults_to_the_process_registry(self):
        before = metrics.snapshot()
        record_run_counters(
            {}, srt_seconds=0.0, cap_construction_seconds=0.0, outcome="ok"
        )
        d = MetricsRegistry.delta(before, metrics.snapshot())
        assert d['repro_runs_total{outcome="ok"}'] == 1


class TestInstrumentClasses:
    def test_kinds(self):
        assert Counter.kind == "counter"
        assert Gauge.kind == "gauge"
        assert Histogram.kind == "histogram"

    def test_module_registry_is_a_registry(self):
        assert isinstance(metrics, MetricsRegistry)
