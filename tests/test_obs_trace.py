"""Tests for :mod:`repro.obs.trace` and :mod:`repro.obs.export`.

The tracer's contract is structural: spans nest under whatever is open,
every exit path closes them (balanced forest), the ring buffer bounds
memory, and all timing comes off the shared :mod:`repro.obs.clock` so a
single monkeypatch makes durations deterministic.
"""

import pytest

from repro.obs import clock, export
from repro.obs.trace import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)


@pytest.fixture()
def fake_clock(monkeypatch):
    """A controllable clock: ``tick(dt)`` advances every obs timestamp."""

    class FakeClock:
        def __init__(self):
            self.t = 100.0

        def tick(self, dt=1.0):
            self.t += dt

        def __call__(self):
            return self.t

    fake = FakeClock()
    monkeypatch.setattr(clock, "monotonic", fake)
    return fake


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == parent.span_id

    def test_sequential_roots_form_a_forest(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        roots = [s for s in tracer.spans() if s.parent_id is None]
        assert [s.name for s in roots] == ["first", "second"]

    def test_start_allows_manual_multi_call_phases(self):
        tracer = Tracer()
        phase = tracer.start("phase")
        with tracer.span("step"):
            pass
        assert tracer.open_depth == 1
        phase.close()
        assert tracer.open_depth == 0
        assert not phase.open

    def test_attrs_set_and_chainable(self):
        tracer = Tracer()
        span = tracer.start("s", a=1).set(b=2).set(a=3)
        span.close()
        record = span.to_dict()
        assert record["attrs"] == {"a": 3, "b": 2}


class TestBalancedClose:
    def test_with_block_closes_on_exception_and_records_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert not span.open
        assert span.error == "RuntimeError: boom"

    def test_parent_close_truncates_open_descendants(self):
        tracer = Tracer()
        parent = tracer.start("parent")
        child = tracer.start("child")
        inner = tracer.start("inner")
        parent.close()
        assert tracer.open_depth == 0
        assert not child.open and not inner.open
        assert child.attrs["truncated"] is True
        assert inner.attrs["truncated"] is True
        assert "truncated" not in parent.attrs

    def test_close_is_idempotent(self, fake_clock):
        tracer = Tracer()
        span = tracer.start("s")
        fake_clock.tick(1.0)
        span.close()
        end = span.end
        fake_clock.tick(5.0)
        span.close(error="late")
        assert span.end == end
        assert span.error is None  # close-after-close changes nothing

    def test_finish_closes_everything_and_reports_count(self):
        tracer = Tracer()
        tracer.start("a")
        tracer.start("b")
        tracer.start("c")
        assert tracer.finish(error="teardown") == 3
        assert tracer.open_depth == 0
        assert all(s.error == "teardown" for s in tracer.spans())
        assert tracer.finish() == 0  # idempotent


class TestTiming:
    def test_durations_come_from_the_shared_clock(self, fake_clock):
        tracer = Tracer()
        span = tracer.start("timed")
        fake_clock.tick(2.5)
        span.close()
        assert span.duration == pytest.approx(2.5)
        assert span.start == pytest.approx(0.0)  # relative to tracer epoch

    def test_open_span_duration_reads_now(self, fake_clock):
        tracer = Tracer()
        span = tracer.start("open")
        fake_clock.tick(1.5)
        assert span.open
        assert span.duration == pytest.approx(1.5)


class TestRingBuffer:
    def test_oldest_closed_spans_are_dropped(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["s2", "s3", "s4"]
        assert tracer.dropped == 2
        assert tracer.started == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestExport:
    def test_export_is_sorted_and_json_ready(self, fake_clock):
        import json

        tracer = Tracer()
        with tracer.span("a"):
            fake_clock.tick()
            with tracer.span("b"):
                fake_clock.tick()
        records = tracer.export()
        assert [r["name"] for r in records] == ["a", "b"]
        assert all(r["duration"] is not None for r in records)
        json.dumps(records)  # must not raise

    def test_export_can_exclude_open_spans(self):
        tracer = Tracer()
        tracer.start("open")
        with tracer.span("closed"):
            pass
        assert [r["name"] for r in tracer.export(include_open=False)] == ["closed"]
        full = tracer.export(include_open=True)
        assert {r["name"] for r in full} == {"open", "closed"}
        (open_rec,) = [r for r in full if r["name"] == "open"]
        assert open_rec["open"] is True and open_rec["end"] is None

    def test_clear_forgets_everything(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.export() == []


class TestNullTracer:
    def test_is_the_default_and_disabled(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True

    def test_all_operations_are_noops(self):
        span = NULL_TRACER.span("anything", x=1)
        assert span.set(y=2) is span
        assert span.close() is span
        with NULL_TRACER.span("ctx"):
            pass
        assert NULL_TRACER.finish() == 0
        assert list(NULL_TRACER.spans()) == []
        assert NULL_TRACER.export() == []
        NULL_TRACER.clear()

    def test_span_object_is_shared(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def _session_like_records(fake_clock):
    """A miniature blended-session trace with known durations."""
    tracer = Tracer()
    root = tracer.start("session", strategy="DI")
    form = tracer.start("phase.formulation")
    with tracer.span("action.new_vertex", vertex=0):
        with tracer.span("cap.add_level", vertex=0):
            fake_clock.tick(1.0)
    with tracer.span("action.new_edge", edge="(0, 1)"):
        with tracer.span("cap.process_edge", edge="(0, 1)"):
            fake_clock.tick(2.0)
    form.close()
    run = tracer.start("phase.run")
    with tracer.span("run.drain"):
        fake_clock.tick(0.5)
    with tracer.span("run.enumerate"):
        fake_clock.tick(1.5)
    run.close()
    root.close()
    with tracer.span("result.visualize"):
        fake_clock.tick(0.25)
    return tracer.export()


class TestExportHelpers:
    def test_spans_to_tree_nests_by_parent(self, fake_clock):
        records = _session_like_records(fake_clock)
        roots = export.spans_to_tree(records)
        assert [r["name"] for r in roots] == ["session", "result.visualize"]
        session = roots[0]
        assert [c["name"] for c in session["children"]] == [
            "phase.formulation",
            "phase.run",
        ]

    def test_orphaned_spans_become_roots(self):
        records = [
            {"span_id": 7, "parent_id": 99, "name": "orphan", "start": 0.0, "end": 1.0}
        ]
        roots = export.spans_to_tree(records)
        assert [r["name"] for r in roots] == ["orphan"]

    def test_summarize_counts_and_balance(self, fake_clock):
        records = _session_like_records(fake_clock)
        summary = export.summarize(records)
        assert summary["spans"] == len(records) == 10
        assert summary["open"] == 0
        assert summary["errors"] == 0
        assert summary["balanced"] is True
        assert summary["by_name"]["cap.process_edge"]["count"] == 1

    def test_srt_decomposition_recovers_phase_times(self, fake_clock):
        records = _session_like_records(fake_clock)
        decomp = export.srt_decomposition(records)
        assert decomp["srt"] == pytest.approx(2.0)  # drain + enumerate
        assert decomp["cap_construction"] == pytest.approx(3.0)  # edge + level
        assert decomp["formulation"] == pytest.approx(3.0)
        assert decomp["visualize"] == pytest.approx(0.25)
        assert decomp["session"] == pytest.approx(5.0)
        # Phases tile the root: formulation + run == session duration.
        assert decomp["phase_coverage"] == pytest.approx(1.0)

    def test_render_tree_shows_nesting_and_durations(self, fake_clock):
        records = _session_like_records(fake_clock)
        text = export.render_tree(records)
        lines = text.splitlines()
        assert lines[0].startswith("session")
        assert any(line.startswith("  phase.run") for line in lines)
        assert any("run.enumerate" in line for line in lines)

    def test_render_tree_elides_excess_siblings(self):
        records = [
            {"span_id": 1, "parent_id": None, "name": "root", "start": 0.0, "end": 9.0}
        ]
        records += [
            {
                "span_id": i + 2,
                "parent_id": 1,
                "name": f"child{i}",
                "start": float(i),
                "end": float(i) + 0.5,
            }
            for i in range(50)
        ]
        text = export.render_tree(records, max_children=5)
        assert "more" in text  # elision marker
        assert "child49" not in text


class TestSharedClock:
    def test_default_capacity_constant(self):
        assert Tracer().capacity == DEFAULT_CAPACITY

    def test_timing_module_shares_the_clock(self, fake_clock):
        """One monkeypatch moves spans AND Stopwatch: the satellite fix."""
        from repro.utils.timing import Stopwatch

        tracer = Tracer()
        span = tracer.start("work")
        watch = Stopwatch().start()
        fake_clock.tick(4.0)
        span.close()
        assert watch.stop() == pytest.approx(span.duration) == pytest.approx(4.0)

    def test_span_is_only_created_by_tracer(self):
        tracer = Tracer()
        span = tracer.start("s")
        assert isinstance(span, Span)
        span.close()
