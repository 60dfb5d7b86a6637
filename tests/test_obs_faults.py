"""Span correctness for full blended sessions — healthy and failed.

* a full blended session produces a span tree whose root duration is the
  sum of its phase children within tolerance, and the SRT / CAP-build
  time are recoverable from the spans alone;
* a session whose Run fails (a blown deadline) still emits a *balanced*
  span tree (no orphaned open spans), the error on the spans it ended.
"""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.errors import DeadlineExceededError
from repro.gui.session import VisualSession
from repro.obs import export
from repro.obs.trace import Tracer
from tests.conftest import build_fig2_graph


@pytest.fixture(scope="module")
def pre():
    return preprocess(build_fig2_graph(), t_avg_samples=100)


def triangle_actions():
    return [
        NewVertex(0, "A", latency_after=0.002),
        NewVertex(1, "B", latency_after=0.002),
        NewEdge(0, 1, 1, 1, latency_after=0.002),
        NewVertex(2, "C", latency_after=0.002),
        NewEdge(1, 2, 1, 2, latency_after=0.002),
        NewEdge(0, 2, 1, 3, latency_after=0.002),
        Run(),
    ]


def run_traced(pre, *, strategy="DI"):
    tracer = Tracer()
    session = VisualSession(make_context(pre), tracer=tracer)
    result = session.run_actions(triangle_actions(), strategy=strategy)
    return result, tracer.export()


def span_names(records):
    return [r["name"] for r in records]


class TestHealthySessionSpans:
    def test_root_duration_equals_sum_of_phase_children(self, pre):
        result, records = run_traced(pre)
        decomp = export.srt_decomposition(records)
        assert decomp["runs"] == 1
        # The phases tile the session root within 5% tolerance: the only
        # uncovered time is the bookkeeping between span open/close calls.
        assert decomp["phase_coverage"] == pytest.approx(1.0, abs=0.05)
        assert decomp["session"] == pytest.approx(
            decomp["formulation"] + decomp["srt"], rel=0.05
        )

    def test_srt_and_cap_time_recoverable_from_spans_alone(self, pre):
        result, records = run_traced(pre)
        decomp = export.srt_decomposition(records)
        # Span-derived totals agree with the engine's own accounting.
        # Spans add per-span clock-read overhead to the engine-internal
        # numbers, so the match is loose but the magnitude must be right.
        assert decomp["srt"] == pytest.approx(
            result.run.srt_seconds, rel=0.5, abs=2e-3
        )
        assert decomp["cap_construction"] == pytest.approx(
            result.cap_construction_seconds, rel=0.5, abs=2e-3
        )
        assert decomp["cap_construction"] > 0.0
        assert decomp["edges_processed"] == 3

    def test_tree_shape_and_balance(self, pre):
        result, records = run_traced(pre)
        summary = export.summarize(records)
        assert summary["balanced"] is True
        assert summary["errors"] == 0
        roots = export.spans_to_tree(records)
        assert roots[0]["name"] == export.SESSION
        phases = [c["name"] for c in roots[0]["children"]]
        assert phases == [export.PHASE_FORMULATION, export.PHASE_RUN]
        # Every formulation child is an action span.
        form = roots[0]["children"][0]
        assert form["children"]
        assert all(
            c["name"].startswith(export.ACTION_PREFIX) for c in form["children"]
        )

    def test_visualize_spans_follow_the_root(self, pre):
        result, records = run_traced(pre)
        assert export.RESULT_VISUALIZE not in span_names(records)
        result.boomer.visualize(result.run.matches.matches[0])
        records = result.boomer.tracer.export()
        assert export.RESULT_VISUALIZE in span_names(records)
        (viz,) = [r for r in records if r["name"] == export.RESULT_VISUALIZE]
        assert viz["parent_id"] is None  # post-root top-level span

    def test_every_strategy_emits_the_same_taxonomy(self, pre):
        for strategy in ("IC", "DR", "DI"):
            result, records = run_traced(pre, strategy=strategy)
            names = set(span_names(records))
            assert export.SESSION in names
            assert export.PHASE_FORMULATION in names
            assert export.PHASE_RUN in names
            assert export.RUN_ENUMERATE in names
            assert export.summarize(records)["balanced"] is True


class TestFaultedSessionSpans:
    def test_terminal_failure_closes_spans_with_the_error(self, pre):
        """A Run past its deadline raises: the run phase and the session
        root close with the error, and the forest is balanced."""
        tracer = Tracer()
        boomer = Boomer(
            make_context(pre), strategy="DR", deadline_seconds=0.0, tracer=tracer
        )
        with pytest.raises(DeadlineExceededError):
            for action in triangle_actions():
                boomer.apply(action)
        records = tracer.export()
        summary = export.summarize(records)
        assert summary["balanced"] is True
        assert summary["open"] == 0
        (run,) = [r for r in records if r["name"] == export.PHASE_RUN]
        assert "DeadlineExceededError" in run["error"]
        (root,) = [r for r in records if r["name"] == export.SESSION]
        assert root["error"] == run["error"]
        assert not any(
            r.get("error") for r in records if r["name"].startswith(export.ACTION_PREFIX)
        )


class TestServiceTraceUnderFaults:
    def test_managed_session_trace_is_balanced_after_close(self, pre):
        from repro.service.manager import SessionManager

        manager = SessionManager(make_context(pre))
        session = manager.create_session(strategy="DI")
        for action in triangle_actions()[:-1]:
            manager.apply_action(session.id, action)
        manager.run(session.id)
        payload = manager.trace(session.id)
        assert payload["enabled"] is True
        assert payload["summary"]["balanced"] is True
        assert payload["decomposition"]["runs"] == 1
        manager.close_session(session.id)
