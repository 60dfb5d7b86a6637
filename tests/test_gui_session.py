"""Tests for the end-to-end visual session (hybrid timeline)."""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.cost import GUILatencyConstants
from repro.core.preprocessor import make_context
from repro.errors import SessionError
from repro.gui.session import VisualSession
from repro.workload.generator import instantiate
from tests.conftest import build_fig2_graph


@pytest.fixture()
def session(fig2_pre):
    latency = GUILatencyConstants().scaled(0.001)
    return VisualSession(make_context(fig2_pre, latency=latency), latency)


@pytest.fixture()
def q1_instance():
    return instantiate("Q1", build_fig2_graph(), seed=1)


class TestRun:
    def test_produces_metrics(self, session, q1_instance):
        result = session.run(q1_instance, strategy="DI")
        assert result.strategy == "DI"
        assert result.num_matches >= 0
        assert result.srt_seconds >= result.run.srt_seconds
        assert result.simulated_qft_seconds > 0
        assert result.cap_size > 0
        assert result.cap_peak_size >= result.cap_size

    def test_strategies_agree_on_matches(self, session, q1_instance):
        keys = []
        for strategy in ("IC", "DR", "DI"):
            result = session.run(q1_instance, strategy=strategy)
            keys.append(
                frozenset(
                    tuple(sorted(m.items())) for m in result.run.matches
                )
            )
        assert keys[0] == keys[1] == keys[2]

    def test_backlog_nonnegative(self, session, q1_instance):
        result = session.run(q1_instance, strategy="IC")
        assert result.backlog_seconds >= 0.0
        assert result.formulation_busy_seconds >= 0.0

    def test_edge_order_parameter(self, session, q1_instance):
        a = session.run(q1_instance, strategy="IC", edge_order=(1, 2, 3))
        b = session.run(q1_instance, strategy="IC", edge_order=(3, 2, 1))
        key = lambda r: {tuple(sorted(m.items())) for m in r.run.matches}
        assert key(a) == key(b)

    def test_counters_reset_between_runs(self, session, q1_instance):
        first = session.run(q1_instance, strategy="IC")
        second = session.run(q1_instance, strategy="IC")
        assert (
            first.run.counters["edges_processed"]
            == second.run.counters["edges_processed"]
        )

    def test_pruning_flag(self, session, q1_instance):
        pruned = session.run(q1_instance, strategy="IC", pruning=True)
        unpruned = session.run(q1_instance, strategy="IC", pruning=False)
        assert unpruned.cap_size >= pruned.cap_size
        key = lambda r: {tuple(sorted(m.items())) for m in r.run.matches}
        assert key(pruned) == key(unpruned)

    def test_max_results(self, session, q1_instance):
        result = session.run(q1_instance, strategy="IC", max_results=1)
        assert result.num_matches <= 1


class TestRunActions:
    def test_adhoc_actions(self, session):
        actions = [
            NewVertex(0, "A", latency_after=0.001),
            NewVertex(1, "B", latency_after=0.001),
            NewEdge(0, 1, 1, 1, latency_after=0.001),
            Run(),
        ]
        result = session.run_actions(actions, instance_name="adhoc")
        assert result.instance_name == "adhoc"
        assert result.num_matches > 0

    def test_missing_run_rejected(self, session):
        with pytest.raises(SessionError):
            session.run_actions([NewVertex(0, "A")])

    def test_empty_rejected(self, session):
        with pytest.raises(SessionError):
            session.run_actions([])


class TestTimelineModel:
    def test_backlog_when_compute_exceeds_latency(self, fig2_pre):
        # Engine compute (real ms) dwarfs the micro latencies -> backlog.
        latency = GUILatencyConstants().scaled(1e-7)
        session = VisualSession(make_context(fig2_pre, latency=latency), latency)
        instance = instantiate("Q1", build_fig2_graph(), seed=1)
        result = session.run(instance, strategy="IC")
        assert result.backlog_seconds > 0

    def test_no_backlog_with_huge_latency(self, fig2_pre):
        latency = GUILatencyConstants().scaled(100.0)
        session = VisualSession(make_context(fig2_pre, latency=latency), latency)
        instance = instantiate("Q1", build_fig2_graph(), seed=1)
        result = session.run(instance, strategy="IC")
        assert result.backlog_seconds == 0.0

    @pytest.mark.parametrize("perturb", ["drop", "spike", "mixed"])
    def test_dropped_and_spiked_windows_keep_the_books(
        self, session, q1_instance, monkeypatch, perturb
    ):
        """Steps whose latency collapses to 0 (no idle window at all) and
        steps 10x longer than the model's (a frozen UI thread) change
        neither the answer nor the timeline's books, and the DI probe only
        ever sees a positive window."""
        from dataclasses import replace

        from repro.core.blender import Boomer

        actions = session.user.formulate(q1_instance)

        def perturbed(index, action):
            if action.latency_after is None:
                return action
            if perturb == "drop" or (perturb == "mixed" and index % 2 == 0):
                return replace(action, latency_after=0.0)
            return replace(action, latency_after=action.latency_after * 10)

        windows = []
        probe_idle = Boomer.probe_idle

        def recording_probe(self, idle_seconds):
            windows.append(idle_seconds)
            return probe_idle(self, idle_seconds)

        monkeypatch.setattr(Boomer, "probe_idle", recording_probe)
        steps = [perturbed(i, a) for i, a in enumerate(actions)]
        result = session.run_actions(steps, strategy="DI")
        monkeypatch.setattr(Boomer, "probe_idle", probe_idle)
        clean = session.run_actions(actions, strategy="DI")

        key = lambda r: {tuple(sorted(m.items())) for m in r.run.matches}
        assert key(result) == key(clean)
        assert result.simulated_qft_seconds == pytest.approx(
            sum(a.latency_after for a in steps if a.latency_after is not None)
        )
        assert all(window > 0.0 for window in windows)
        assert result.backlog_seconds >= 0.0
        if perturb == "drop":
            # No window ever opens: every compute second is backlog.
            assert result.simulated_qft_seconds == 0.0
            assert result.backlog_seconds == pytest.approx(
                result.formulation_busy_seconds
            )
            assert windows == []
        else:
            assert windows


class TestUserVariability:
    def test_same_seed_same_timeline(self, fig2_pre):
        from repro.workload.generator import instantiate
        from tests.conftest import build_fig2_graph

        latency = GUILatencyConstants().scaled(0.001)
        instance = instantiate("Q1", build_fig2_graph(), seed=1)

        def qft(seed):
            session = VisualSession(
                make_context(fig2_pre, latency=latency),
                latency,
                jitter=0.3,
                seed=seed,
            )
            return session.run(instance, strategy="DI").simulated_qft_seconds

        assert qft(5) == qft(5)
        assert qft(5) != qft(6)

    def test_speed_scales_qft(self, fig2_pre):
        from repro.workload.generator import instantiate
        from tests.conftest import build_fig2_graph

        latency = GUILatencyConstants().scaled(0.001)
        instance = instantiate("Q1", build_fig2_graph(), seed=1)

        def qft(speed):
            session = VisualSession(
                make_context(fig2_pre, latency=latency),
                latency,
                jitter=0.0,
                speed=speed,
            )
            return session.run(instance, strategy="DI").simulated_qft_seconds

        slow = qft(2.0)
        fast = qft(0.5)
        assert slow == pytest.approx(4 * fast)
