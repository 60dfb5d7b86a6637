"""Tests for the bounds that remain: the Run deadline and the client retry.

A Run past its deadline raises a typed error and leaves the session
terminal; a client retries retryable verdicts under a
:class:`~repro.service.client.RetryPolicy` and never retries a
library-logic error.
"""

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.errors import (
    ActionError,
    CAPStateError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from repro.gui.session import VisualSession
from repro.service.client import RetryPolicy
from repro.utils.timing import Deadline
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


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_recovers_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("blip")
            return "ok"

        assert RetryPolicy(max_attempts=3, base_delay=0.0).call(flaky) == "ok"
        assert len(attempts) == 3

    def test_exhaustion_wraps_and_chains(self):
        def dead():
            raise RuntimeError("down")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(dead, label="oracle probe")
        err = excinfo.value
        assert err.operation == "oracle probe"
        assert err.attempts == 2
        assert isinstance(err.last_error, RuntimeError)
        assert err.__cause__ is err.last_error

    def test_repro_errors_never_retried(self):
        attempts = []

        def broken():
            attempts.append(1)
            raise CAPStateError("logic bug")

        with pytest.raises(CAPStateError):
            RetryPolicy(max_attempts=5, base_delay=0.0).call(broken)
        assert len(attempts) == 1

    def test_backoff_schedule_clamped(self):
        policy = RetryPolicy(base_delay=0.01, backoff=10.0, max_delay=0.05)
        assert policy.delay_for(1) == pytest.approx(0.01)
        assert policy.delay_for(2) == pytest.approx(0.05)  # clamped
        assert policy.delay_for(5) == pytest.approx(0.05)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_on_retry_hook_sees_each_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise RuntimeError("blip")
            return 1

        RetryPolicy(max_attempts=3, base_delay=0.0).call(
            flaky, on_retry=lambda attempt, exc: seen.append((attempt, str(exc)))
        )
        assert seen == [(1, "blip"), (2, "blip")]


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------
class TestDeadline:
    def test_unlimited_checkpoints_are_noops(self):
        deadline = Deadline(None)
        for _ in range(100):
            deadline.checkpoint("loop")
        assert not deadline.exhausted

    def test_zero_budget_fires_immediately(self):
        deadline = Deadline(0.0, label="drain")
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.checkpoint()
        assert "drain" in str(excinfo.value)
        assert excinfo.value.limit == 0.0

    def test_generous_budget_passes(self):
        deadline = Deadline(60.0)
        deadline.checkpoint("fast op")
        assert deadline.remaining() > 0.0

    def test_is_timeout_error(self):
        # Callers with generic timeout handling catch it without imports.
        with pytest.raises(TimeoutError):
            Deadline(0.0).checkpoint()


# ---------------------------------------------------------------------------
# The Run deadline and the terminal failed-Run state
# ---------------------------------------------------------------------------
class TestRunDeadline:
    def test_deadline_exceeded_raises(self, pre):
        boomer = Boomer(make_context(pre), strategy="DR", deadline_seconds=0.0)
        with pytest.raises(DeadlineExceededError):
            for action in triangle_actions():
                boomer.apply(action)
        assert boomer.run_result is None

    def test_visual_session_hands_its_deadline_to_every_run(self, pre):
        session = VisualSession(make_context(pre), deadline_seconds=0.0)
        with pytest.raises(DeadlineExceededError):
            session.run_actions(triangle_actions(), strategy="DI")
        generous = VisualSession(make_context(pre), deadline_seconds=60.0)
        assert generous.run_actions(triangle_actions(), strategy="DI").num_matches > 0

    def test_failed_run_is_terminal(self, pre):
        boomer = Boomer(make_context(pre), strategy="DR", deadline_seconds=0.0)
        with pytest.raises(DeadlineExceededError):
            for action in triangle_actions():
                boomer.apply(action)
        with pytest.raises(CAPStateError, match="terminal failed-Run state"):
            boomer.apply(NewVertex(9, "A"))

    def test_successful_run_still_raises_action_error(self, pre):
        # Regression: the terminal-state guard must not change the
        # long-standing contract for *successful* runs.
        boomer = Boomer(make_context(pre), strategy="IC")
        for action in triangle_actions():
            boomer.apply(action)
        with pytest.raises(ActionError, match="already executed"):
            boomer.apply(NewVertex(9, "A"))


class TestConfig:
    def test_exported_from_repro_root(self):
        import repro

        for name in ("RetryPolicy", "Deadline"):
            assert hasattr(repro, name)
        for gone in ("ResilienceConfig", "FaultPlan"):
            assert not hasattr(repro, gone)
