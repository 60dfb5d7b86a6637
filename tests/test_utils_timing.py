"""Tests for repro.utils.timing."""

import time

import pytest

from repro.obs.clock import now
from repro.utils.timing import Stopwatch, TimeBudget


class TestStopwatch:
    def test_initial_state(self):
        sw = Stopwatch()
        assert sw.elapsed == 0.0
        assert not sw.running

    def test_start_stop_accumulates(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.01)
        first = sw.stop()
        assert first >= 0.01
        sw.start()
        time.sleep(0.01)
        second = sw.stop()
        assert second > first

    def test_stop_without_start_is_noop(self):
        sw = Stopwatch()
        assert sw.stop() == 0.0

    def test_start_is_idempotent_while_running(self):
        sw = Stopwatch()
        sw.start()
        sw.start()
        time.sleep(0.005)
        assert sw.stop() < 0.05  # did not double-count

    def test_reset(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.002)
        sw.reset()
        assert sw.elapsed == 0.0
        assert not sw.running

    def test_read_while_running(self):
        sw = Stopwatch()
        sw.start()
        time.sleep(0.005)
        mid = sw.read()
        assert mid >= 0.005
        assert sw.running  # read does not stop
        total = sw.stop()
        assert total >= mid

    def test_context_manager(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.003)
        assert sw.elapsed >= 0.003
        assert not sw.running


class TestTimeBudget:
    def test_unlimited(self):
        budget = TimeBudget(None)
        assert budget.remaining() == float("inf")
        assert not budget.exhausted
        assert budget.can_afford(1e9)

    def test_positive_budget_counts_down(self):
        budget = TimeBudget(0.05)
        assert budget.remaining() > 0
        time.sleep(0.06)
        assert budget.exhausted
        assert budget.remaining() == 0.0

    def test_non_positive_budget_exhausted_immediately(self):
        assert TimeBudget(0.0).exhausted
        assert TimeBudget(-1.0).exhausted

    def test_can_afford(self):
        budget = TimeBudget(10.0)
        assert budget.can_afford(1.0)
        assert not budget.can_afford(100.0)

    def test_limit_property(self):
        assert TimeBudget(2.5).limit == 2.5
        assert TimeBudget(None).limit is None


def test_now_is_monotonic():
    a = now()
    b = now()
    assert b >= a


def test_now_matches_perf_counter_scale():
    # Sub-second resolution expected.
    a = now()
    time.sleep(0.01)
    assert 0.005 < now() - a < 1.0


@pytest.mark.parametrize("seconds", [0.001, 0.5, 3600.0])
def test_budget_remaining_never_negative(seconds):
    budget = TimeBudget(seconds)
    assert budget.remaining() >= 0.0
