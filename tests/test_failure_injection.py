"""Failure injection through :mod:`repro.faults`: no silent corruption.

The contract under test is the resilience trichotomy: a session driven
under *any* seeded :class:`FaultPlan` with a resilience config attached
either (a) completes on the CAP path with the fault-free match set,
(b) degrades to the BU baseline with the *identical* match set, or
(c) raises a typed error (:class:`ResilienceError` subclass, or the raw
:class:`InjectedFaultError` when resilience is off) — it never returns
silently wrong matches.
"""

import functools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.errors import ResilienceError, RetryExhaustedError
from repro.faults import (
    CAPCorruptionSpec,
    FaultPlan,
    FaultyOracle,
    InjectedFaultError,
    OracleFaultSpec,
)
from repro.gui.session import VisualSession
from repro.resilience import ResilienceConfig
from tests.conftest import build_fig2_graph


@pytest.fixture(scope="module")
def pre():
    return preprocess(build_fig2_graph(), t_avg_samples=100)


def make_ctx(pre, plan: FaultPlan | None = None):
    ctx = make_context(pre)
    return plan.wrap_context(ctx) if plan is not None else ctx


def triangle_actions():
    """Fig. 2 triangle; the upper-3 edge routes PVS through the oracle."""
    return [
        NewVertex(0, "A", latency_after=0.002),
        NewVertex(1, "B", latency_after=0.002),
        NewEdge(0, 1, 1, 1, latency_after=0.002),
        NewVertex(2, "C", latency_after=0.002),
        NewEdge(1, 2, 1, 2, latency_after=0.002),
        NewEdge(0, 2, 1, 3, latency_after=0.002),
        Run(),
    ]


def match_set(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


@pytest.fixture(scope="module")
def clean_matches(pre):
    boomer = Boomer(make_ctx(pre), strategy="IC")
    for action in triangle_actions():
        boomer.apply(action)
    return match_set(boomer.run_result.matches)


def session(pre, plan: FaultPlan | None) -> VisualSession:
    """A default-posture session harness over ``pre`` under ``plan``."""
    return VisualSession(
        make_context(pre), resilience=ResilienceConfig.default(), fault_plan=plan
    )


def clean_run_calls(pre, strategy: str = "IC") -> int:
    """Kernel calls of a clean triangle Run, counted by a wrapper that
    injects nothing (as ``_die_inside_the_page`` counts them)."""
    probe = session(pre, FaultPlan(seed=5, oracle=OracleFaultSpec()))
    probe.run_actions(triangle_actions(), strategy=strategy)
    return probe.ctx.oracle.calls


# ---------------------------------------------------------------------------
# Without resilience: injected faults surface raw, but never corrupt state
# ---------------------------------------------------------------------------
class TestUnprotected:
    def test_oracle_failure_propagates_from_large_upper_search(self, pre):
        plan = FaultPlan(seed=1, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(make_ctx(pre, plan), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(InjectedFaultError, match="injected"):
            boomer.apply(NewEdge(0, 1, 1, 3))  # all-pairs PML path

    def test_failure_leaves_no_processed_mark(self, pre):
        plan = FaultPlan(seed=1, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(make_ctx(pre, plan), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(InjectedFaultError):
            boomer.apply(NewEdge(0, 1, 1, 3))
        # The failed edge must not be marked processed: enumeration would
        # otherwise silently use a half-populated AIVS.
        assert not boomer.cap.is_processed(0, 1)
        with pytest.raises(Exception):
            boomer.apply(Run())  # either enumeration guard or another failure

    def test_recovery_with_fresh_engine_same_context_graph(self, pre, clean_matches):
        """A failure poisons only that session; a fresh engine with a
        healthy oracle over the same preprocessing succeeds."""
        boomer = Boomer(make_ctx(pre), strategy="IC")
        for action in triangle_actions():
            boomer.apply(action)
        assert match_set(boomer.run_result.matches) == clean_matches

    def test_failure_during_lower_bound_check(self, pre):
        boomer = Boomer(make_ctx(pre), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "C"))
        boomer.apply(NewEdge(0, 1, 1, 3))
        boomer.apply(Run())
        # Swap in an already-dead oracle: DetectPath's guided search fails.
        boomer._result_ctx = make_ctx(
            pre, FaultPlan(seed=1, oracle=OracleFaultSpec(fail_after=0))
        )
        match = boomer.run_result.matches.matches[0]
        with pytest.raises(InjectedFaultError, match="injected"):
            boomer.visualize(match)


# ---------------------------------------------------------------------------
# With resilience: the session survives and the answers never change
# ---------------------------------------------------------------------------
class TestProtected:
    def test_transient_faults_retry_to_clean_result(self, pre, clean_matches):
        plan = FaultPlan(
            seed=5, oracle=OracleFaultSpec(transient_rate=0.4, transient_burst=1)
        )
        boomer = Boomer(
            make_ctx(pre, plan), strategy="DI", resilience=ResilienceConfig.default()
        )
        for action in triangle_actions():
            boomer.apply(action)
        assert not boomer.run_result.degraded
        assert match_set(boomer.run_result.matches) == clean_matches

    def test_permanent_death_degrades_to_identical_matches(self, pre, clean_matches):
        plan = FaultPlan(seed=5, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(
            make_ctx(pre, plan), strategy="DI", resilience=ResilienceConfig.default()
        )
        for action in triangle_actions():
            boomer.apply(action)
        run = boomer.run_result
        assert run.degraded and run.fallback == "bu-bfs"
        assert "RetryExhaustedError" in run.degradation_reason
        assert match_set(run.matches) == clean_matches
        # Result generation must survive the dead oracle too.
        assert boomer.results()  # lower=1 bounds: every match validates

    def _die_inside_the_page(self, pre):
        """A session whose oracle dies one call into its first results page,
        plus the clean page.  ``fail_after`` comes from the counted calls of
        a clean Run, not from how many a page happens to need today."""
        probe = make_ctx(pre, FaultPlan(seed=5, oracle=OracleFaultSpec()))
        clean = Boomer(probe, strategy="IC", resilience=ResilienceConfig.default())
        for action in triangle_actions():
            clean.apply(action)
        run_calls = probe.oracle.calls
        clean_page = clean.results()
        assert probe.oracle.calls > run_calls + 1  # the page asks more than once
        plan = FaultPlan(seed=5, oracle=OracleFaultSpec(fail_after=run_calls + 1))
        boomer = Boomer(
            make_ctx(pre, plan), strategy="IC", resilience=ResilienceConfig.default()
        )
        for action in triangle_actions():
            boomer.apply(action)
        assert not boomer.run_result.degraded
        return boomer, clean_page

    def test_dead_oracle_fails_over_during_result_generation(self, pre):
        """Oracle dies *after* Run: the page's chunk swaps to a BFS oracle."""
        boomer, _ = self._die_inside_the_page(pre)
        results = boomer.results()
        assert results
        assert not isinstance(boomer._result_ctx.oracle, FaultyOracle)

    def test_failed_over_page_equals_clean_page(self, pre):
        """One absorbed failure for the chunk the death landed in (three
        matches), the same page, and the shared BFS oracle from then on."""
        from repro.indexing.oracle import shared_bfs_oracle

        boomer, clean_page = self._die_inside_the_page(pre)
        absorbed = len(boomer.absorbed_failures)
        page = boomer.results()
        assert len(page) == 3
        assert [(s.assignment, s.paths) for s in page] == [
            (s.assignment, s.paths) for s in clean_page
        ]
        assert len(boomer.absorbed_failures) == absorbed + 1
        assert "InjectedFaultError" in boomer.absorbed_failures[-1]
        assert boomer._result_ctx.oracle is shared_bfs_oracle(boomer.engine.ctx.graph)
        assert boomer.results() and len(boomer.absorbed_failures) == absorbed + 1

    def test_strict_config_raises_typed_error(self, pre):
        plan = FaultPlan(seed=5, oracle=OracleFaultSpec(fail_after=0))
        boomer = Boomer(
            make_ctx(pre, plan), strategy="IC", resilience=ResilienceConfig.strict()
        )
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(RetryExhaustedError):
            boomer.apply(NewEdge(0, 1, 1, 3))

    @pytest.mark.parametrize("strategy", ["IC", "DR", "DI"])
    def test_every_death_inside_the_run_degrades_or_raises(
        self, pre, clean_matches, strategy
    ):
        """The oracle dies at each kernel call of a clean Run in turn."""
        calls = clean_run_calls(pre, strategy)
        assert calls >= 1
        for fail_after in range(calls):
            plan = FaultPlan(seed=5, oracle=OracleFaultSpec(fail_after=fail_after))
            try:
                result = session(pre, plan).run_actions(
                    triangle_actions(), strategy=strategy
                )
            except ResilienceError:
                continue  # typed failure
            assert result.degraded, fail_after
            assert match_set(result.run.matches) == clean_matches


# ---------------------------------------------------------------------------
# Property: the trichotomy holds for arbitrary seeded fault plans
# ---------------------------------------------------------------------------
@functools.cache
def fail_after_bound() -> int:
    """Past the last kernel call of a triangle Run whose every call is
    retried to exhaustion: ``fail_after`` up to here kills the oracle
    before, during and after the Run."""
    pre = preprocess(build_fig2_graph(), t_avg_samples=100)
    attempts = ResilienceConfig.default().retry.max_attempts
    return attempts * clean_run_calls(pre) + 1


oracle_specs = st.one_of(
    st.none(),
    st.builds(
        OracleFaultSpec,
        transient_rate=st.sampled_from([0.0, 0.2, 0.6]),
        transient_burst=st.integers(min_value=1, max_value=3),
        fail_after=st.one_of(
            st.none(), st.deferred(lambda: st.integers(0, fail_after_bound()))
        ),
    ),
)
cap_specs = st.one_of(
    st.none(),
    st.builds(
        CAPCorruptionSpec,
        drop_pair_count=st.integers(min_value=0, max_value=2),
        bogus_pair_count=st.integers(min_value=0, max_value=2),
        drop_candidate_count=st.integers(min_value=0, max_value=2),
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    oracle=oracle_specs,
    cap=cap_specs,
    strategy=st.sampled_from(["IC", "DR", "DI"]),
)
@example(
    # An edge left in the pool by an exhausted retry, then CAP rot, then
    # Run: draining before the audit pruned the rot into an empty index
    # that audited clean.
    seed=1586,
    oracle=OracleFaultSpec(transient_rate=0.2, transient_burst=1),
    cap=CAPCorruptionSpec(bogus_pair_count=2, drop_candidate_count=1),
    strategy="IC",
)
def test_session_is_never_silently_wrong(pre, clean_matches, seed, oracle, cap, strategy):
    plan = FaultPlan(seed=seed, oracle=oracle, cap=cap)
    try:
        result = session(pre, plan).run_actions(triangle_actions(), strategy=strategy)
    except ResilienceError:
        return  # typed failure: acceptable outcome, nothing silently wrong
    # Completed (CAP path or degraded BU): the matches must be the
    # fault-free answer either way.
    assert match_set(result.run.matches) == clean_matches
    if result.degraded:
        assert result.fallback in ("bu-oracle", "bu-bfs")
