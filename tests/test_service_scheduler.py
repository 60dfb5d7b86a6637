"""IdleScheduler tests: cross-session donation, fairness, neutrality."""

from __future__ import annotations

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.obs.metrics import metrics
from repro.service import SessionManager, canonical_matches

#: Generous virtual latency so every step leaves a real idle window for
#: the scheduler to distribute (engine compute on fig2 is microseconds).
LAT = 0.05

DONOR_ACTIONS = [
    NewVertex(0, "A", latency_after=LAT),
    NewVertex(1, "B", latency_after=LAT),
    NewEdge(0, 1, 1, 1, latency_after=LAT),
    NewVertex(2, "C", latency_after=LAT),
    NewEdge(1, 2, 1, 2, latency_after=LAT),
    NewEdge(0, 2, 1, 3, latency_after=LAT),
]

#: Defer-to-Run beneficiary: its own strategy never touches the pool
#: before Run, so any pre-Run processing is the scheduler's doing.  Every
#: edge carries upper bound 3 — Definition 5.8 only ever defers
#: large-upper edges, so smaller bounds would process inline regardless
#: of strategy.
POOLED_ACTIONS = [
    NewVertex(0, "A", latency_after=0.0),
    NewVertex(1, "B", latency_after=0.0),
    NewEdge(0, 1, 1, 3, latency_after=0.0),
    NewVertex(2, "C", latency_after=0.0),
    NewEdge(1, 2, 1, 3, latency_after=0.0),
    NewEdge(0, 2, 1, 3, latency_after=0.0),
]


def fill_pool(manager, session):
    for action in POOLED_ACTIONS:
        manager.apply_action(session.id, action)


def test_donated_idle_serves_other_sessions_pool(pooled_ctx):
    manager = SessionManager(pooled_ctx)
    beneficiary = manager.create_session(strategy="DR")
    fill_pool(manager, beneficiary)
    assert len(beneficiary.boomer.engine.pool) > 0

    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)

    # The donor's idle windows drained the beneficiary's pool before its
    # own Run click ever arrived.
    assert beneficiary.serviced_edges > 0
    assert beneficiary.serviced_seconds > 0.0
    assert len(beneficiary.boomer.engine.pool) == 0
    sched = manager.scheduler.stats()
    assert sched["cross_session_edges"] >= beneficiary.serviced_edges
    assert donor.donated_idle_seconds > 0.0


def test_cross_session_scheduling_preserves_matches(pooled_ctx):
    """Deferral neutrality across sessions: scheduler moves work, not answers."""
    manager = SessionManager(pooled_ctx)
    beneficiary = manager.create_session(strategy="DR")
    fill_pool(manager, beneficiary)
    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    assert beneficiary.serviced_edges > 0  # scheduling actually happened
    result = manager.run(beneficiary.id)

    reference = Boomer(pooled_ctx, strategy="DR", auto_idle=False)
    for action in POOLED_ACTIONS:
        reference.apply(action)
    reference.apply(Run())

    assert canonical_matches(result.matches) == canonical_matches(
        reference.run_result.matches
    )


def test_fair_share_across_beneficiaries(pooled_ctx):
    manager = SessionManager(pooled_ctx)
    first = manager.create_session(strategy="DR")
    second = manager.create_session(strategy="DR")
    fill_pool(manager, first)
    fill_pool(manager, second)

    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)

    # One chatty donor window is plenty for both pools on fig2; the
    # fairness key must not let one beneficiary monopolize the windows.
    assert first.serviced_edges > 0
    assert second.serviced_edges > 0


def test_single_session_behaves_like_plain_di(pooled_ctx):
    """With one session, scheduler DI == standalone DI (donor-first rule)."""
    manager = SessionManager(pooled_ctx)
    session = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(session.id, action)
    result = manager.run(session.id)

    reference = Boomer(pooled_ctx, strategy="DI", auto_idle=False)
    for action in DONOR_ACTIONS:
        reference.apply(action)
        reference.probe_idle(LAT)
    reference.apply(Run())

    assert canonical_matches(result.matches) == canonical_matches(
        reference.run_result.matches
    )


def test_unregistered_sessions_receive_nothing(pooled_ctx):
    manager = SessionManager(pooled_ctx)
    beneficiary = manager.create_session(strategy="DR")
    fill_pool(manager, beneficiary)
    pooled_before = len(beneficiary.boomer.engine.pool)
    manager.scheduler.unregister(beneficiary.id)

    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    assert len(beneficiary.boomer.engine.pool) == pooled_before
    assert beneficiary.serviced_edges == 0


def test_beneficiary_failure_does_not_fail_the_donor(pooled_ctx):
    """Donated work that fails is the beneficiary's, not the donor's: the
    donor's actions all apply and are logged, the failed edge stays in the
    beneficiary's pool, and the beneficiary's own Run still answers."""
    manager = SessionManager(pooled_ctx)
    beneficiary = manager.create_session(strategy="DR")
    fill_pool(manager, beneficiary)
    pooled_before = len(beneficiary.boomer.engine.pool)
    assert pooled_before > 0

    def oracle_down(edge):
        raise RuntimeError("injected oracle fault")

    beneficiary.boomer.engine.process_edge = oracle_down
    before = metrics.snapshot()
    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    failed = metrics.delta(before, metrics.snapshot())
    assert failed["repro_idle_cross_session_failures_total"] >= 1
    assert donor.action_log == DONOR_ACTIONS
    assert len(beneficiary.boomer.engine.pool) == pooled_before
    assert beneficiary.serviced_edges == 0

    del beneficiary.boomer.engine.process_edge  # the oracle is back
    result = manager.run(beneficiary.id)
    reference = Boomer(pooled_ctx, strategy="DR", auto_idle=False)
    for action in POOLED_ACTIONS:
        reference.apply(action)
    reference.apply(Run())
    assert canonical_matches(result.matches) == canonical_matches(
        reference.run_result.matches
    )
