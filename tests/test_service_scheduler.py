"""IdleScheduler tests: a donated idle window probes only its donor's pool."""

from __future__ import annotations

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.service import SessionManager, canonical_matches

#: Generous virtual latency so every step leaves a real idle window for
#: the scheduler to spend (engine compute on fig2 is microseconds).
LAT = 0.05

DONOR_ACTIONS = [
    NewVertex(0, "A", latency_after=LAT),
    NewVertex(1, "B", latency_after=LAT),
    NewEdge(0, 1, 1, 1, latency_after=LAT),
    NewVertex(2, "C", latency_after=LAT),
    NewEdge(1, 2, 1, 2, latency_after=LAT),
    NewEdge(0, 2, 1, 3, latency_after=LAT),
]

#: Defer-to-Run bystander: its own strategy never touches the pool before
#: Run, so any pre-Run processing would be another session's doing.  Every
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


def dr_reference_matches(ctx):
    reference = Boomer(ctx, strategy="DR", auto_idle=False)
    for action in POOLED_ACTIONS:
        reference.apply(action)
    reference.apply(Run())
    return canonical_matches(reference.run_result.matches)


def test_donor_windows_leave_other_pools_alone(pooled_ctx):
    """A DI donor's idle windows probe only its own pool: a pooled DR
    session beside it does no CAP work before its own Run."""
    manager = SessionManager(pooled_ctx)
    bystander = manager.create_session(strategy="DR")
    fill_pool(manager, bystander)
    pooled = bystander.boomer.engine.pool.edges()
    processed = bystander.ctx.counters.edges_processed
    assert pooled

    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    assert donor.donated_idle_seconds > 0.0
    assert manager.stats()["scheduler"]["donations"] == len(DONOR_ACTIONS)

    assert bystander.boomer.engine.pool.edges() == pooled
    assert bystander.ctx.counters.edges_processed == processed
    result = manager.run(bystander.id)
    assert bystander.ctx.counters.edges_processed > processed
    assert canonical_matches(result.matches) == dr_reference_matches(pooled_ctx)


def test_pool_is_never_read_without_its_sessions_lock(pooled_ctx):
    """Nothing reads a session's pool without holding that session's
    lock: another session's donated window never looks at it."""
    manager = SessionManager(pooled_ctx)
    bystander = manager.create_session(strategy="DR")
    fill_pool(manager, bystander)
    pool = bystander.boomer.engine.pool
    min_edge = pool.min_edge

    def locked_min_edge(cap, model):
        assert bystander.lock.locked(), "pool read without its session's lock"
        return min_edge(cap, model)

    pool.min_edge = locked_min_edge
    donor = manager.create_session(strategy="DI")
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    result = manager.run(bystander.id)  # drains under the lock
    assert len(pool) == 0
    assert canonical_matches(result.matches) == dr_reference_matches(pooled_ctx)


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


def test_di_session_drains_its_own_pool_in_idle_windows(pooled_ctx):
    """Algorithm 10 per session: a DI session's own idle windows process
    the edges its script pooled, before its Run click."""
    manager = SessionManager(pooled_ctx)
    session = manager.create_session(strategy="DI")
    pooled_seen = 0
    for action in POOLED_ACTIONS:
        manager.apply_action(session.id, action)
        pooled_seen = max(pooled_seen, len(session.boomer.engine.pool))
    assert pooled_seen > 0  # latency 0: nothing to spend yet
    processed = session.ctx.counters.edges_processed

    manager.apply_action(session.id, NewVertex(3, "A", latency_after=LAT))
    assert len(session.boomer.engine.pool) == 0
    assert session.ctx.counters.edges_processed > processed
    assert 0.0 < session.donated_idle_seconds <= LAT


def test_empty_window_is_not_a_donation(pooled_ctx):
    manager = SessionManager(pooled_ctx)
    session = manager.create_session(strategy="DI")
    fill_pool(manager, session)  # latency 0 throughout
    pooled = session.boomer.engine.pool.edges()
    assert pooled

    with session.lock:
        assert manager.scheduler.donate(session, 0.0) == 0.0
        assert manager.scheduler.donate(session, -1.0) == 0.0
    assert manager.scheduler.stats()["donations"] == 0
    assert session.donated_idle_seconds == 0.0
    assert session.boomer.engine.pool.edges() == pooled


def test_scheduler_totals_are_the_donors_sums(pooled_ctx):
    manager = SessionManager(pooled_ctx)
    donors = [manager.create_session(strategy="DI") for _ in range(2)]
    for donor in donors:
        for action in DONOR_ACTIONS:
            manager.apply_action(donor.id, action)

    sched = manager.stats()["scheduler"]
    assert sched["donations"] == 2 * len(DONOR_ACTIONS)
    assert sched["donated_seconds"] == pytest.approx(
        sum(d.donated_idle_seconds for d in donors)
    )
    assert sched["cross_session_edges"] == 0
    for donor in donors:
        with donor.lock:
            stats = donor.stats()
        assert 0.0 < stats["donated_idle_seconds"] == donor.donated_idle_seconds


def test_idle_probe_runs_under_the_donors_lock(pooled_ctx):
    """The scheduler takes no session lock itself: the donor's own lock,
    held by the manager for the action, covers its idle probe."""
    manager = SessionManager(pooled_ctx)
    donor = manager.create_session(strategy="DI")
    probe_idle = donor.boomer.probe_idle
    probed = []

    def locked_probe_idle(idle_seconds):
        assert donor.lock.locked(), "idle probe without its session's lock"
        probed.append(idle_seconds)
        return probe_idle(idle_seconds)

    donor.boomer.probe_idle = locked_probe_idle
    for action in DONOR_ACTIONS:
        manager.apply_action(donor.id, action)
    assert len(probed) == len(DONOR_ACTIONS)
    assert all(0.0 < idle <= LAT for idle in probed)
