"""SessionManager unit tests: lifecycle, parity, admission, eviction."""

from __future__ import annotations

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.errors import (
    ActionError,
    AdmissionError,
    SessionError,
    SessionEvictedError,
    SessionNotFoundError,
)
from repro.service import (
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
    canonical_matches,
    open_host,
)
from repro.service.client import RemoteServiceError

FIG2_ACTIONS = [
    NewVertex(0, "A", latency_after=0.002),
    NewVertex(1, "B", latency_after=0.002),
    NewEdge(0, 1, 1, 1, latency_after=0.002),
    NewVertex(2, "C", latency_after=0.002),
    NewEdge(1, 2, 1, 2, latency_after=0.002),
    NewEdge(0, 2, 1, 3, latency_after=0.002),
]


def drive(manager: SessionManager, actions=FIG2_ACTIONS, **session_kwargs):
    session = manager.create_session(**session_kwargs)
    for action in actions:
        manager.apply_action(session.id, action)
    result = manager.run(session.id)
    return session, result


class TestLifecycle:
    def test_hosted_session_matches_direct_boomer(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        _, result = drive(manager)

        boomer = Boomer(fig2_ctx, strategy="DI", auto_idle=False)
        for action in FIG2_ACTIONS:
            boomer.apply(action)
        boomer.apply(Run())
        assert canonical_matches(result.matches) == canonical_matches(
            boomer.run_result.matches
        )
        assert len(result.matches) > 0

    def test_session_states(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = manager.create_session()
        assert session.state == "formulating"
        for action in FIG2_ACTIONS:
            manager.apply_action(session.id, action)
        manager.run(session.id)
        assert session.state == "ran"
        # Run is terminal for formulation: more actions are a caller bug.
        with pytest.raises(ActionError):
            manager.apply_action(session.id, NewVertex(9, "A"))
        manager.close_session(session.id)
        with pytest.raises(SessionNotFoundError):
            manager.get(session.id)

    def test_results_validated_via_manager(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session, result = drive(manager)
        subgraphs = manager.results(session.id, limit=5)
        assert 0 < len(subgraphs) <= 5
        for sub in subgraphs:
            assert set(sub.assignment) == {0, 1, 2}

    def test_unknown_session_is_typed(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        with pytest.raises(SessionNotFoundError):
            manager.apply_action("nope", NewVertex(0, "A"))

    def test_run_without_actions_is_loud(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = manager.create_session()
        with pytest.raises(Exception):  # empty query fails validation
            manager.run(session.id)

    def test_matches_before_run_raises(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = manager.create_session()
        with pytest.raises(SessionError):
            manager.matches(session.id)

    def test_per_session_counters_are_private(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        a = manager.create_session()
        b = manager.create_session()
        manager.apply_action(a.id, NewVertex(0, "A"))
        assert b.ctx.counters.distance_queries == 0
        assert a.ctx is not b.ctx
        assert a.ctx.graph is b.ctx.graph  # immutable parts shared
        assert a.ctx.oracle is b.ctx.oracle


class TestAdmissionAndEviction:
    def test_session_budget_evicts_idle_lru(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=2))
        a = manager.create_session()
        b = manager.create_session()
        manager.apply_action(b.id, NewVertex(0, "A"))  # b now more recent
        c = manager.create_session()  # must evict a (LRU idle)
        assert manager.session_ids() == [b.id, c.id]
        with pytest.raises(SessionEvictedError) as excinfo:
            manager.get(a.id)
        assert excinfo.value.session_id == a.id
        assert manager.stats()["sessions_evicted"] == 1

    def test_admission_refused_when_nothing_evictable(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        session = manager.create_session()
        with session.lock:  # actively in use: not evictable
            with pytest.raises(AdmissionError):
                manager.create_session()
        assert manager.stats()["admission_rejections"] == 1
        assert manager.get(session.id) is session  # survivor intact

    def test_cap_budget_evicts_largest_idle_history(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(cap_entry_budget=1))
        a = manager.create_session()
        for action in FIG2_ACTIONS:
            manager.apply_action(a.id, action)
        assert a.cap_entries() > 1  # a alone busts the budget but survives
        assert manager.session_ids() == [a.id]

        b = manager.create_session()
        manager.apply_action(b.id, NewVertex(0, "A"))
        # Enforcement after b's action reclaims idle a, never the actor b.
        assert manager.session_ids() == [b.id]
        with pytest.raises(SessionEvictedError):
            manager.matches(a.id)
        stats = manager.stats()
        assert stats["sessions_evicted"] == 1
        assert any("CAP budget" in entry for entry in stats["recent_evictions"])

    def test_eviction_observable_in_stats(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        a = manager.create_session()
        manager.create_session()
        stats = manager.stats()
        assert stats["sessions_evicted"] == 1
        assert stats["open_sessions"] == 1
        assert f"{a.id}: session budget" in stats["recent_evictions"]

    def test_evicted_vs_unknown_are_distinct(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        a = manager.create_session()
        manager.create_session()  # evicts a
        with pytest.raises(SessionEvictedError):
            manager.get(a.id)
        with pytest.raises(SessionNotFoundError):
            manager.get("s999")


class TestCreateSessionAtTheDoor:
    """``create_session`` reads one param, ``strategy``, and refuses
    anything else on the wire with the non-retryable ``bad_request``
    before a session is admitted."""

    @pytest.fixture()
    def served(self, fig2_ctx):
        server = QueryServer(
            open_host(fig2_ctx, ServeConfig(deadline_seconds=2.0)),
            host="127.0.0.1",
            port=0,
        ).start()
        with ServiceClient(*server.address) as client:
            yield client, server.backend.manager
        server.stop()

    @pytest.mark.parametrize(
        "params",
        [
            {"strategy": "XYZ"},
            {"strategy": 5},
            {"strategy": ["DI"]},
            {"resilience": "bogus"},
            {"resilience": "default"},
            {"strategy": "DI", "resilience": "strict"},
        ],
    )
    def test_bad_params_are_refused_and_admit_nothing(self, served, params):
        client, manager = served
        with pytest.raises(RemoteServiceError) as excinfo:
            client.request("create_session", **params)
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.retryable is False
        assert manager.session_ids() == []
        assert manager.stats()["sessions_created"] == 0

    def test_absent_strategy_hosts_di_under_the_host_deadline(self, served):
        client, manager = served
        sid = client.create_session()
        assert client.stats(sid)["strategy"] == "DI"
        assert manager.get(sid).boomer.deadline_seconds == 2.0
        named = client.request("create_session", strategy="IC")
        assert named["strategy"] == "IC"
        assert client.request("create_session", strategy=None)["strategy"] == "DI"
