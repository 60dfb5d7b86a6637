"""The service ``update`` verb: quiet window, epoch visibility, refusals.

Contexts here are built fresh per test — the shared session-scoped
``fig2_ctx`` fixture must never be mutated — and each test drives the
verb at the layer it pins: SessionManager for the quiet-window barrier,
LocalDispatcher for wire validation, QueryServer + ServiceClient for the
socket round trip.
"""

from __future__ import annotations

import pytest

from repro.core.actions import NewEdge, NewVertex
from repro.core.preprocessor import make_context, preprocess
from repro.errors import (
    GraphMutationError,
    ProtocolError,
    ServiceOverloadedError,
    StaleIndexError,
)
from repro.service import (
    QueryServer,
    ServiceClient,
    SessionManager,
    canonical_matches,
    protocol,
)
from repro.service.dispatch import LocalDispatcher
from tests.conftest import build_fig2_graph

FIG2_ACTIONS = [
    NewVertex(0, "A", latency_after=0.002),
    NewVertex(1, "B", latency_after=0.002),
    NewEdge(0, 1, 1, 1, latency_after=0.002),
    NewVertex(2, "C", latency_after=0.002),
    NewEdge(1, 2, 1, 2, latency_after=0.002),
    NewEdge(0, 2, 1, 3, latency_after=0.002),
]


@pytest.fixture()
def ctx():
    """A private, mutable fig2 context (never the shared fixture)."""
    return make_context(preprocess(build_fig2_graph(), seed=3))


def drive(manager):
    session = manager.create_session()
    for action in FIG2_ACTIONS:
        manager.apply_action(session.id, action)
    result = manager.run(session.id)
    return session, result


class TestManagerUpdate:
    def test_insert_report_and_stats(self, ctx):
        manager = SessionManager(ctx)
        report = manager.apply_update("insert", 0, 11)
        assert report.kind == "insert"
        assert report.epoch == 1
        assert report.strategy == "pml-incremental"
        stats = manager.stats()
        assert stats["graph"]["epoch"] == 1
        assert stats["updates_applied"] == 1

    def test_delete_rebuilds(self, ctx):
        manager = SessionManager(ctx)
        report = manager.apply_update("delete", 1, 4)
        assert report.strategy == "pml-decremental"
        assert manager.base_ctx.graph.epoch == 1

    def test_unknown_kind_is_typed(self, ctx):
        manager = SessionManager(ctx)
        with pytest.raises(GraphMutationError, match="unknown update kind"):
            manager.apply_update("upsert", 0, 11)
        assert manager.base_ctx.graph.epoch == 0

    def test_refused_update_leaves_epoch_alone(self, ctx):
        manager = SessionManager(ctx)
        with pytest.raises(GraphMutationError, match="already exists"):
            manager.apply_update("insert", 1, 4)
        assert manager.base_ctx.graph.epoch == 0
        assert manager.stats()["updates_applied"] == 0

    def test_old_results_kept_new_sessions_see_new_epoch(self, ctx):
        manager = SessionManager(ctx)
        old_session, old_result = drive(manager)
        before = canonical_matches(old_result.matches)
        # v1(A)-v5(B) at distance 1 satisfies the [1,1] query edge, and
        # v5-v9-v12 / v1-v9-v12 keep C in bounds: new matches appear.
        manager.apply_update("insert", 0, 4)
        assert canonical_matches(manager.matches(old_session.id)) == before
        _, new_result = drive(manager)
        after = canonical_matches(new_result.matches)
        def as_set(matches):
            return {tuple(tuple(pair) for pair in match) for match in matches}

        assert as_set(before) < as_set(after)

    def test_busy_service_sheds_update(self, ctx):
        manager = SessionManager(ctx)
        with manager._track_request():  # a request that never finishes
            with pytest.raises(ServiceOverloadedError):
                manager.apply_update("insert", 0, 4, timeout=0.05)
        assert manager.base_ctx.graph.epoch == 0
        # ... and once the service is quiet the same update goes through.
        assert manager.apply_update("insert", 0, 4, timeout=0.05).epoch == 1


class TestDispatcherUpdate:
    def test_update_is_a_wire_op(self):
        assert "update" in protocol.OPS
        request = protocol.decode_request(
            b'{"v": 2, "req_id": 1, "op": "update", "kind": "insert", "edge": [0, 11]}'
        )
        assert request["op"] == "update"

    def test_round_trip(self, ctx):
        dispatcher = LocalDispatcher(SessionManager(ctx))
        result = dispatcher.dispatch(
            {"op": "update", "kind": "insert", "edge": [0, 11]}
        )
        assert result["epoch"] == 1
        assert result["edge"] == [0, 11]
        assert result["strategy"] == "pml-incremental"
        assert result["two_hop_recomputed"] > 0

    def test_bad_kind_rejected(self, ctx):
        dispatcher = LocalDispatcher(SessionManager(ctx))
        with pytest.raises(ProtocolError, match="kind"):
            dispatcher.dispatch(
                {"op": "update", "kind": "upsert", "edge": [0, 1]}
            )

    @pytest.mark.parametrize(
        "edge", [["0", 1], [0, None], [True, 1], [0, 1.5], [0], [0, 1, 2], None]
    )
    def test_bad_edge_payload_rejected(self, ctx, edge):
        dispatcher = LocalDispatcher(SessionManager(ctx))
        with pytest.raises(ProtocolError, match="edge"):
            dispatcher.dispatch({"op": "update", "kind": "insert", "edge": edge})

    def test_error_codes_are_stable(self):
        assert protocol.error_code(GraphMutationError("x")) == (
            "graph_mutation_invalid"
        )
        assert protocol.error_code(StaleIndexError("x")) == "stale_index"


class TestWireUpdate:
    def test_client_update_over_socket(self, ctx):
        server = QueryServer(
            SessionManager(ctx), host="127.0.0.1", port=0
        ).start()
        try:
            with ServiceClient(*server.address) as client:
                report = client.update("insert", 0, 11)
                assert report["epoch"] == 1
                assert report["strategy"] == "pml-incremental"
                assert client.stats()["graph"]["epoch"] == 1
                from repro.service.client import RemoteServiceError

                with pytest.raises(RemoteServiceError) as info:
                    client.update("insert", 0, 11)  # now a duplicate
                assert info.value.code == "graph_mutation_invalid"
        finally:
            server.stop()
