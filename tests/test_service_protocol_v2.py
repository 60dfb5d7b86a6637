"""Protocol v2 envelope + v1 backward compatibility.

The redesigned wire protocol (docs/SERVICE.md) puts ``v`` and ``req_id``
on every frame and reports every failure through one typed error
envelope.  The deprecated v1 dialect must keep round-tripping against
the v2 server byte-compatibly — that is the negotiation contract this
file pins, both at the codec level and over a real socket.
"""

import json
import socket

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.actions import Run
from repro.core.blender import Boomer
from repro.core.enumerate import PartialMatches
from repro.core.preprocessor import make_context
from repro.errors import (
    ActionError,
    AdmissionError,
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    SessionEvictedError,
    SessionNotFoundError,
)
from repro.service import (
    LocalDispatcher,
    PoolDispatcher,
    QueryServer,
    ServiceClient,
    SessionManager,
    protocol,
)


# ---------------------------------------------------------------------------
# Codec level
# ---------------------------------------------------------------------------
class TestEnvelopeCodec:
    def test_current_version_and_supported_set(self):
        assert protocol.PROTOCOL_VERSION == 2
        assert protocol.SUPPORTED_VERSIONS == (1, 2)

    def test_trace_and_metrics_are_ops(self):
        assert "trace" in protocol.OPS
        assert "metrics" in protocol.OPS

    def test_v2_request_decodes_with_version_and_req_id(self):
        line = b'{"v": 2, "req_id": 5, "op": "ping"}'
        request = protocol.decode_request(line)
        assert protocol.request_version(request) == 2
        assert protocol.request_id(request) == 5

    def test_v1_request_decodes_as_version_1(self):
        request = protocol.decode_request(b'{"id": 9, "op": "ping"}')
        assert protocol.request_version(request) == 1
        assert protocol.request_id(request) == 9

    def test_unsupported_version_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            protocol.decode_request(b'{"v": 3, "op": "ping"}')

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.decode_request(b'{"v": 2, "req_id": 1, "op": "frobnicate"}')

    def test_ok_response_dialects(self):
        v2 = protocol.ok_response(2, 7, {"x": 1})
        assert v2 == {"v": 2, "req_id": 7, "ok": True, "result": {"x": 1}}
        v1 = protocol.ok_response(1, 7, {"x": 1})
        assert v1 == {"id": 7, "ok": True, "result": {"x": 1}}
        assert "v" not in v1

    def test_error_response_v2_typed_envelope(self):
        exc = SessionEvictedError("s1", "cap pressure")
        response = protocol.error_response(2, 3, exc)
        error = response["error"]
        assert response["v"] == 2 and response["req_id"] == 3
        assert response["ok"] is False
        assert error["code"] == "session_evicted"
        assert error["retryable"] is True
        assert error["details"]["type"] == "SessionEvictedError"
        assert error["details"]["session"] == "s1"

    def test_error_response_v1_keeps_legacy_shape(self):
        exc = SessionNotFoundError("nope")
        response = protocol.error_response(1, 4, exc)
        error = response["error"]
        assert response == {"id": 4, "ok": False, "error": error}
        assert error["type"] == "SessionNotFoundError"
        assert "code" not in error  # v1 never grew the v2 fields

    def test_error_codes_are_stable(self):
        cases = {
            ProtocolError("x"): "bad_request",
            SessionNotFoundError("s"): "session_not_found",
            SessionEvictedError("s", "r"): "session_evicted",
            AdmissionError("full"): "admission_refused",
            ActionError("bad"): "bad_action",
            ReproError("generic"): "engine_error",
            RuntimeError("bug"): "internal_error",
        }
        for exc, code in cases.items():
            assert protocol.error_code(exc) == code

    def test_deadline_details_carry_context(self):
        exc = DeadlineExceededError(context="enumeration")
        error = protocol.error_response(2, 1, exc)["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["details"]["deadline_context"] == "enumeration"

    def test_best_effort_id_defaults_junk_to_v1(self):
        assert protocol.best_effort_id(b"{not json") == (None, 1)
        assert protocol.best_effort_id(b"[1, 2]") == (None, 1)
        assert protocol.best_effort_id(b'{"id": 3, "op": "nope"}') == (3, 1)
        assert protocol.best_effort_id(b'{"v": 2, "req_id": 8, "op": "nope"}') == (8, 2)


# ---------------------------------------------------------------------------
# canonical_matches: one numpy pass == the sorted comprehension
# ---------------------------------------------------------------------------
def reference_canonical(matches):
    """The definition: sorted pairs inside sorted matches."""
    return sorted([[int(q), int(v)] for q, v in sorted(m.items())] for m in matches)


@st.composite
def match_sets(draw):
    """Matches of one V_Δ: the same query vertices (drawn in any dict
    order), data vertices with repeats across rows and duplicate rows."""
    qs = draw(st.lists(st.integers(0, 40), unique=True, max_size=5))
    row = st.tuples(*[st.integers(0, 30)] * len(qs))
    return [dict(zip(qs, vs)) for vs in draw(st.lists(row, max_size=40))]


class TestCanonicalMatches:
    @given(match_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_values_and_bytes(self, matches):
        want = reference_canonical(matches)
        for given_as in (matches, PartialMatches.from_dicts(matches), iter(matches)):
            got = protocol.canonical_matches(given_as)
            assert got == want
            assert all(type(x) is int for match in got for pair in match for x in pair)
            assert protocol.encode_line({"m": got}) == protocol.encode_line({"m": want})

    def test_one_query_vertex_and_empty(self):
        assert protocol.canonical_matches([{4: 9}, {4: 2}, {4: 9}]) == [
            [[4, 2]], [[4, 9]], [[4, 9]]
        ]
        assert protocol.canonical_matches([]) == []
        assert protocol.canonical_matches([{}, {}]) == [[], []]

    @pytest.mark.parametrize(
        "ragged",
        [
            [{0: 1, 1: 2}, {0: 1}],  # a key missing
            [{0: 1}, {0: 1, 1: 2}],  # a key too many: must not be truncated
            [{0: 1, 1: 2}, {0: 1, 2: 2}],  # same size, another key
            [{}, {0: 1}],
        ],
    )
    def test_ragged_input_raises(self, ragged):
        with pytest.raises(ProtocolError):
            protocol.canonical_matches(ragged)

    def test_block_columns_follow_the_matching_order(self):
        """A DFS block's columns are in matching order, not query-id order."""
        block = np.array([[5, 1, 9], [2, 8, 3], [5, 0, 9]], dtype=np.int32)
        matches = PartialMatches([7, 0, 3], block)
        assert protocol.canonical_matches(matches) == reference_canonical(list(matches))
        assert protocol.canonical_matches(matches)[0] == [[0, 0], [3, 9], [7, 5]]


# ---------------------------------------------------------------------------
# The `matches` frame: spliced text == json.dumps of the nested lists
# ---------------------------------------------------------------------------
def reference_frame(version, req_id, result) -> bytes:
    payload = protocol.ok_response(version, req_id, result)
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


#: fig2 scripts: 3 matches over k = 3, k = 1, and M = 0 (no A next to a D).
FRAME_SCRIPTS = {
    "q1": [
        {"kind": "NewVertex", "vertex_id": 0, "label": "A"},
        {"kind": "NewVertex", "vertex_id": 1, "label": "B"},
        {"kind": "NewEdge", "u": 0, "v": 1, "lower": 1, "upper": 1},
        {"kind": "NewVertex", "vertex_id": 2, "label": "C"},
        {"kind": "NewEdge", "u": 1, "v": 2, "lower": 1, "upper": 2},
        {"kind": "NewEdge", "u": 0, "v": 2, "lower": 1, "upper": 3},
    ],
    "one vertex": [{"kind": "NewVertex", "vertex_id": 4, "label": "B"}],
    "no match": [
        {"kind": "NewVertex", "vertex_id": 0, "label": "A"},
        {"kind": "NewVertex", "vertex_id": 1, "label": "D"},
        {"kind": "NewEdge", "u": 0, "v": 1, "lower": 1, "upper": 1},
    ],
}


def serial_matches(ctx, script) -> list[dict[int, int]]:
    boomer = Boomer(ctx, strategy="IC")
    for action in script:
        boomer.apply(protocol.wire_action(action))
    boomer.apply(Run())
    return boomer.run_result.matches.matches


class TestMatchesFrameBytes:
    @given(
        match_sets(),
        st.sampled_from([1, 2]),
        st.one_of(st.integers(), st.none(), st.text(), st.just('"matches":')),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_spliced_frame_equals_json_dumps(self, matches, version, req_id, routed):
        """Any M and k (0 and 1 included), both dialects, any echoed id,
        with and without a key after ``matches`` in the result."""
        extra = {"worker": 1} if routed else {}
        block = protocol.match_block(matches)
        got = protocol.encode_line(
            protocol.ok_response(version, req_id, {"matches": block, **extra})
        )
        want = reference_frame(
            version, req_id, {"matches": reference_canonical(matches), **extra}
        )
        assert got == want
        assert block.dumps() == json.dumps(block.tolist(), separators=(",", ":"))

    def test_block_survives_a_pickle(self):
        import pickle

        block = protocol.match_block([{3: 9, 1: 4}, {3: 2, 1: 4}])
        again = pickle.loads(pickle.dumps(block))
        assert again == block and again.tolist() == [[[1, 4], [3, 2]], [[1, 4], [3, 9]]]
        assert block != protocol.match_block([{3: 9, 1: 4}])
        assert block != protocol.match_block([{3: 9, 2: 4}, {3: 2, 2: 4}])

    @pytest.fixture(scope="class")
    def backends(self, fig2_pre):
        ctx = make_context(fig2_pre)
        pool = PoolDispatcher(ctx, workers=2, max_sessions=8)
        yield ctx, {"local": LocalDispatcher(SessionManager(ctx)), "pool": pool}
        pool.close()

    @pytest.mark.parametrize("backend", ["local", "pool"])
    @pytest.mark.parametrize("script", sorted(FRAME_SCRIPTS))
    def test_dispatched_frame_bytes(self, backends, backend, script):
        """Threaded and through a two-worker pool's pipe, v1 and v2: the
        frame is ``json.dumps`` of the sorted comprehension."""
        ctx, dispatchers = backends
        dispatcher = dispatchers[backend]
        want = reference_canonical(serial_matches(ctx, FRAME_SCRIPTS[script]))
        assert bool(want) == (script != "no match")
        sid = dispatcher.dispatch({"op": "create_session", "strategy": "DI"})["session"]
        for action in FRAME_SCRIPTS[script]:
            dispatcher.dispatch({"op": "action", "session": sid, "action": action})
        dispatcher.dispatch({"op": "run", "session": sid})
        result = dispatcher.dispatch({"op": "matches", "session": sid})
        for version in (1, 2):
            frame = protocol.encode_line(protocol.ok_response(version, 7, result))
            assert frame == reference_frame(version, 7, {"matches": want})


# ---------------------------------------------------------------------------
# Over a real socket
# ---------------------------------------------------------------------------
@pytest.fixture()
def server(fig2_ctx):
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0).start()
    yield srv
    srv.stop()


def raw_roundtrip(address, frame: dict) -> dict:
    with socket.create_connection(address, timeout=10) as sock:
        handle = sock.makefile("rwb")
        handle.write(json.dumps(frame).encode() + b"\n")
        handle.flush()
        return json.loads(handle.readline())


class TestWireNegotiation:
    def test_v2_frame_gets_v2_envelope(self, server):
        response = raw_roundtrip(
            server.address, {"v": 2, "req_id": 11, "op": "ping"}
        )
        assert response["v"] == 2
        assert response["req_id"] == 11
        assert response["ok"] is True
        assert response["result"]["protocol"] == protocol.PROTOCOL_VERSION
        assert response["result"]["supported_protocols"] == [1, 2]

    def test_v1_frame_still_roundtrips(self, server):
        """The acceptance check: pre-envelope clients keep working."""
        response = raw_roundtrip(server.address, {"id": 21, "op": "ping"})
        assert response["id"] == 21
        assert response["ok"] is True
        assert "v" not in response and "req_id" not in response

    def test_v1_error_keeps_legacy_shape_on_the_wire(self, server):
        response = raw_roundtrip(
            server.address,
            {
                "id": 1,
                "op": "action",
                "session": "ghost",
                "action": {"kind": "NewVertex", "vertex_id": 0, "label": "A"},
            },
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "SessionNotFoundError"
        assert "code" not in response["error"]

    def test_v2_error_envelope_on_the_wire(self, server):
        response = raw_roundtrip(
            server.address,
            {"v": 2, "req_id": 2, "op": "run", "session": "ghost"},
        )
        assert response["req_id"] == 2
        assert response["error"]["code"] == "session_not_found"
        assert response["error"]["details"]["type"] == "SessionNotFoundError"

    def test_unsupported_version_answered_in_v2(self, server):
        response = raw_roundtrip(
            server.address, {"v": 99, "req_id": 5, "op": "ping"}
        )
        assert response["error"]["code"] == "bad_request"
        assert response["req_id"] == 5

    def test_v1_session_lifecycle_end_to_end(self, server):
        """A whole pre-envelope conversation: create, act, run, matches."""
        with socket.create_connection(server.address, timeout=10) as sock:
            handle = sock.makefile("rwb")

            def call(frame):
                handle.write(json.dumps(frame).encode() + b"\n")
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"], response
                assert "v" not in response
                return response["result"]

            sid = call({"id": 1, "op": "create_session", "strategy": "DI"})["session"]
            for i, action in enumerate(
                [
                    {"kind": "NewVertex", "vertex_id": 0, "label": "A"},
                    {"kind": "NewVertex", "vertex_id": 1, "label": "B"},
                    {
                        "kind": "NewEdge",
                        "u": 0,
                        "v": 1,
                        "lower": 1,
                        "upper": 1,
                    },
                ]
            ):
                call({"id": 2 + i, "op": "action", "session": sid, "action": action})
            summary = call({"id": 10, "op": "run", "session": sid})
            assert summary["num_matches"] > 0
            matches = call({"id": 11, "op": "matches", "session": sid})["matches"]
            assert matches


class TestClientSpeaksV2:
    def test_client_requests_carry_the_envelope(self, server):
        with ServiceClient(*server.address) as client:
            pong = client.ping()
            assert pong["protocol"] == 2
            trace_payload = client.metrics()
            assert "metrics" in trace_payload

    def test_remote_error_exposes_code_and_type(self, server):
        from repro.service.client import RemoteServiceError

        with ServiceClient(*server.address) as client:
            with pytest.raises(RemoteServiceError) as info:
                client.run("ghost")
        assert info.value.code == "session_not_found"
        assert info.value.remote_type == "SessionNotFoundError"
        assert info.value.retryable is False

    def test_remote_error_parses_v1_payloads_too(self):
        from repro.service.client import RemoteServiceError

        legacy = RemoteServiceError(
            {"type": "AdmissionError", "message": "full", "retryable": True}
        )
        assert legacy.code is None
        assert legacy.remote_type == "AdmissionError"
        assert legacy.retryable is True
