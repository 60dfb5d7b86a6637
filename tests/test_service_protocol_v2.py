"""The wire contract: one dialect, one declaration of an error's code.

The wire protocol (docs/SERVICE.md) puts ``v`` and ``req_id`` on every
frame and reports every failure through one typed error envelope; a frame
that is not that envelope is refused with it.  An error's ``code`` and
``retryable`` verdict are class attributes in :mod:`repro.errors` — the
frozen table below is what pins them, since clients switch on them.  Both
are checked at the codec level, through the dispatcher, and over a real
socket.
"""

import json
import math
import pickle
import socket
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro import errors
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
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
    open_host,
    protocol,
)


# ---------------------------------------------------------------------------
# Codec level
# ---------------------------------------------------------------------------
class TestEnvelopeCodec:
    def test_current_version_and_supported_set(self):
        """One dialect: a frame is the v2 envelope or it is refused."""
        assert protocol.PROTOCOL_VERSION == 2
        assert protocol.decode_request(b'{"v": 2, "op": "ping"}')["op"] == "ping"
        for frame in (b'{"op": "ping"}', b'{"id": 9, "op": "ping"}',
                      b'{"v": 1, "op": "ping"}', b'{"v": "2", "op": "ping"}'):
            with pytest.raises(ProtocolError, match="unsupported protocol version"):
                protocol.decode_request(frame)

    def test_trace_and_metrics_are_ops(self):
        assert "trace" in protocol.OPS
        assert "metrics" in protocol.OPS

    def test_v2_request_decodes_with_version_and_req_id(self):
        line = b'{"v": 2, "req_id": 5, "op": "ping"}'
        assert protocol.decode_request(line) == {"v": 2, "req_id": 5, "op": "ping"}

    def test_unsupported_version_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            protocol.decode_request(b'{"v": 3, "op": "ping"}')

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.decode_request(b'{"v": 2, "req_id": 1, "op": "frobnicate"}')

    def test_ok_response_dialects(self):
        """There is one: the v2 envelope."""
        assert protocol.ok_response(7, {"x": 1}) == {
            "v": 2, "req_id": 7, "ok": True, "result": {"x": 1}
        }

    def test_error_response_v2_typed_envelope(self):
        exc = SessionEvictedError("s1", "cap pressure")
        response = protocol.error_response(3, exc)
        error = response["error"]
        assert response["v"] == 2 and response["req_id"] == 3
        assert response["ok"] is False
        assert error["code"] == "session_evicted"
        assert error["retryable"] is True
        assert error["details"]["type"] == "SessionEvictedError"
        assert error["details"]["session"] == "s1"
        assert list(error) == ["code", "message", "retryable", "details"]

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
        bug = protocol.error_object(RuntimeError("bug"))
        assert bug["retryable"] is False and bug["details"] == {"type": "RuntimeError"}

    def test_deadline_details_carry_context(self):
        exc = DeadlineExceededError(context="enumeration")
        error = protocol.error_response(1, exc)["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["details"]["deadline_context"] == "enumeration"

    def test_best_effort_id_echoes_a_json_objects_req_id(self):
        assert protocol.best_effort_id(b"{not json") is None
        assert protocol.best_effort_id(b"[1, 2]") is None
        assert protocol.best_effort_id(b'{"id": 3, "op": "nope"}') is None
        assert protocol.best_effort_id(b'{"req_id": 3, "op": "ping"}') == 3
        assert protocol.best_effort_id(b'{"v": 2, "req_id": 8, "op": "nope"}') == 8


# ---------------------------------------------------------------------------
# The error table: (code, retryable) per class, frozen
# ---------------------------------------------------------------------------
#: What every ``ReproError`` subclass of errors.py resolves to on the wire.
#: The classes declare it (``code`` / ``retryable`` attributes, inherited
#: where a class says nothing); this table is the wire-stability pin, equal
#: to what the two registries protocol.py used to keep resolved to.  A new
#: class, a changed code or a flipped verdict is a client-visible change
#: and must be made here too, on purpose.
ERROR_TABLE = {
    "ReproError": ("engine_error", False),
    "GraphError": ("engine_error", False),
    "GraphBuildError": ("engine_error", False),
    "VertexNotFoundError": ("engine_error", False),
    "EdgeNotFoundError": ("engine_error", False),
    "GraphIOError": ("engine_error", False),
    "QueryError": ("engine_error", False),
    "QueryValidationError": ("engine_error", False),
    "QueryVertexNotFoundError": ("engine_error", False),
    "QueryEdgeNotFoundError": ("engine_error", False),
    "BoundsError": ("engine_error", False),
    "QueryFileError": ("query_file_invalid", False),
    "IndexError_": ("engine_error", False),
    "IndexNotBuiltError": ("engine_error", False),
    "StaleIndexError": ("stale_index", False),
    "GraphMutationError": ("graph_mutation_invalid", False),
    "CAPError": ("engine_error", False),
    "CAPStateError": ("engine_error", False),
    "SessionError": ("session_state", False),
    "ActionError": ("bad_action", False),
    "LatencyConfigError": ("latency_config_invalid", False),
    "DatasetError": ("engine_error", False),
    "ExperimentError": ("engine_error", False),
    "ResilienceError": ("engine_error", False),
    "DeadlineExceededError": ("deadline_exceeded", False),
    "RetryExhaustedError": ("retry_exhausted", False),
    "ServiceError": ("engine_error", False),
    "SessionNotFoundError": ("session_not_found", False),
    "SessionEvictedError": ("session_evicted", True),
    "AdmissionError": ("admission_refused", True),
    "OverloadConfigError": ("overload_config", False),
    "ServiceOverloadedError": ("overloaded", True),
    "ServiceTimeoutError": ("service_timeout", True),
    "CheckpointError": ("checkpoint_invalid", False),
    "ProtocolError": ("bad_request", False),
    "StorageError": ("storage_error", False),
    "BasisFormatError": ("basis_format_invalid", False),
    "AnalysisError": ("analysis_error", False),
    "LintUsageError": ("lint_usage_invalid", False),
    "LockOrderViolationError": ("lock_order_inversion", False),
}

#: Constructor arguments of the classes that do not take one message.
ERROR_ARGS = {
    "VertexNotFoundError": (7,),
    "EdgeNotFoundError": (1, 2),
    "QueryVertexNotFoundError": (3,),
    "QueryEdgeNotFoundError": (3, 4),
    "StaleIndexError": ("PML index", 3, 1),
    "DeadlineExceededError": ("enumeration", 0.25),
    "RetryExhaustedError": ("process_edge", 3, RuntimeError("boom")),
    "SessionNotFoundError": ("s9",),
    "SessionEvictedError": ("s1", "cap pressure"),
    "ServiceOverloadedError": ("shed", "queue", 75),
    "ServiceTimeoutError": ("run", 1.5),
}

#: The ``details`` extras, in wire order, of the classes that have any.
ERROR_EXTRAS = {
    "DeadlineExceededError": {"deadline_context": "enumeration"},
    "SessionNotFoundError": {"session": "s9"},
    "SessionEvictedError": {"session": "s1", "restorable": False},
    "ServiceOverloadedError": {"retry_after_ms": 75, "reason": "queue"},
}


class TestErrorTable:
    def test_table_names_every_error_class(self):
        """Every ``ReproError`` subclass errors.py defines is in the table."""
        defined = {
            name
            for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, ReproError)
        }
        assert defined == set(ERROR_TABLE)
        assert defined == set(errors.__all__)

    @pytest.mark.parametrize("name", sorted(ERROR_TABLE))
    def test_code_retryable_and_frame_are_frozen(self, name):
        """The class attributes and the serialised ``error`` object (key
        order included), class by class."""
        code, retryable = ERROR_TABLE[name]
        cls = getattr(errors, name)
        assert (cls.code, cls.retryable) == (code, retryable)
        exc = cls(*ERROR_ARGS.get(name, ("something failed",)))
        want = {
            "code": code,
            "message": str(exc),
            "retryable": retryable,
            "details": {"type": name, **ERROR_EXTRAS.get(name, {})},
        }
        error = protocol.error_object(exc)
        assert json.dumps(error) == json.dumps(want)
        assert protocol.error_code(exc) == code


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
def reference_frame(req_id, result) -> bytes:
    payload = {"v": 2, "req_id": req_id, "ok": True, "result": result}
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


CHUNK = protocol.CHUNK_ROWS
#: Match-list lengths around the chunk edges, and a full 10 000-match reply.
FRAME_SIZES = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 10_000)
#: Echoed ids, strings holding the reader's own landmarks included.
REQ_IDS = st.one_of(
    st.integers(),
    st.none(),
    st.text(),
    st.sampled_from(['"matches":', "]],[[", "]]]", '"matches":[[[0,1]]]}}\n']),
)


@st.composite
def blocks(draw, sizes=FRAME_SIZES, min_k=0):
    """A block of width ``min_k``-4 and a length from ``sizes``, ids of
    1-9 digits.  (A Run's query has vertices: its replies have k >= 1.)"""
    k = draw(st.integers(min_k, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = draw(st.sampled_from([10, 10**9]))
    qs = sorted(rng.choice(high, size=k, replace=False).tolist())
    m = draw(st.sampled_from(sizes))
    return protocol.MatchBlock(qs, rng.integers(0, high, size=(m, k), dtype=np.int32))


def matches_reply(req_id, block, trailing) -> tuple[dict, bytes]:
    """A ``matches`` reply payload and ``json.dumps`` of what it stands for,
    with a key after ``matches`` when ``trailing``."""
    extra = {"tail": 1} if trailing else {}
    payload = protocol.ok_response(req_id, {"matches": block, **extra})
    return payload, reference_frame(req_id, {"matches": block.tolist(), **extra})


def reads(frame: bytes, cuts):
    """A ``read`` handing out ``frame`` split at ``cuts``; a reader that asks
    for more than the frame would block on a real socket."""
    bounds = sorted({0, len(frame), *cuts})
    pieces = iter([frame[a:b] for a, b in zip(bounds, bounds[1:])])

    def read() -> bytes:
        piece = next(pieces, None)
        if piece is None:
            raise EOFError("read past the end of the frame")
        return piece

    return read


def every(frame: bytes, size: int | None):
    """``read`` in pieces of ``size`` bytes (None: the whole frame at once)."""
    return reads(frame, range(size, len(frame), size) if size else ())


def read_strictly(read, req_id) -> dict:
    """The ``matches`` reader with every warning an error, so that a numpy
    ``DeprecationWarning`` on a bad body cannot pass for a parse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return protocol.read_matches_reply(read, req_id)


def canonical(frame: bytes) -> bool:
    """Is ``frame`` exactly what the server writes for the reply it parses
    to: compact JSON, ``matches`` first in the result, rows of one width of
    ``[int, int]`` pairs below 10**9?"""
    try:
        payload = json.loads(frame)
        first = next(iter(payload["result"]), None)
        rows = payload["result"]["matches"]
        widths = {len(row) for row in rows}
        pairs = [pair for row in rows for pair in row]
    except (ValueError, TypeError, KeyError):
        return False
    return (
        first == "matches"
        and len(widths) <= 1
        and all(type(p) is list and len(p) == 2 for p in pairs)
        and all(type(x) is int and 0 <= x < 10**9 for p in pairs for x in p)
        and (json.dumps(payload, separators=(",", ":")) + "\n").encode() == frame
    )


#: One defect each in a canonical frame of ``MUTATED_BLOCK``; some are JSON.
MUTATIONS = {
    "leading zero": (b"[1,17]", b"[1,017]"),
    "zero padded": (b"[0,5]", b"[00,5]"),
    "minus sign": (b"[1,17]", b"[1,-17]"),
    "plus sign": (b"[1,17]", b"[1,+17]"),
    "space in a pair": (b"[0,5]", b"[0, 5]"),
    "space between rows": (b"]],[[", b"]], [["),
    "ten digits": (b"190", b"1234567890"),
    "twenty digits": (b"190", b"9" * 20),
    "empty number": (b"[1,17]", b"[1,]"),
    "float": (b"17", b"17.0"),
    "exponent": (b"17", b"1e1"),
    "null": (b"17", b"null"),
    "string": (b"17", b'"17"'),
    "ragged wide row": (b"[[0,6],[1,18]]", b"[[0,6],[1,18],[2,3]]"),
    "ragged narrow row": (b"[[0,6],[1,18]]", b"[[0,6]]"),
    "triple": (b"[1,18]", b"[1,18,2]"),
    "deeper nesting": (b"[[0,6]", b"[[[0,6]]"),
    "newline in the list": (b"]],[[", b"]],\n[["),
    "truncated list": (b"]]]", b"]]"),
    "list cut mid-row": (b"[1,190]]]", b"[1,19"),
    "matches key repeated": (b"]]]}", b']]],"matches":[]}'),
    "envelope spaced": (b'"ok":true', b'"ok": true'),
    "matches not first": (b'{"matches":', b'{"tail":1,"matches":'),
}
MUTATED_BLOCK = protocol.MatchBlock(
    [0, 1], np.array([[5, 17], [6, 18], [7, 190]], dtype=np.int32)
)


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
        st.one_of(st.integers(), st.none(), st.text(), st.just('"matches":')),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_spliced_frame_equals_json_dumps(self, matches, req_id, trailing):
        """Any M and k (0 and 1 included), any echoed id, with and without
        a key after ``matches`` in the result."""
        extra = {"tail": 1} if trailing else {}
        block = protocol.match_block(matches)
        got = protocol.encode_line(
            protocol.ok_response(req_id, {"matches": block, **extra})
        )
        want = reference_frame(
            req_id, {"matches": reference_canonical(matches), **extra}
        )
        assert got == want
        assert block.dumps() == json.dumps(block.tolist(), separators=(",", ":"))

    def test_block_survives_a_pickle(self):
        block = protocol.match_block([{3: 9, 1: 4}, {3: 2, 1: 4}])
        again = pickle.loads(pickle.dumps(block))
        assert again == block and again.tolist() == [[[1, 4], [3, 2]], [[1, 4], [3, 9]]]
        assert block != protocol.match_block([{3: 9, 1: 4}])
        assert block != protocol.match_block([{3: 9, 2: 4}, {3: 2, 2: 4}])

    @pytest.fixture(scope="class")
    def backends(self, fig2_pre):
        ctx = make_context(fig2_pre)
        return ctx, {"local": open_host(ctx, ServeConfig())}

    @pytest.mark.parametrize("backend", ["local"])
    @pytest.mark.parametrize("script", sorted(FRAME_SCRIPTS))
    def test_dispatched_frame_bytes(self, backends, backend, script):
        """Through the dispatcher: the frame is ``json.dumps`` of the
        sorted comprehension."""
        ctx, dispatchers = backends
        dispatcher = dispatchers[backend]
        want = reference_canonical(serial_matches(ctx, FRAME_SCRIPTS[script]))
        assert bool(want) == (script != "no match")
        sid = dispatcher.dispatch({"op": "create_session", "strategy": "DI"})["session"]
        for action in FRAME_SCRIPTS[script]:
            dispatcher.dispatch({"op": "action", "session": sid, "action": action})
        dispatcher.dispatch({"op": "run", "session": sid})
        result = dispatcher.dispatch({"op": "matches", "session": sid})
        frame = protocol.encode_line(protocol.ok_response(7, result))
        assert frame == reference_frame(7, {"matches": want})

    @given(blocks(), REQ_IDS, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_chunks_join_to_the_frame(self, block, req_id, trailing):
        """The server writes the envelope, the rows CHUNK at a time and the
        rest of the envelope; joined, they are the one frame."""
        payload, want = matches_reply(req_id, block, trailing)
        pieces = list(protocol.frame_chunks(payload))
        assert b"".join(pieces) == protocol.encode_line(payload) == want
        assert len(pieces) == math.ceil(len(block) / CHUNK) + 2
        assert [piece.count(b"\n") for piece in pieces[-2:]] == [0, 1]

    def test_every_other_frame_is_one_piece(self):
        for payload in (
            protocol.ok_response(3, {"pong": True}),
            protocol.ok_response(3, {"matches": [[[0, 1]]]}),
            protocol.error_response(3, SessionNotFoundError("s9")),
        ):
            assert list(protocol.frame_chunks(payload)) == [protocol.encode_line(payload)]

    @given(blocks(min_k=1), REQ_IDS, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reader_equals_json_loads_under_any_split(self, block, req_id, trailing, data):
        _, frame = matches_reply(req_id, block, trailing)
        cuts = data.draw(st.lists(st.integers(1, len(frame) - 1), max_size=40))
        got = read_strictly(reads(frame, cuts), req_id)
        assert json.dumps(got) == json.dumps(json.loads(frame))

    def test_rows_of_no_pairs_are_refused(self):
        """k = 0 has a frame but no Run: a query without vertices is refused."""
        block = protocol.MatchBlock([], np.zeros((2, 0), dtype=np.int32))
        _, frame = matches_reply(7, block, trailing=False)
        assert frame.endswith(b'"matches":[[],[]]}}\n')
        with pytest.raises(ProtocolError):
            read_strictly(every(frame, None), 7)

    @pytest.mark.parametrize(
        "m, size",
        [
            (m, size)
            for m in FRAME_SIZES
            for size in (1, 7, 64, 4096, None)
            if m <= CHUNK + 1 or size is None or size >= 64
        ],
    )
    def test_reader_from_one_byte_reads_to_the_whole_frame(self, m, size):
        rng = np.random.default_rng(m)
        block = protocol.MatchBlock([2, 5, 9], rng.integers(0, 10**9, (m, 3), dtype=np.int32))
        _, frame = matches_reply(41, block, trailing=m % 2 == 1)
        got = read_strictly(every(frame, size), 41)
        assert json.dumps(got) == json.dumps(json.loads(frame))

    @pytest.mark.parametrize("size", [1, None])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_frame_is_refused(self, mutation, size):
        _, frame = matches_reply(7, MUTATED_BLOCK, trailing=False)
        old, new = MUTATIONS[mutation]
        mutated = frame.replace(old, new)
        assert mutated != frame and not canonical(mutated)
        with pytest.raises(ProtocolError):
            read_strictly(every(mutated, size), 7)

    @given(blocks(sizes=(1, 2, 5), min_k=1), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_byte_changed_in_the_list_is_exact_or_refused(self, block, trailing, data):
        """A change that leaves a canonical frame parses to its
        ``json.loads``; any other raises ProtocolError, never blocks."""
        _, frame = matches_reply(7, block, trailing)
        start = frame.index(b'"matches":') + len(b'"matches":')
        at = data.draw(st.integers(start, start + len(block.dumps()) - 1))
        byte = data.draw(st.sampled_from(b'0123456789[],-+ .e"\n'))
        mutated = frame[:at] + bytes([byte]) + frame[at + 1:]
        read = reads(mutated, data.draw(st.lists(st.integers(1, len(mutated) - 1))))
        try:
            got = read_strictly(read, 7)
        except ProtocolError:
            assert not canonical(mutated)
        else:
            assert canonical(mutated) and got == json.loads(mutated)

    def test_bytes_after_the_frame_are_refused(self):
        _, frame = matches_reply(7, MUTATED_BLOCK, trailing=True)
        with pytest.raises(ProtocolError, match="bytes follow"):
            read_strictly(every(frame + b'{"v":2}\n', None), 7)

    @pytest.mark.parametrize("size", [1, 5, None])
    def test_error_frame_reads_as_today(self, size):
        """A failure reply goes through ``decode_response`` unchanged."""
        frame = protocol.encode_line(protocol.error_response(7, SessionNotFoundError("s9")))
        got = read_strictly(every(frame, size), 7)
        assert got == protocol.decode_response(frame)
        assert got["error"]["code"] == "session_not_found"


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
    def test_v2_frame_gets_v2_envelope(self, server, fig2_ctx):
        response = raw_roundtrip(
            server.address, {"v": 2, "req_id": 11, "op": "ping"}
        )
        assert response == {
            "v": 2,
            "req_id": 11,
            "ok": True,
            "result": {"pong": True, "protocol": 2, "graph": fig2_ctx.graph.name},
        }

    @pytest.mark.parametrize(
        "envelope", [{}, {"v": 1}, {"v": 3}], ids=["no-v", "v1", "v3"]
    )
    def test_other_dialects_get_bad_request_and_the_connection_stays_usable(
        self, server, envelope
    ):
        """A frame that is not the v2 envelope — the retired v1 dialect
        included — is refused in v2, ``req_id`` echoed, and the next frame
        on the same connection is served."""
        with socket.create_connection(server.address, timeout=10) as sock:
            handle = sock.makefile("rwb")
            frame = {**envelope, "req_id": 21, "id": 21, "op": "ping"}
            handle.write(json.dumps(frame).encode() + b"\n")
            handle.flush()
            response = json.loads(handle.readline())
            assert response["v"] == 2 and response["req_id"] == 21
            assert response["ok"] is False and "id" not in response
            error = response["error"]
            assert list(error) == ["code", "message", "retryable", "details"]
            assert error["code"] == "bad_request" and error["retryable"] is False
            assert error["details"] == {"type": "ProtocolError"}
            handle.write(b'{"v": 2, "req_id": 22, "op": "ping"}\n')
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is True and response["req_id"] == 22

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
        assert info.value.details == {
            "type": "SessionNotFoundError", "session": "ghost"
        }

    @pytest.mark.parametrize("key", sorted(protocol.ENVELOPE_KEYS - {"op"}))
    def test_param_named_like_an_envelope_key_is_refused(self, server, key):
        """A flat param would overwrite the transport field of that name
        (the ``update`` verb once sent its vertex as ``v``)."""
        with ServiceClient(*server.address) as client:
            with pytest.raises(TypeError, match="envelope"):
                client.request("ping", **{key: 1})
            assert client.ping()["pong"] is True  # nothing was sent


# ---------------------------------------------------------------------------
# Every registered op reaches its handler
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def every_backend(fig2_pre):
    return {"local": open_host(make_context(fig2_pre), ServeConfig())}


@pytest.mark.parametrize("backend", ["local"])
@pytest.mark.parametrize("op", protocol.OPS)
def test_every_op_reaches_a_handler(every_backend, backend, op):
    """``OPS`` and the dispatcher agree: each verb, sent with a session id
    nobody holds, is answered or refused by its own handler, never by the
    ``unhandled op`` fall-through."""
    try:
        every_backend[backend].dispatch({"op": op, "session": "ghost"})
    except ReproError as exc:
        assert "unhandled op" not in str(exc)


# ---------------------------------------------------------------------------
# Error frames: code, retryable and details of three verdicts
# ---------------------------------------------------------------------------
def error_frame(dispatcher, request) -> bytes:
    """The reply ``QueryServer.handle_line`` writes when ``request`` fails."""
    with pytest.raises(ReproError) as info:
        dispatcher.dispatch(request)
    return protocol.encode_line(protocol.error_response(7, info.value))


def test_error_frames_carry_code_retryable_and_details(fig2_pre):
    """One non-retryable and two retryable verdicts with extras, read off
    the frame a client receives."""
    backend = LocalDispatcher(
        SessionManager(make_context(fig2_pre), ServeConfig(max_sessions=1))
    )
    # The second create evicts the first.
    sids = [backend.dispatch({"op": "create_session"})["session"] for _ in range(2)]
    assert sids == ["s1", "s2"]
    frames = (
        error_frame(backend, {"op": "matches", "session": "s999"}),
        error_frame(backend, {"op": "run", "session": "s1"}),
    )
    backend.drain(timeout=5.0)
    frames += (error_frame(backend, {"op": "run", "session": "s2"}),)
    unknown, evicted, shed = (json.loads(f)["error"] for f in frames)
    assert (unknown["code"], unknown["retryable"]) == ("session_not_found", False)
    assert unknown["details"] == {"type": "SessionNotFoundError", "session": "s999"}
    assert (evicted["code"], evicted["retryable"]) == ("session_evicted", True)
    assert evicted["details"] == {
        "type": "SessionEvictedError", "session": "s1", "restorable": True
    }
    assert (shed["code"], shed["retryable"]) == ("overloaded", True)
    assert shed["details"] == {
        "type": "ServiceOverloadedError", "retry_after_ms": 250, "reason": "draining"
    }
