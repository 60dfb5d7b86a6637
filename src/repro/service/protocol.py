"""JSON-lines wire protocol shared by :mod:`server` and :mod:`client`.

One request per line, one response per line, UTF-8 JSON (no framing
beyond the newline — every payload the service produces is newline-free).

Every frame carries the versioned envelope (``"v": 2``); a frame without
it, or with another version, is refused with the typed ``bad_request``
error below::

    {"v": 2, "req_id": 7, "op": "action", "session": "s1",
     "action": {"kind": "NewVertex", "vertex_id": 0, "label": "A"}}

    {"v": 2, "req_id": 7, "ok": true, "result": {...}}
    {"v": 2, "req_id": 7, "ok": false,
     "error": {"code": "session_evicted", "message": "...",
               "retryable": true, "details": {"type": "SessionEvictedError",
                                              "session": "s1"}}}

Every failure is that one ``error`` object (:func:`error_object`): the
stable ``code`` and the ``retryable`` verdict the exception class declares
in :mod:`repro.errors` (what programs switch on), a human ``message``, and
``details`` carrying the exception class name plus any exception-specific
extras.  A pool worker sends the same object over its pipe, so a failure
has one shape from the raise site to the client.

Actions on the wire reuse the session-recording dict format
(:mod:`repro.gui.recording`), so a recorded formulation replays over the
network byte-for-byte.

Match sets travel canonicalized (:func:`match_block`; as nested lists,
:func:`canonical_matches`): each match is a sorted ``[query_vertex,
data_vertex]`` pair list and the match list itself is sorted — two runs
produced the same ``V_Δ`` iff the encoded JSON strings are identical.  The
determinism tests and the serve acceptance check compare exactly these
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.actions import Action
from repro.core.blender import ActionReport, RunResult
from repro.core.enumerate import PartialMatches
from repro.core.lowerbound import ResultSubgraph
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    RelayedError,
    ReproError,
    ServiceOverloadedError,
    SessionEvictedError,
    SessionNotFoundError,
    WorkerDiedError,
)
from repro.gui.recording import action_from_dict, action_to_dict

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "MatchBlock",
    "match_block",
    "canonical_matches",
    "encode_line",
    "decode_request",
    "best_effort_id",
    "decode_response",
    "ok_response",
    "error_response",
    "error_code",
    "error_object",
    "action_payload",
    "report_payload",
    "run_payload",
    "subgraph_payload",
    "wire_action",
]

#: The one dialect: the ``v`` every frame carries, in both directions.
PROTOCOL_VERSION = 2

#: Every operation the server understands (documented in docs/SERVICE.md).
OPS = (
    "ping",
    "create_session",
    "restore_session",
    "action",
    "run",
    "results",
    "matches",
    "stats",
    "trace",
    "metrics",
    "update",
    "close_session",
    "shutdown",
)


def error_code(exc: BaseException) -> str:
    """The stable ``code`` of a failure: the one its class declares in
    :mod:`repro.errors` (a :class:`~repro.errors.RelayedError` carries the
    worker-side exception's), ``internal_error`` for anything that is not
    a :class:`~repro.errors.ReproError` — an engine bug."""
    return exc.code if isinstance(exc, ReproError) else "internal_error"


def error_object(exc: BaseException) -> dict[str, Any]:
    """The ``error`` object of a failure frame: ``{code, message,
    retryable, details}``, ``details`` being the exception class name plus
    its extras.

    The one serialisation of a failure.  A pool worker sends this object
    over its pipe and the dispatcher raises it inside a
    :class:`~repro.errors.RelayedError`, which comes back out unchanged —
    so the bytes a client reads do not depend on ``--workers``.
    """
    if isinstance(exc, RelayedError):
        return exc.error
    details: dict[str, Any] = {"type": type(exc).__name__}
    if isinstance(exc, WorkerDiedError):
        details["worker"] = exc.worker
    if isinstance(exc, DeadlineExceededError):
        details["deadline_context"] = exc.context
    if isinstance(exc, (SessionNotFoundError, SessionEvictedError)):
        details["session"] = exc.session_id
    if isinstance(exc, SessionEvictedError):
        # Restore-by-id is possible while the checkpoint survives; after
        # that the client falls back to recreate-and-replay.
        details["restorable"] = bool(getattr(exc, "restorable", False))
    if isinstance(exc, ServiceOverloadedError):
        details["retry_after_ms"] = exc.retry_after_ms
        details["reason"] = exc.reason
    return {
        "code": error_code(exc),
        "message": str(exc),
        "retryable": isinstance(exc, ReproError) and exc.retryable,
        "details": details,
    }


@dataclass(eq=False)
class MatchBlock:
    """A canonical ``V_Δ`` as arrays: the ``matches`` result's value type.

    ``qs`` are the query vertices, ascending; ``block`` is the int32
    ``(M, k)`` array of data vertices, column ``i`` for ``qs[i]``, rows in
    lexicographic order.  It stands for the nested list ``[[[q, v], ...],
    ...]`` (:meth:`tolist`) and writes that list's compact JSON itself
    (:meth:`dumps`): a 10 000-match reply is 160 000 objects to
    ``json.dumps`` and one format operation here.  It pickles as arrays.
    """

    qs: list[int]
    block: np.ndarray

    def __len__(self) -> int:
        return len(self.block)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchBlock):
            return NotImplemented
        return self.qs == other.qs and np.array_equal(self.block, other.block)

    def tolist(self) -> list[list[list[int]]]:
        """Sorted ``[query_vertex, data_vertex]`` pairs inside sorted matches."""
        pairs = np.empty((*self.block.shape, 2), dtype=np.int64)
        pairs[:, :, 0] = self.qs
        pairs[:, :, 1] = self.block
        return pairs.tolist()

    def dumps(self) -> str:
        """``json.dumps(self.tolist(), separators=(",", ":"))``, byte for byte."""
        row = "[" + ",".join(f"[{q},%d]" for q in self.qs) + "]"
        rows = ",".join([row] * len(self.block))
        return "[" + rows % tuple(self.block.ravel().tolist()) + "]"


def match_block(matches) -> MatchBlock:
    """Canonicalise ``V_Δ``: one column permutation to ascending query
    vertices, one ``lexsort`` of the rows.  ``matches`` is a
    :class:`~repro.core.enumerate.PartialMatches` or an iterable of ``{query
    vertex: data vertex}`` dicts, which becomes one first; dicts that do not
    map the same query vertices raise."""
    if not isinstance(matches, PartialMatches):
        try:
            matches = PartialMatches.from_dicts(matches)
        except (KeyError, ValueError) as exc:
            raise ProtocolError(
                "matches of one V_Δ must map the same query vertices"
            ) from exc
    columns = np.argsort(matches.order)
    block = matches.block[:, columns]
    if block.size:
        block = block[np.lexsort(block.T[::-1])]
    return MatchBlock(sorted(matches.order), block)


def canonical_matches(matches) -> list[list[list[int]]]:
    """``V_Δ`` in canonical wire form, sorted pairs inside sorted matches:
    :func:`match_block` as the nested lists a client decodes."""
    return match_block(matches).tolist()


def _compact(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def _spliced(obj: dict[str, Any], key: str, text: str) -> str:
    """Compact JSON of ``obj`` with ``text`` written as the value of ``key``."""
    return "{%s}" % ",".join(
        f"{_compact(k)}:{text if k == key else _compact(v)}" for k, v in obj.items()
    )


def encode_line(payload: dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline.  The :class:`MatchBlock` of a
    ``matches`` reply writes its own text, spliced into the envelope instead
    of handing the encoder the nested list; the bytes are the same."""
    result = payload.get("result")
    block = result.get("matches") if isinstance(result, dict) else None
    if isinstance(block, MatchBlock):
        text = _spliced(payload, "result", _spliced(result, "matches", block.dumps()))
    else:
        text = _compact(payload)
    return (text + "\n").encode("utf-8")


def _loads(line: bytes | str, what: str) -> Any:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"{what} is not valid JSON: {exc}") from exc


def decode_request(line: bytes | str) -> dict[str, Any]:
    """Parse one request line; typed :class:`ProtocolError` on junk, on a
    frame that is not the v2 envelope, and on an unknown op."""
    payload = _loads(line, "request")
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    if payload.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {payload.get('v')!r}: "
            f'every frame carries "v": {PROTOCOL_VERSION}'
        )
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return payload


def best_effort_id(line: bytes | str) -> Any:
    """The ``req_id`` to echo for a request line that failed validation:
    the line's own whenever it was at least a JSON object, so pipelining
    clients can correlate the refusal; else None."""
    try:
        payload = _loads(line, "request")
    except ProtocolError:
        return None
    return payload.get("req_id") if isinstance(payload, dict) else None


def ok_response(req_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """A success frame."""
    return {"v": PROTOCOL_VERSION, "req_id": req_id, "ok": True, "result": result}


def error_response(req_id: Any, exc: BaseException) -> dict[str, Any]:
    """A failure frame: the envelope around :func:`error_object`."""
    return {
        "v": PROTOCOL_VERSION,
        "req_id": req_id,
        "ok": False,
        "error": error_object(exc),
    }


def decode_response(line: bytes | str) -> dict[str, Any]:
    """Parse one response line (client side)."""
    payload = _loads(line, "response")
    if not isinstance(payload, dict) or "ok" not in payload:
        raise ProtocolError("response must be a JSON object with 'ok'")
    return payload


def wire_action(payload: Any) -> Action:
    """Decode the ``action`` field of an ``action`` request."""
    if not isinstance(payload, dict):
        raise ProtocolError("'action' must be an object in recording format")
    try:
        return action_from_dict(payload)
    except ReproError as exc:
        raise ProtocolError(str(exc)) from exc


def action_payload(action: Action) -> dict[str, Any]:
    """Encode an action for the wire (recording format)."""
    return action_to_dict(action)


def report_payload(report: ActionReport) -> dict[str, Any]:
    """Wire form of one :class:`ActionReport`."""
    return {
        "status": report.status,
        "processed_now": report.processed_now,
        "compute_seconds": report.compute_seconds,
        "error": report.error,
    }


def run_payload(result: RunResult, backlog_seconds: float) -> dict[str, Any]:
    """Wire form of a Run outcome (resilience status included)."""
    return {
        "num_matches": result.num_matches,
        "truncated": result.matches.truncated,
        "srt_seconds": backlog_seconds + result.srt_seconds,
        "backlog_seconds": backlog_seconds,
        "enumeration_seconds": result.enumeration_seconds,
        "cap_construction_seconds": result.cap_construction_seconds,
        "cap_size": result.cap_size.total,
        "cap_peak_size": result.cap_peak_size,
        "strategy": result.strategy,
        "degraded": result.degraded,
        "degradation_reason": result.degradation_reason,
        "fallback": result.fallback,
        "cap_repaired_edges": result.cap_repaired_edges,
    }


def subgraph_payload(subgraph: ResultSubgraph) -> dict[str, Any]:
    """Wire form of one validated result subgraph."""
    return {
        "assignment": [[int(q), int(v)] for q, v in sorted(subgraph.assignment.items())],
        "paths": [
            {"edge": [int(u), int(v)], "path": [int(x) for x in path]}
            for (u, v), path in sorted(subgraph.paths.items())
        ],
    }
