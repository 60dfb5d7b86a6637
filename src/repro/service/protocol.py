"""JSON-lines wire protocol shared by :mod:`server` and :mod:`client`.

One request per line, one response per line, UTF-8 JSON (no framing
beyond the newline — every payload the service produces is newline-free).

**Protocol v2** (current) puts a versioned envelope on every frame::

    {"v": 2, "req_id": 7, "op": "action", "session": "s1",
     "action": {"kind": "NewVertex", "vertex_id": 0, "label": "A"}}

    {"v": 2, "req_id": 7, "ok": true, "result": {...}}
    {"v": 2, "req_id": 7, "ok": false,
     "error": {"code": "session_evicted", "message": "...",
               "retryable": true, "details": {"type": "SessionEvictedError",
                                              "session": "s1"}}}

Every failure uses that single typed error envelope: a stable ``code``
from :data:`ERROR_CODES` (what programs switch on), a human ``message``,
a ``retryable`` hint, and ``details`` carrying the originating exception
class plus any exception-specific extras.

**Protocol v1** (deprecated, still accepted) is the pre-envelope dialect:
requests carry ``id`` and no ``v``; responses echo ``id`` and errors are
the ad-hoc ``{"type", "message", "retryable", ...}`` shape.  The server
answers each request in the dialect it arrived in, so old clients keep
round-tripping unchanged — see docs/SERVICE.md for the migration notes.

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
    ActionError,
    AdmissionError,
    AnalysisError,
    BasisFormatError,
    CAPCorruptionError,
    CheckpointError,
    DeadlineExceededError,
    DegradedModeError,
    GraphMutationError,
    LatencyConfigError,
    LintUsageError,
    LockOrderViolationError,
    OverloadConfigError,
    ProtocolError,
    QueryFileError,
    RelayedError,
    ReproError,
    RetryExhaustedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    SessionError,
    SessionEvictedError,
    SessionNotFoundError,
    StaleIndexError,
    StorageError,
    WorkerDiedError,
    WorkerPoolError,
)
from repro.gui.recording import action_from_dict, action_to_dict

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "OPS",
    "ERROR_CODES",
    "MatchBlock",
    "match_block",
    "canonical_matches",
    "encode_line",
    "decode_request",
    "request_version",
    "request_id",
    "best_effort_id",
    "decode_response",
    "ok_response",
    "error_response",
    "error_code",
    "error_payload",
    "action_payload",
    "report_payload",
    "run_payload",
    "subgraph_payload",
    "wire_action",
]

PROTOCOL_VERSION = 2

#: Dialects the server still answers.  v1 is deprecated: it predates the
#: envelope (no ``v``, ``id`` instead of ``req_id``, ad-hoc error shapes).
SUPPORTED_VERSIONS = (1, 2)

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

#: Error types a client may retry (after recreating state if needed);
#: everything else is a caller bug or a terminal server verdict.
#: :class:`ServiceOverloadedError` is the backpressure verdict — retry
#: after its ``retry_after_ms`` hint and the shed normally clears.
_RETRYABLE = (
    SessionEvictedError,
    AdmissionError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    WorkerDiedError,
)

#: Stable v2 error codes by exception type — what client programs switch
#: on (exception class names are an implementation detail carried in
#: ``details.type``).  First match wins, so subclasses precede bases.
ERROR_CODES: tuple[tuple[type, str], ...] = (
    (ProtocolError, "bad_request"),
    (SessionNotFoundError, "session_not_found"),
    (SessionEvictedError, "session_evicted"),
    (ServiceOverloadedError, "overloaded"),
    (CheckpointError, "checkpoint_invalid"),
    (WorkerDiedError, "worker_died"),
    (WorkerPoolError, "worker_pool"),
    (AdmissionError, "admission_refused"),
    (DeadlineExceededError, "deadline_exceeded"),
    (DegradedModeError, "degraded_mode"),
    (CAPCorruptionError, "cap_corrupted"),
    (RetryExhaustedError, "retry_exhausted"),
    (GraphMutationError, "graph_mutation_invalid"),
    (StaleIndexError, "stale_index"),
    (ActionError, "bad_action"),
    (LatencyConfigError, "latency_config_invalid"),
    (SessionError, "session_state"),
    (QueryFileError, "query_file_invalid"),
    (OverloadConfigError, "overload_config"),
    (ServiceTimeoutError, "service_timeout"),
    (BasisFormatError, "basis_format_invalid"),
    (StorageError, "storage_error"),
    (LintUsageError, "lint_usage_invalid"),
    (LockOrderViolationError, "lock_order_inversion"),
    (AnalysisError, "analysis_error"),
    (ReproError, "engine_error"),
)


def error_code(exc: BaseException) -> str:
    """The stable v2 ``code`` for an exception (``internal_error`` fallback).

    A :class:`~repro.errors.RelayedError` — a worker-side failure
    rehydrated by the pool dispatcher — passes its original code through
    unchanged, so clients see identical codes with ``--workers 0`` and
    ``--workers N``.
    """
    if isinstance(exc, RelayedError):
        return exc.code
    for cls, code in ERROR_CODES:
        if isinstance(exc, cls):
            return code
    return "internal_error"


def error_retryable(exc: BaseException) -> bool:
    """Whether a client may retry after this failure.

    A :class:`~repro.errors.RelayedError` carries the worker-side
    verdict through verbatim — an ``overloaded`` shed must read
    retryable with ``--workers N`` exactly as it does with
    ``--workers 0``.
    """
    if isinstance(exc, RelayedError):
        return bool(exc.retryable)
    return isinstance(exc, _RETRYABLE)


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


def decode_request(line: bytes | str) -> dict[str, Any]:
    """Parse one request line; typed :class:`ProtocolError` on junk.

    Negotiation happens here: a frame without ``v`` is a deprecated v1
    request; ``v`` must otherwise name a supported dialect.  The raw
    payload is returned — read the dialect back with
    :func:`request_version` and the correlation id with
    :func:`request_id`.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")
    version = payload.get("v", 1)
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(supported: {SUPPORTED_VERSIONS})"
        )
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return payload


def request_version(request: dict[str, Any]) -> int:
    """The dialect a decoded request arrived in (absent ``v`` = 1)."""
    version = request.get("v", 1)
    return version if version in SUPPORTED_VERSIONS else 1


def request_id(request: dict[str, Any]) -> Any:
    """The correlation id of a decoded request (``req_id`` or legacy ``id``)."""
    if "req_id" in request:
        return request["req_id"]
    return request.get("id")


def best_effort_id(line: bytes | str) -> tuple[Any, int]:
    """``(correlation id, version)`` of a request line that failed validation.

    Error responses should still echo the id (in the right dialect)
    whenever the line was at least well-formed JSON, so pipelining
    clients can correlate them.  Anything that did not explicitly claim
    a v2+ envelope — junk included — is answered in the legacy v1 shape,
    which every client understands.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None, 1
    if not isinstance(payload, dict):
        return None, 1
    version = payload.get("v", 1)
    if not isinstance(version, int) or version not in SUPPORTED_VERSIONS:
        version = PROTOCOL_VERSION if isinstance(version, int) and version >= 2 else 1
    return request_id(payload), version


def ok_response(version: int, req_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """A success frame in the dialect the request arrived in."""
    if version >= 2:
        return {"v": version, "req_id": req_id, "ok": True, "result": result}
    return {"id": req_id, "ok": True, "result": result}


def error_response(version: int, req_id: Any, exc: BaseException) -> dict[str, Any]:
    """A failure frame in the dialect the request arrived in.

    v2 uses the typed envelope (``code``/``message``/``retryable`` +
    ``details``); v1 keeps its exact legacy error shape.
    """
    if version >= 2:
        legacy = error_payload(exc)
        details = {"type": legacy.pop("type")}
        legacy.pop("message", None)
        legacy.pop("retryable", None)
        details.update(legacy)  # exception-specific extras
        return {
            "v": version,
            "req_id": req_id,
            "ok": False,
            "error": {
                "code": error_code(exc),
                "message": str(exc),
                "retryable": error_retryable(exc),
                "details": details,
            },
        }
    return {"id": req_id, "ok": False, "error": error_payload(exc)}


def decode_response(line: bytes | str) -> dict[str, Any]:
    """Parse one response line (client side)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"response is not valid JSON: {exc}") from exc
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


def error_payload(exc: BaseException) -> dict[str, Any]:
    """The ``error`` object of a failure response."""
    if isinstance(exc, RelayedError):
        # Worker-side failure: re-emit the exact payload the worker
        # built, bit-compatible with the in-process path.
        return dict(exc.payload)
    payload: dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "retryable": error_retryable(exc),
    }
    if isinstance(exc, WorkerDiedError):
        payload["worker"] = exc.worker
    if isinstance(exc, DeadlineExceededError):
        payload["deadline_context"] = exc.context
    if isinstance(exc, (SessionNotFoundError, SessionEvictedError)):
        payload["session"] = exc.session_id
    if isinstance(exc, SessionEvictedError):
        # Restore-by-id is possible while the checkpoint survives; after
        # that the client falls back to recreate-and-replay.
        payload["restorable"] = bool(getattr(exc, "restorable", False))
    if isinstance(exc, ServiceOverloadedError):
        payload["retry_after_ms"] = exc.retry_after_ms
        payload["reason"] = exc.reason
    return payload


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
