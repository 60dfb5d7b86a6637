"""The backend seam between the socket front end and session hosting.

:class:`QueryServer` used to call a :class:`SessionManager` directly;
the worker pool needs the same wire surface to fan out across processes
instead.  This module names the seam: a **backend** is anything with

* ``dispatch(request) -> result dict`` — execute one decoded wire
  request (everything except protocol framing, which stays in the
  server, and ``shutdown`` plumbing, which stays in the server);
* ``drain(timeout) -> summary`` — refuse new mutating work, wait out
  in-flight requests, checkpoint sessions;
* ``close()`` — release process-level resources (worker processes, a
  temp basis or checkpoint directory); idempotent;
* ``graph_name`` — for the ``ping`` payload.

:class:`LocalDispatcher` is the in-process backend: the exact dispatch
body that lived in ``QueryServer._dispatch``, verb for verb, so
``--workers 0`` is bit-for-bit today's threaded path.  The pool backend
lives in :mod:`repro.service.pool.dispatcher`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import ProtocolError
from repro.obs.metrics import metrics
from repro.service import protocol
from repro.service.manager import DRAIN_TIMEOUT, SessionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage import StorageBackend

__all__ = ["LocalDispatcher"]


class LocalDispatcher:
    """In-process backend: one :class:`SessionManager`, no pipes.

    ``storage`` is the backend the manager's context was opened from
    (:func:`repro.service.host.open_host` over mmap), which this
    dispatcher then owns: :meth:`close` releases it.
    """

    def __init__(
        self, manager: SessionManager, storage: "StorageBackend | None" = None
    ) -> None:
        self.manager = manager
        self._storage = storage

    @property
    def graph_name(self) -> str:
        return self.manager.base_ctx.graph.name

    # -- backend API -----------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        manager = self.manager
        if op == "ping":
            return {
                "pong": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "graph": self.graph_name,
            }
        if op == "create_session":
            session = manager.create_session(
                strategy=request.get("strategy"),
                pruning=request.get("pruning"),
                max_results=request.get("max_results"),
                resilience=request.get("resilience"),
                deadline_seconds=request.get("deadline_seconds"),
                trace=request.get("trace"),
            )
            return {"session": session.id, "strategy": session.limits.strategy}
        if op == "metrics":
            if request.get("format") == "text":
                return {"text": metrics.render_text()}
            return {"metrics": metrics.snapshot()}
        if op == "stats":
            session_id = request.get("session")
            if session_id is None:
                return manager.stats()
            session = manager.get(str(session_id))
            with session.lock:
                return session.stats()
        if op == "shutdown":
            return {"stopping": True}
        if op == "update":
            kind = request.get("kind")
            if kind not in ("insert", "delete"):
                raise ProtocolError(
                    f"update 'kind' must be 'insert' or 'delete', got {kind!r}"
                )
            # The endpoints ride in an "edge" pair — a bare "v" key would
            # collide with the envelope's protocol-version field.
            edge = request.get("edge")
            if (
                not isinstance(edge, (list, tuple))
                or len(edge) != 2
                or any(isinstance(e, bool) or not isinstance(e, int) for e in edge)
            ):
                raise ProtocolError(
                    "update requires 'edge': a pair of integer vertex ids"
                )
            report = manager.apply_update(kind, edge[0], edge[1])
            return report.as_dict()

        # Everything else addresses one session.
        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ProtocolError(f"op {op!r} requires a 'session' string")
        if op == "restore_session":
            session = manager.restore_session(session_id)
            return {
                "session": session.id,
                "state": session.state,
                "strategy": session.limits.strategy,
                "restored": True,
            }
        if op == "action":
            report = manager.apply_action(
                session_id, protocol.wire_action(request.get("action"))
            )
            return protocol.report_payload(report)
        if op == "run":
            result = manager.run(session_id)
            session = manager.get(session_id)
            return protocol.run_payload(result, session.backlog_seconds)
        if op == "matches":
            return {"matches": protocol.match_block(manager.matches(session_id))}
        if op == "results":
            limit = request.get("limit")
            subgraphs = manager.results(
                session_id, limit=int(limit) if limit is not None else None
            )
            return {"results": [protocol.subgraph_payload(s) for s in subgraphs]}
        if op == "trace":
            return manager.trace(
                session_id, include_open=bool(request.get("include_open", True))
            )
        if op == "close_session":
            manager.close_session(session_id)
            return {"closed": session_id}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def drain(self, timeout: float | None = DRAIN_TIMEOUT) -> dict[str, object]:
        return self.manager.drain(timeout=timeout)

    def close(self) -> None:
        """Release the storage backend, if this dispatcher owns one."""
        if self._storage is not None:
            self._storage.close()
