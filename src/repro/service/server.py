"""JSON-lines-over-TCP front end for the :class:`SessionManager`.

A deliberately thin layer: sockets and framing only — every decision
(admission, scheduling, eviction, resilience) lives in the manager so it
is testable without a socket in sight.  One OS thread per connection
(:class:`socketserver.ThreadingTCPServer`); concurrency across sessions
comes from the manager's per-session locking, so two clients formulating
different queries genuinely overlap on the shared oracle.

Start one with ``python -m repro serve`` (see :mod:`repro.cli`) or embed
it::

    server = QueryServer(manager, host="127.0.0.1", port=0)
    server.start()                   # background thread
    ... ServiceClient(*server.address) ...
    server.stop()

The ``shutdown`` op stops the whole server after acknowledging — that is
what gives scripted drivers (CI smoke job, benchmarks) a clean,
assertable exit.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any

from repro.errors import ProtocolError
from repro.obs import clock
from repro.obs.metrics import metrics
from repro.service import protocol
from repro.service.dispatch import LocalDispatcher
from repro.service.manager import DRAIN_TIMEOUT, SessionManager

__all__ = ["QueryServer", "MAX_REQUEST_BYTES"]

#: Longest request line the server buffers, newline included.  A whole
#: session sends about 1.5 KB of requests; only replies are large.
MAX_REQUEST_BYTES = 1 << 20


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines, write response lines."""

    server: "_TCPServer"

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
                oversize = len(line) > MAX_REQUEST_BYTES
                while oversize and line and not line.endswith(b"\n"):
                    # Read past the rest of it, keeping nothing, so that the
                    # reply below is not lost to a reset on close.
                    line = self.rfile.readline(MAX_REQUEST_BYTES)
            except (ConnectionError, OSError):
                return
            if oversize:
                response = self.server.query_server.refuse_oversize_line()
            elif not line:
                return  # client closed the connection
            elif not line.strip():
                continue
            else:
                response = self.server.query_server.handle_line(line)
            # Handler-internal marker (set on the shutdown ack and on a
            # refused line): it ends this connection and must not reach
            # the wire.
            close = response.pop("_close", False)
            try:
                self.wfile.write(protocol.encode_line(response))
                self.wfile.flush()
            except (ConnectionError, OSError):
                return
            if close:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    query_server: "QueryServer"


class QueryServer:
    """The ``repro serve`` engine: a manager behind a line protocol."""

    def __init__(
        self,
        manager: SessionManager | Any,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        #: Anything implementing the dispatch/drain/close seam
        #: (:mod:`repro.service.dispatch`), as
        #: :func:`~repro.service.host.open_host` returns it; a bare
        #: manager is the in-process path and gets its dispatcher here.
        self.backend = (
            LocalDispatcher(manager)
            if isinstance(manager, SessionManager)
            else manager
        )
        self._tcp = _TCPServer((host, port), _Handler)
        self._tcp.query_server = self
        self._thread: threading.Thread | None = None
        self._shutdown_requested = threading.Event()
        #: Guards the serve/stop handshake: ``_serving`` is only read or
        #: written under it, which closes the startup race where stop()
        #: would call ``_tcp.shutdown()`` before ``serve_forever`` ever
        #: ran (socketserver's shutdown handshake waits on an event only
        #: the serve loop sets — calling it on a never-started server
        #: blocks forever).
        self._lifecycle = threading.Lock()
        self._serving = False
        #: Serializes concurrent stop() calls (second becomes a no-op).
        self._stop_lock = threading.Lock()
        self._stopped = False
        self._drain_summary: dict[str, object] | None = None

    # -- lifecycle -------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        host, port = self._tcp.server_address[:2]
        return str(host), int(port)

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`stop` or a ``shutdown`` op."""
        with self._lifecycle:
            if self._shutdown_requested.is_set():
                # stop() won the race: never enter the accept loop.
                self._tcp.server_close()
                return
            self._serving = True
        try:
            self._tcp.serve_forever(poll_interval=0.05)
        finally:
            self._tcp.server_close()

    def start(self) -> "QueryServer":
        """Serve on a daemon thread (embedding / tests); returns self."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> dict[str, object] | None:
        """Stop the server (idempotent; safe to race ``serve_forever``).

        With ``drain=True`` (default) the first stop() runs the graceful
        sequence before the accept loop unwinds: the manager refuses new
        mutating work (typed retryable ``draining`` sheds), in-flight
        requests retire at their own pace — a long Run still hits its
        cooperative :class:`~repro.resilience.Deadline` checkpoint —
        bounded by :data:`~repro.service.manager.DRAIN_TIMEOUT`, and every
        idle session is checkpointed for restore-by-id instead of
        dropped.  Returns the
        drain summary on the stop() that performed it, else None.

        Subsequent stop() calls (including stop() after the wire
        ``shutdown`` op already unwound the loop, or stop() on a server
        whose ``serve_forever`` never started) are safe no-ops.
        """
        with self._stop_lock:
            first = not self._stopped
            self._stopped = True
            self._shutdown_requested.set()
            if first:
                if drain:
                    self._drain_summary = self.backend.drain(timeout=DRAIN_TIMEOUT)
                self.backend.close()
            summary = self._drain_summary if first else None
            with self._lifecycle:
                if self._serving:
                    # Safe even if the accept loop is not in its while
                    # body yet: socketserver latches the shutdown request
                    # and the loop exits on entry.
                    self._tcp.shutdown()
                else:
                    self._tcp.server_close()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
            self._thread = None
        return summary

    @property
    def shutdown_requested(self) -> bool:
        """True once a client sent the ``shutdown`` op (or stop() ran)."""
        return self._shutdown_requested.is_set()

    # -- dispatch --------------------------------------------------------
    def handle_line(self, line: bytes) -> dict[str, Any]:
        """Decode one request line and produce the response payload.

        Every request — success or failure — lands in the per-verb
        service latency histogram ``repro_service_request_seconds``.
        """
        started = clock.now()
        op = "invalid"
        request: dict[str, Any] | None = None
        try:
            request = protocol.decode_request(line)
            op = request["op"]
            result = self.backend.dispatch(request)
        except Exception as exc:
            # ReproError: typed service verdicts. Anything else: an engine
            # bug — still reported, the server stays up.
            req_id = (
                request.get("req_id")
                if request is not None
                else protocol.best_effort_id(line)
            )
            self._observe(op, started, ok=False)
            return protocol.error_response(req_id, exc)
        self._observe(op, started, ok=True)
        response = protocol.ok_response(request.get("req_id"), result)
        if op == "shutdown":
            response["_close"] = True
            # Ack first, then run the full graceful stop (drain +
            # checkpoint + accept-loop unwind) from another thread —
            # serve_forever cannot be stopped from a handler thread it
            # itself is blocking, and the requester deserves its ack
            # before admission closes.
            self._shutdown_requested.set()
            threading.Thread(target=self.stop, daemon=True).start()
        return response

    def refuse_oversize_line(self) -> dict[str, Any]:
        """The reply to a request line longer than :data:`MAX_REQUEST_BYTES`:
        the typed ``bad_request`` envelope, after which the handler closes
        the connection (the line was never parsed, so there is no id to
        echo)."""
        self._observe("invalid", clock.now(), ok=False)
        response = protocol.error_response(
            None, ProtocolError(f"request line exceeds {MAX_REQUEST_BYTES} bytes")
        )
        response["_close"] = True
        return response

    @staticmethod
    def _observe(op: str, started: float, ok: bool) -> None:
        metrics.counter(
            "repro_service_requests_total",
            "wire requests by verb and outcome",
            op=op,
            ok=str(ok).lower(),
        ).inc()
        metrics.histogram(
            "repro_service_request_seconds",
            "service-side latency per wire verb",
            op=op,
        ).observe(clock.now() - started)
