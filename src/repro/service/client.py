"""In-repo client for the ``repro serve`` wire protocol.

Blocking, line-oriented, dependency-free — the reference implementation
of the protocol in docs/SERVICE.md and the driver used by the CI smoke
job, the concurrency tests, and the ``perf/`` ledger.

    with ServiceClient(host, port) as client:
        sid = client.create_session(strategy="DI")
        for action in actions:        # recording-format dicts or Actions
            client.action(sid, action)
        summary = client.run(sid)
        matches = client.matches(sid)

Server-side failures surface as :class:`RemoteServiceError` carrying the
stable v2 error code (``error.code``), the original exception class name
(``error.remote_type``), and whether the server considers the condition
retryable (eviction, admission refusals, overload sheds).

Resilience knobs (both optional, both off by default so existing callers
see exactly the old behavior):

* ``retry_policy`` — a :class:`~repro.resilience.RetryPolicy`; retryable
  server verdicts (``overloaded``, ``admission_refused``) are retried
  under it, honoring the server's ``retry_after_ms`` back-off hint.
  Transport timeouts are *not* silently retried — after a timeout the
  byte stream is undefined (a late response would misalign correlation
  ids), so they surface as the typed, retryable
  :class:`~repro.errors.ServiceTimeoutError` and the caller reconnects.
* ``auto_restore`` — on a ``session_evicted`` verdict whose checkpoint
  is still held server-side (``details.restorable``), issue
  ``restore_session`` and retry the original request transparently.

Every request carries the ``v``/``req_id`` envelope and every response
must echo that ``req_id``.
"""

from __future__ import annotations

import socket
import time
from typing import Any

from repro.core.actions import Action
from repro.errors import (
    RetryExhaustedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.resilience import RetryPolicy
from repro.service import protocol

__all__ = ["ServiceClient", "RemoteServiceError"]


class _TransientServiceFailure(Exception):
    """Internal retry carrier.

    :class:`~repro.resilience.RetryPolicy` never retries
    :class:`~repro.errors.ReproError` (library-logic failures repeat
    deterministically) — but a remote ``overloaded`` verdict is the one
    ReproError that is transient *by contract*.  Wrapping it in a plain
    Exception lets the unmodified policy retry it; the loop unwraps the
    typed error again before it ever reaches the caller.
    """

    def __init__(self, error: ServiceError) -> None:
        super().__init__(str(error))
        self.error = error


class RemoteServiceError(ServiceError):
    """A failure response from the service, rehydrated client-side from
    its ``error`` object (``payload``): ``code``, ``retryable`` and, under
    ``details``, the server-side class name and the exception's extras."""

    def __init__(self, payload: dict[str, Any]) -> None:
        details = payload.get("details")
        self.details: dict[str, Any] = details if isinstance(details, dict) else {}
        self.code = str(payload.get("code", "")) or None
        self.remote_type = str(self.details.get("type") or "UnknownError")
        self.retryable = bool(payload.get("retryable", False))
        self.payload = payload
        super().__init__(f"{self.remote_type}: {payload.get('message', '')}")


class ServiceClient:
    """One connection to a :class:`~repro.service.server.QueryServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retry_policy: RetryPolicy | None = None,
        auto_restore: bool = False,
    ) -> None:
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.auto_restore = auto_restore
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0
        self._dirty = False  # stream undefined after a timeout

    # -- plumbing --------------------------------------------------------
    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one v2 request, wait for its response, return ``result``.

        Without a ``retry_policy`` this is one round-trip, exactly the
        pre-backpressure behavior.  With one, retryable verdicts are
        retried under the policy (sleeping the server's ``retry_after_ms``
        hint first); on exhaustion the *typed* last error is raised, not
        the policy's wrapper, so callers always switch on stable codes.
        """
        if self.retry_policy is None:
            try:
                return self._attempt(op, params)
            except _TransientServiceFailure as exc:
                raise exc.error from exc.error.__cause__
        try:
            return self.retry_policy.call(
                self._attempt,
                op,
                params,
                on_retry=self._sleep_server_hint,
                label=f"service op {op!r}",
            )
        except RetryExhaustedError as exc:
            if isinstance(exc.last_error, _TransientServiceFailure):
                raise exc.last_error.error from exc
            raise

    def _attempt(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        """One request round-trip, with retryable verdicts wrapped."""
        try:
            return self._request_once(op, params)
        except RemoteServiceError as exc:
            if exc.code == "session_evicted":
                session = params.get("session")
                if (
                    self.auto_restore
                    and op != "restore_session"
                    and isinstance(session, str)
                    and exc.details.get("restorable")
                ):
                    # Resume the evicted session by id, then let the
                    # policy re-issue the original request against it.
                    self._request_once("restore_session", {"session": session})
                    raise _TransientServiceFailure(exc) from exc
                raise
            if exc.retryable:
                raise _TransientServiceFailure(exc) from exc
            raise

    def _request_once(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        if self._dirty:
            raise ServiceError(
                "connection state undefined after a timeout; reconnect"
            )
        self._next_id += 1
        payload = {
            "v": protocol.PROTOCOL_VERSION,
            "req_id": self._next_id,
            "op": op,
            **params,
        }
        try:
            self._file.write(protocol.encode_line(payload))
            self._file.flush()
            line = self._file.readline()
        except TimeoutError as exc:  # socket.timeout: hung/partitioned peer
            self._dirty = True
            raise ServiceTimeoutError(op, self.timeout) from exc
        if not line:
            raise ServiceError("server closed the connection mid-request")
        response = protocol.decode_response(line)
        echoed = response.get("req_id")
        if echoed != self._next_id:
            raise ServiceError(
                f"response id {echoed!r} does not match "
                f"request id {self._next_id}"
            )
        if not response.get("ok"):
            raise RemoteServiceError(response.get("error") or {})
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    def _sleep_server_hint(self, attempt: int, exc: BaseException) -> None:
        """Honor the server's ``retry_after_ms`` before the policy backoff."""
        error = getattr(exc, "error", exc)
        if isinstance(error, RemoteServiceError):
            hint = error.details.get("retry_after_ms")
            if isinstance(hint, (int, float)) and hint > 0:
                time.sleep(float(hint) / 1000.0)

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations ------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def create_session(
        self,
        strategy: str | None = None,
        pruning: bool | None = None,
        max_results: int | None = None,
        resilience: str | None = None,
        deadline_seconds: float | None = None,
        trace: bool | None = None,
    ) -> str:
        """Create a session; returns its id."""
        params: dict[str, Any] = {}
        if strategy is not None:
            params["strategy"] = strategy
        if pruning is not None:
            params["pruning"] = pruning
        if max_results is not None:
            params["max_results"] = max_results
        if resilience is not None:
            params["resilience"] = resilience
        if deadline_seconds is not None:
            params["deadline_seconds"] = deadline_seconds
        if trace is not None:
            params["trace"] = trace
        return str(self.request("create_session", **params)["session"])

    def action(self, session: str, action: Action | dict[str, Any]) -> dict[str, Any]:
        """Apply one formulation action (an Action or a recording dict)."""
        payload = (
            protocol.action_payload(action)
            if isinstance(action, Action)
            else action
        )
        return self.request("action", session=session, action=payload)

    def run(self, session: str) -> dict[str, Any]:
        """Click Run; returns the run summary (SRT, degradation, sizes)."""
        return self.request("run", session=session)

    def matches(self, session: str) -> list[list[list[int]]]:
        """Canonicalized ``V_Δ`` of a completed session."""
        return self.request("matches", session=session)["matches"]

    def results(self, session: str, limit: int | None = None) -> list[dict[str, Any]]:
        """Validated result subgraphs (assignment + displayed paths)."""
        params: dict[str, Any] = {"session": session}
        if limit is not None:
            params["limit"] = limit
        return self.request("results", **params)["results"]

    def stats(self, session: str | None = None) -> dict[str, Any]:
        """Service-level stats, or one session's when ``session`` given."""
        if session is None:
            return self.request("stats")
        return self.request("stats", session=session)

    def trace(self, session: str, include_open: bool = True) -> dict[str, Any]:
        """A session's span timeline: spans + summary + SRT decomposition."""
        return self.request("trace", session=session, include_open=include_open)

    def metrics(self, format: str | None = None) -> dict[str, Any]:
        """The process-wide metrics registry (snapshot, or text exposition)."""
        if format is None:
            return self.request("metrics")
        return self.request("metrics", format=format)

    def update(self, kind: str, u: int, v: int) -> dict[str, Any]:
        """Apply one data-graph edge update (``kind`` is insert/delete).

        Returns the server's :class:`~repro.updates.UpdateReport` payload
        (new epoch, maintenance strategy, label/cache churn).  In-flight
        requests finish on the old epoch; requests issued after this call
        returns see the new one.  A busy server may shed the update with
        the retryable ``overloaded`` verdict; behind a worker pool the
        verb is refused outright (``worker_pool``).
        """
        return self.request("update", kind=kind, edge=[int(u), int(v)])

    def close_session(self, session: str) -> dict[str, Any]:
        return self.request("close_session", session=session)

    def restore_session(self, session: str) -> dict[str, Any]:
        """Resume an evicted/drained session by id from its checkpoint."""
        return self.request("restore_session", session=session)

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop after acknowledging.

        The read is bounded by the connection's socket timeout: a server
        that hangs instead of acking surfaces as the typed, retryable
        :class:`~repro.errors.ServiceTimeoutError` rather than blocking
        this client forever.
        """
        return self.request("shutdown")

    # -- conveniences ----------------------------------------------------
    def scripted_session(
        self,
        actions: list[Action] | list[dict[str, Any]],
        **session_params: Any,
    ) -> dict[str, Any]:
        """Create → formulate → Run in one call.

        ``actions`` must *not* include the final Run (the server's ``run``
        op is the Run click).  Returns ``{"session", "run", "matches"}``.
        """
        sid = self.create_session(**session_params)
        for action in actions:
            self.action(sid, action)
        summary = self.run(sid)
        matches = self.matches(sid)
        return {"session": sid, "run": summary, "matches": matches}
