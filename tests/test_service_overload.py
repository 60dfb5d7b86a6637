"""Backpressure: watermark shedding, queue depth, drain refusal, timeouts.

The overload layer's contract (docs/SERVICE.md): a *hard* budget refusal
stays :class:`AdmissionError`; everything transient — watermark pressure,
queue depth, draining — sheds with the retryable
:class:`ServiceOverloadedError` carrying a ``retry_after_ms`` hint that
:class:`ServiceClient` honors under a :class:`RetryPolicy`.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.actions import NewVertex
from repro.errors import (
    AdmissionError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.resilience import RetryPolicy
from repro.service import (
    OverloadPolicy,
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
)
from repro.service.client import RemoteServiceError


class TestOverloadPolicy:
    def test_session_threshold_rounds_up(self):
        policy = OverloadPolicy(session_watermark=0.85)
        assert policy.session_threshold(4) == 4  # ceil(3.4)
        assert policy.session_threshold(100) == 85
        assert policy.session_threshold(1) == 1  # never below one slot

    def test_cap_threshold_off_without_budget(self):
        assert OverloadPolicy().cap_threshold(None) is None
        assert OverloadPolicy(cap_watermark=0.5).cap_threshold(1000) == 500

    def test_shed_is_typed_and_retryable(self):
        error = OverloadPolicy(retry_after_ms=75).shed("sessions", "full")
        assert isinstance(error, ServiceOverloadedError)
        assert error.retryable is True
        assert error.retry_after_ms == 75
        assert error.reason == "sessions"

    def test_draining_shed_uses_slower_hint(self):
        policy = OverloadPolicy(retry_after_ms=50, retry_after_draining_ms=400)
        assert policy.shed("draining", "drain in progress").retry_after_ms == 400

    def test_validation(self):
        with pytest.raises(ValueError):
            OverloadPolicy(session_watermark=0.0)
        with pytest.raises(ValueError):
            OverloadPolicy(cap_watermark=1.5)
        with pytest.raises(ValueError):
            OverloadPolicy(retry_after_ms=-1)


@pytest.fixture()
def tight_manager(fig2_ctx):
    """Two slots, watermark at one: the second busy session sheds."""
    return SessionManager(
        fig2_ctx,
        ServeConfig(
            max_sessions=2,
            overload=OverloadPolicy(session_watermark=0.5, retry_after_ms=20),
        ),
    )


class TestManagerShedding:
    def test_watermark_shed_when_nothing_evictable(self, tight_manager):
        first = tight_manager.create_session()
        assert first.lock.acquire(blocking=False)  # pin: not evictable
        try:
            with pytest.raises(ServiceOverloadedError) as info:
                tight_manager.create_session()
            assert info.value.reason == "sessions"
            assert info.value.retry_after_ms == 20
            assert tight_manager.stats_counters.requests_shed == 1
        finally:
            first.lock.release()

    def test_watermark_evicts_idle_instead_of_shedding(self, tight_manager):
        first = tight_manager.create_session()
        second = tight_manager.create_session()  # evicts idle `first`
        assert second.id != first.id
        assert tight_manager.session_ids() == [second.id]
        # The reclaimed session was checkpointed, not dropped.
        assert tight_manager.checkpoints.get(first.id) is not None

    def test_hard_budget_still_admission_error(self, fig2_ctx):
        manager = SessionManager(
            fig2_ctx,
            ServeConfig(max_sessions=1, overload=OverloadPolicy(session_watermark=1.0)),
        )
        session = manager.create_session()
        assert session.lock.acquire(blocking=False)
        try:
            with pytest.raises(AdmissionError):
                manager.create_session()
        finally:
            session.lock.release()

    def test_queue_depth_sheds_mutating_work(self, fig2_ctx):
        manager = SessionManager(
            fig2_ctx, ServeConfig(overload=OverloadPolicy(max_inflight=1))
        )
        session = manager.create_session()
        with manager._track_request():  # occupy the only in-flight slot
            with pytest.raises(ServiceOverloadedError) as info:
                manager.create_session()
            assert info.value.reason == "queue"
            # Read-only verbs are never shed by queue depth.
            assert manager.stats()["open_sessions"] == 1
        manager.apply_action(session.id, NewVertex(0, "A"))  # slot free again

    def test_draining_sheds_mutating_but_serves_reads(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(overload=OverloadPolicy()))
        session = manager.create_session()
        manager.apply_action(session.id, NewVertex(0, "A"))
        manager.begin_drain()
        try:
            with pytest.raises(ServiceOverloadedError) as info:
                manager.create_session()
            assert info.value.reason == "draining"
            with pytest.raises(ServiceOverloadedError):
                manager.apply_action(session.id, NewVertex(1, "B"))
            # Reads still pass while draining.
            assert manager.stats()["draining"] is True
            assert session.id in manager.session_ids()
        finally:
            manager.end_drain()
        manager.apply_action(session.id, NewVertex(1, "B"))

    def test_shed_without_policy_never_fires(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1, overload=None))
        session = manager.create_session()
        assert session.lock.acquire(blocking=False)
        try:
            with pytest.raises(AdmissionError):
                manager.create_session()
        finally:
            session.lock.release()


class TestOverloadOnTheWire:
    @pytest.fixture()
    def overloaded(self, fig2_ctx):
        manager = SessionManager(
            fig2_ctx,
            ServeConfig(
                max_sessions=2,
                overload=OverloadPolicy(session_watermark=0.5, retry_after_ms=10),
            ),
        )
        server = QueryServer(manager, host="127.0.0.1", port=0).start()
        yield server, manager
        server.stop()

    def test_shed_carries_code_and_hint(self, overloaded):
        server, manager = overloaded
        pinned = manager.create_session()
        assert pinned.lock.acquire(blocking=False)
        try:
            with ServiceClient(*server.address) as client:
                with pytest.raises(RemoteServiceError) as info:
                    client.create_session()
            assert info.value.code == "overloaded"
            assert info.value.retryable is True
            details = info.value.payload["details"]
            assert details["retry_after_ms"] == 10
            assert details["reason"] == "sessions"
        finally:
            pinned.lock.release()

    def test_client_retries_shed_to_success(self, overloaded):
        server, manager = overloaded
        pinned = manager.create_session()
        assert pinned.lock.acquire(blocking=False)
        release = threading.Timer(0.05, pinned.lock.release)
        release.start()
        try:
            policy = RetryPolicy(max_attempts=10, base_delay=0.01)
            with ServiceClient(*server.address, retry_policy=policy) as client:
                session_id = client.create_session()
            assert session_id  # shed at first, admitted once the pin lifted
            assert manager.stats_counters.requests_shed >= 1
        finally:
            release.join()

    def test_exhausted_retries_surface_the_typed_error(self, overloaded):
        server, manager = overloaded
        pinned = manager.create_session()
        assert pinned.lock.acquire(blocking=False)
        try:
            policy = RetryPolicy(max_attempts=2, base_delay=0.001)
            with ServiceClient(*server.address, retry_policy=policy) as client:
                with pytest.raises(RemoteServiceError) as info:
                    client.create_session()
            # The policy wrapper is unwrapped: callers switch on the code.
            assert info.value.code == "overloaded"
        finally:
            pinned.lock.release()


class TestClientTimeout:
    @pytest.fixture()
    def hung_server(self):
        """Accepts connections, reads requests, never answers."""
        listener = socket.create_server(("127.0.0.1", 0))
        stop = threading.Event()

        def serve():
            conns = []
            listener.settimeout(0.05)
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except TimeoutError:
                    continue
                conn.settimeout(0.05)
                conns.append(conn)
            for conn in conns:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield listener.getsockname()
        stop.set()
        thread.join()
        listener.close()

    def test_hung_read_is_typed_and_retryable(self, hung_server):
        client = ServiceClient(*hung_server, timeout=0.2)
        begin = time.monotonic()
        with pytest.raises(ServiceTimeoutError) as info:
            client.ping()
        assert time.monotonic() - begin < 5.0  # bounded, not hung
        assert info.value.retryable is True
        assert isinstance(info.value, TimeoutError)
        client.close()

    def test_connection_is_dirty_after_timeout(self, hung_server):
        client = ServiceClient(*hung_server, timeout=0.2)
        with pytest.raises(ServiceTimeoutError):
            client.ping()
        # The stream is undefined now: fail fast, don't guess.
        with pytest.raises(ServiceError, match="reconnect"):
            client.ping()
        client.close()

    def test_shutdown_read_is_bounded(self, hung_server):
        client = ServiceClient(*hung_server, timeout=0.2)
        with pytest.raises(ServiceTimeoutError):
            client.shutdown()
        client.close()
