"""Wire-level tests: QueryServer + ServiceClient over a real socket.

Everything here exercises the actual TCP path (bind to an ephemeral
127.0.0.1 port), because the framing, error mapping, and shutdown
handshake are exactly the parts a manager-only test cannot see.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.graph.io import save_edge_list
from repro.service import (
    PROTOCOL_VERSION,
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
    canonical_matches,
)
from repro.service.client import RemoteServiceError
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
def server(fig2_ctx):
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0).start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


def test_ping(client, fig2_ctx):
    pong = client.ping()
    assert pong["pong"] is True
    assert pong["protocol"] == PROTOCOL_VERSION
    assert pong["graph"] == fig2_ctx.graph.name


def test_scripted_session_matches_direct_boomer(client, fig2_ctx):
    outcome = client.scripted_session(FIG2_ACTIONS, strategy="DI")
    assert outcome["run"]["num_matches"] > 0

    boomer = Boomer(fig2_ctx, strategy="DI", auto_idle=False)
    for action in FIG2_ACTIONS:
        boomer.apply(action)
    boomer.apply(Run())
    assert outcome["matches"] == canonical_matches(boomer.run_result.matches)


def test_results_travel_validated(client):
    outcome = client.scripted_session(FIG2_ACTIONS)
    subgraphs = client.results(outcome["session"], limit=3)
    assert 0 < len(subgraphs) <= 3
    for sub in subgraphs:
        assert [pair[0] for pair in sub["assignment"]] == [0, 1, 2]
        assert sub["paths"]


def test_bad_json_is_answered_not_fatal(server):
    with socket.create_connection(server.address, timeout=10) as sock:
        f = sock.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        response = json.loads(f.readline())
        assert response["ok"] is False and response["req_id"] is None
        assert response["error"]["code"] == "bad_request"
        assert response["error"]["details"]["type"] == "ProtocolError"
        # Same connection still serves valid requests afterwards.
        f.write(b'{"v": 2, "req_id": 1, "op": "ping"}\n')
        f.flush()
        response = json.loads(f.readline())
        assert response["ok"] is True and response["req_id"] == 1


@pytest.mark.parametrize("terminated", [True, False], ids=["newline", "no-newline"])
def test_oversize_request_line_is_refused_and_the_connection_closed(server, terminated):
    """A line past the frame cap is never buffered whole: one typed error
    frame, then EOF; the server keeps serving other connections."""
    from repro.service.server import MAX_REQUEST_BYTES

    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(b'{"v": 2, "req_id": 1, "op": "ping", "pad": "' + b"x" * MAX_REQUEST_BYTES)
        if terminated:
            sock.sendall(b'"}\n{"v": 2, "req_id": 2, "op": "ping"}\n')
        else:
            sock.shutdown(socket.SHUT_WR)
        f = sock.makefile("rb")
        response = json.loads(f.readline())
        assert response["ok"] is False and response["req_id"] is None
        assert response["error"]["code"] == "bad_request"
        assert str(MAX_REQUEST_BYTES) in response["error"]["message"]
        try:  # closed: the ping behind it is not served
            assert f.readline() == b""
        except ConnectionResetError:
            pass  # closed with that ping still unread in the kernel's buffer
    with ServiceClient(*server.address) as other:
        assert other.ping()["pong"] is True


def test_a_request_line_at_the_cap_is_served(server):
    from repro.service.server import MAX_REQUEST_BYTES

    head = b'{"v": 2, "req_id": 1, "op": "ping", "pad": "'
    line = head + b"x" * (MAX_REQUEST_BYTES - len(head) - 3) + b'"}\n'
    assert len(line) == MAX_REQUEST_BYTES
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(line)
        assert json.loads(sock.makefile("rb").readline())["result"]["pong"] is True


def test_unknown_op_is_protocol_error(client):
    with pytest.raises(RemoteServiceError) as excinfo:
        client.request("frobnicate")
    assert excinfo.value.remote_type == "ProtocolError"
    assert not excinfo.value.retryable


def test_unknown_session_vs_evicted_retryability(fig2_ctx):
    srv = QueryServer(
        SessionManager(fig2_ctx, ServeConfig(max_sessions=1)),
        host="127.0.0.1",
        port=0,
    ).start()
    try:
        with ServiceClient(*srv.address) as client:
            first = client.create_session()
            client.create_session()  # evicts `first` (LRU, max_sessions=1)
            with pytest.raises(RemoteServiceError) as evicted:
                client.action(first, FIG2_ACTIONS[0])
            assert evicted.value.remote_type == "SessionEvictedError"
            assert evicted.value.retryable  # recreate-and-replay
            with pytest.raises(RemoteServiceError) as unknown:
                client.action("s999", FIG2_ACTIONS[0])
            assert unknown.value.remote_type == "SessionNotFoundError"
            assert not unknown.value.retryable
    finally:
        srv.stop()


def test_stats_over_the_wire(client):
    outcome = client.scripted_session(FIG2_ACTIONS)
    service = client.stats()
    assert service["open_sessions"] == 1
    assert service["sessions_created"] == 1
    session = client.stats(outcome["session"])
    assert session["state"] == "ran"
    assert session["run"]["num_matches"] == outcome["run"]["num_matches"]


def test_close_session_frees_the_slot(client):
    outcome = client.scripted_session(FIG2_ACTIONS)
    client.close_session(outcome["session"])
    assert client.stats()["open_sessions"] == 0
    with pytest.raises(RemoteServiceError) as excinfo:
        client.matches(outcome["session"])
    assert excinfo.value.remote_type == "SessionNotFoundError"


def test_shutdown_op_stops_the_server(fig2_ctx):
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0).start()
    with ServiceClient(*srv.address) as client:
        assert client.shutdown() == {"stopping": True}
    assert srv.shutdown_requested
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            socket.create_connection(srv.address, timeout=0.2).close()
        except OSError:
            break  # accept loop is gone
        time.sleep(0.05)
    else:
        pytest.fail("server still accepting after shutdown op")
    srv.stop()  # idempotent


def test_shutdown_ack_carries_no_internal_marker(fig2_ctx):
    """The handler's ``_close`` marker ends the connection, off the wire."""
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0).start()
    try:
        with socket.create_connection(srv.address, timeout=10) as sock:
            f = sock.makefile("rwb")
            f.write(b'{"v": 2, "req_id": 7, "op": "shutdown"}\n')
            f.flush()
            ack = json.loads(f.readline())
            assert sorted(ack) == ["ok", "req_id", "result", "v"]
            assert ack["ok"] is True and ack["req_id"] == 7
            assert ack["result"] == {"stopping": True}
            assert f.readline() == b""  # the server closed the connection
    finally:
        srv.stop()


def test_stop_twice_is_a_safe_noop(fig2_ctx):
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0).start()
    summary = srv.stop()
    assert summary is not None  # first stop drains and reports
    for _ in range(3):
        assert srv.stop() is None  # later stops: no second drain, no hang


def test_stop_before_serve_forever_does_not_hang(fig2_ctx):
    """stop() racing (or beating) serve_forever startup must not deadlock.

    socketserver's shutdown() blocks forever if serve_forever never ran;
    the lifecycle latch has to close the socket directly in that case.
    """
    srv = QueryServer(SessionManager(fig2_ctx), host="127.0.0.1", port=0)
    done = threading.Event()

    def stopper():
        srv.stop()
        done.set()

    thread = threading.Thread(target=stopper, daemon=True)
    thread.start()
    assert done.wait(timeout=5.0), "stop() hung without serve_forever"
    thread.join()
    with pytest.raises(OSError):
        socket.create_connection(srv.address, timeout=0.2).close()


def test_stop_drains_and_checkpoints_idle_sessions(fig2_ctx):
    manager = SessionManager(fig2_ctx)
    srv = QueryServer(manager, host="127.0.0.1", port=0).start()
    with ServiceClient(*srv.address) as client:
        sid = client.create_session()
        for action in FIG2_ACTIONS:
            client.action(sid, action)
    summary = srv.stop()
    assert summary["checkpointed"] == [sid]
    assert summary["busy"] == []
    assert manager.session_ids() == []
    assert manager.checkpoints.get(sid) is not None
    # The drained session is resumable, not lost.
    manager.end_drain()
    restored = manager.restore_session(sid)
    assert restored.actions_applied == len(FIG2_ACTIONS)


def test_stop_without_drain_skips_checkpointing(fig2_ctx):
    manager = SessionManager(fig2_ctx)
    srv = QueryServer(manager, host="127.0.0.1", port=0).start()
    with ServiceClient(*srv.address) as client:
        sid = client.create_session()
    assert srv.stop(drain=False) is None
    assert manager.checkpoints.get(sid) is None


def test_drain_waits_for_inflight_reads(fig2_ctx):
    """Drain must not close sessions out from under an in-flight request."""
    manager = SessionManager(fig2_ctx)
    srv = QueryServer(manager, host="127.0.0.1", port=0).start()
    with ServiceClient(*srv.address) as client:
        sid = client.create_session()
        for action in FIG2_ACTIONS:
            client.action(sid, action)
        client.run(sid)
        release = threading.Event()
        entered = threading.Event()

        def slow_read():
            with manager._track_request(mutating=False):
                entered.set()
                release.wait(timeout=5.0)

        reader = threading.Thread(target=slow_read, daemon=True)
        reader.start()
        assert entered.wait(timeout=5.0)
        stopper = threading.Thread(target=srv.stop, daemon=True)
        stopper.start()
        time.sleep(0.05)
        assert stopper.is_alive()  # drain is waiting on the in-flight read
        release.set()
        reader.join(timeout=5.0)
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
    assert manager.checkpoints.get(sid) is not None


def test_cli_serve_subprocess_smoke(tmp_path):
    """End-to-end: `python -m repro serve` driven by the in-repo client."""
    graph_path = tmp_path / "fig2.txt"
    save_edge_list(build_fig2_graph(), graph_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--graph", str(graph_path),
            "--port", "0",
            "--t-avg-samples", "50",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("serving on "), banner
        host, port = banner.removeprefix("serving on ").rsplit(":", 1)
        with ServiceClient(host, int(port), timeout=30.0) as client:
            outcome = client.scripted_session(FIG2_ACTIONS, strategy="DI")
            assert outcome["run"]["num_matches"] > 0
            client.shutdown()
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
