"""Worker pool: sticky routing, one saved basis, death/requeue, parity.

The pool's acceptance bar is the threaded path's, verbatim: identical
matches, identical error codes, identical restore semantics — plus the
process-level guarantees only it makes (respawn after SIGKILL, requeue
from disk checkpoints, no temp basis directory left behind).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.errors import RelayedError, StorageError
from repro.service import ServeConfig, open_host
from repro.service import protocol
from repro.storage import attach, basis_from_context, open_backend

FIG2_WIRE_ACTIONS = [
    {"kind": "NewVertex", "vertex_id": 0, "label": "A"},
    {"kind": "NewVertex", "vertex_id": 1, "label": "B"},
    {"kind": "NewEdge", "u": 0, "v": 1, "lower": 1, "upper": 1},
    {"kind": "NewVertex", "vertex_id": 2, "label": "C"},
    {"kind": "NewEdge", "u": 1, "v": 2, "lower": 1, "upper": 2},
    {"kind": "NewEdge", "u": 0, "v": 2, "lower": 1, "upper": 3},
]


def formulate_and_run(backend, sid):
    for action in FIG2_WIRE_ACTIONS:
        backend.dispatch({"op": "action", "session": sid, "action": action})
    backend.dispatch({"op": "run", "session": sid})
    return backend.dispatch({"op": "matches", "session": sid})["matches"]


@pytest.fixture()
def pool(fig2_ctx):
    dispatcher = open_host(fig2_ctx, ServeConfig(workers=2, max_sessions=8))
    yield dispatcher
    dispatcher.close()


def await_repair(pool, min_requeued=0, deadline_seconds=30.0):
    """Poll the pool's stats until a killed worker is replaced and its
    sessions are accounted for; returns the ``pool`` stats block."""
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        stats = pool.dispatch({"op": "stats"})["pool"]
        if (
            stats["workers_respawned"] >= 1
            and stats["alive"] == 2
            and stats["sessions_requeued"] + stats["requeue_failures"]
            >= min_requeued
        ):
            return stats
        time.sleep(0.05)
    raise AssertionError("pool did not repair within the deadline")


class TestSharedContext:
    def test_publish_attach_round_trip(self, fig2_ctx, tmp_path):
        """A context attached from the spec answers exactly like the original."""
        backend = open_backend(
            "mmap", basis=basis_from_context(fig2_ctx), directory=tmp_path / "b"
        )
        shared_ctx = attach(backend.spec())
        graph = shared_ctx.graph
        assert graph.num_vertices == fig2_ctx.graph.num_vertices
        assert graph.num_edges == fig2_ctx.graph.num_edges
        assert list(graph.labels()) == list(fig2_ctx.graph.labels())
        for u in range(graph.num_vertices):
            for v in range(graph.num_vertices):
                assert shared_ctx.oracle.distance(u, v) == fig2_ctx.oracle.distance(
                    u, v
                )
        assert (
            shared_ctx.oracle.total_label_entries()
            == fig2_ctx.oracle.total_label_entries()
        )

    def test_publish_requires_pml(self, fig2_ctx):
        """Only a PML index has arrays to save — the same refusal however
        the basis would have been hosted."""
        from dataclasses import replace

        class NotPML:
            pass

        for config in (ServeConfig(workers=1), ServeConfig(storage="mmap")):
            with pytest.raises(StorageError, match="PML"):
                open_host(replace(fig2_ctx, oracle=NotPML()), config)

    def test_temp_basis_dir_removed_on_close(self, fig2_ctx):
        """A pool with no directory to open saves its basis into a temp dir:
        a worker respawned after a SIGKILL attaches from that same directory
        and answers byte-identically, and ``close()`` removes it."""
        dispatcher = open_host(fig2_ctx, ServeConfig(workers=2, max_sessions=8))
        try:
            directory = Path(dispatcher.basis_dir)
            assert (directory / "meta.json").is_file()
            sid = dispatcher.dispatch({"op": "create_session"})["session"]
            before = formulate_and_run(dispatcher, sid)
            victim = dispatcher.session_worker(sid)
            killed = dispatcher.worker_pids()[victim]
            os.kill(killed, signal.SIGKILL)
            await_repair(dispatcher, min_requeued=1)
            assert dispatcher.basis_dir == str(directory)
            # The pool's only session is requeued onto the least-loaded
            # worker, ties to the lowest index: the replacement, a process
            # that can only have attached after the kill.
            assert dispatcher.session_worker(sid) == victim == 0
            assert dispatcher.worker_pids()[victim] != killed
            after = dispatcher.dispatch({"op": "matches", "session": sid})
            assert after["matches"] == before
        finally:
            dispatcher.close()
        assert not directory.exists()


class TestStickyRouting:
    def test_create_alternates_least_loaded(self, pool):
        sids = [
            pool.dispatch({"op": "create_session"})["session"]
            for _ in range(4)
        ]
        assert [pool.session_worker(sid) for sid in sids] == [0, 1, 0, 1]
        # The session id itself names its home worker.
        assert sids[0].startswith("w0s") and sids[1].startswith("w1s")

    def test_burst_of_creates_spreads_before_any_reply(self, pool):
        """Creates that all arrive before the first reply (the workers are
        still booting) count one another: two and two, not four on worker 0."""
        barrier = threading.Barrier(4)
        placed = []

        def create():
            barrier.wait()
            placed.append(pool.dispatch({"op": "create_session"})["worker"])

        threads = [threading.Thread(target=create) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert sorted(placed) == [0, 0, 1, 1]

    def test_routing_is_sticky_across_ops(self, pool):
        sid = pool.dispatch({"op": "create_session"})["session"]
        home = pool.session_worker(sid)
        formulate_and_run(pool, sid)
        assert pool.session_worker(sid) == home
        pool.dispatch({"op": "close_session", "session": sid})
        assert pool.session_worker(sid) is None

    def test_close_frees_the_slot(self, pool):
        first = pool.dispatch({"op": "create_session"})["session"]
        pool.dispatch({"op": "close_session", "session": first})
        # Worker 0 is empty again, so the next create lands there.
        again = pool.dispatch({"op": "create_session"})["session"]
        assert pool.session_worker(again) == 0


class TestParity:
    def test_pool_matches_threaded_byte_identical(self, pool, fig2_ctx):
        threaded = open_host(fig2_ctx, ServeConfig(max_sessions=8))
        reference_sid = threaded.dispatch({"op": "create_session"})["session"]
        reference = formulate_and_run(threaded, reference_sid)
        assert reference  # non-vacuous: fig2 Q1 has matches

        # Several sessions, spread across both workers — all identical.
        for _ in range(3):
            sid = pool.dispatch({"op": "create_session"})["session"]
            assert formulate_and_run(pool, sid) == reference

    def test_stats_aggregate_across_workers(self, pool):
        for _ in range(4):
            sid = pool.dispatch({"op": "create_session"})["session"]
            formulate_and_run(pool, sid)
        stats = pool.dispatch({"op": "stats"})
        assert stats["sessions_created"] == 4
        assert stats["runs_completed"] == 4
        assert stats["open_sessions"] == 4
        assert stats["pool"]["workers"] == 2
        assert stats["pool"]["alive"] == 2
        assert stats["pool"]["routed_sessions"] == 4

    def test_metrics_merge_across_workers(self, pool):
        sid = pool.dispatch({"op": "create_session"})["session"]
        formulate_and_run(pool, sid)
        snapshot = pool.dispatch({"op": "metrics"})["metrics"]
        assert any(key.startswith("repro_") for key in snapshot)
        text = pool.dispatch({"op": "metrics", "format": "text"})["text"]
        assert "# TYPE" in text

    def test_relayed_errors_keep_code_and_retryable(self, pool):
        """A worker-side typed failure surfaces with its original verdict."""
        with pytest.raises(RelayedError) as excinfo:
            pool.dispatch({"op": "matches", "session": "w0s999"})
        assert excinfo.value.code == "session_not_found"
        assert protocol.error_code(excinfo.value) == "session_not_found"

    def test_error_response_respects_relayed_retryable(self):
        error = {
            "code": "overloaded",
            "message": "shed",
            "retryable": True,
            "details": {"type": "ServiceOverloadedError", "retry_after_ms": 50},
        }
        relayed = RelayedError(error)
        assert relayed.retryable is True
        response = protocol.error_response("r1", relayed)
        assert response["error"] == error


class TestWorkerDeath:
    def test_sigkill_requeues_byte_identical(self, pool):
        sid = pool.dispatch({"op": "create_session"})["session"]
        before = formulate_and_run(pool, sid)
        victim = pool.session_worker(sid)
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)

        stats = await_repair(pool, min_requeued=1)
        assert stats["worker_deaths"] == 1
        assert stats["requeue_failures"] == 0
        assert stats["sessions_requeued"] >= 1

        # The session lives on — requeued from its disk checkpoint onto a
        # healthy worker, answers unchanged (deferral neutrality across a
        # process death).
        after = pool.dispatch({"op": "matches", "session": sid})["matches"]
        assert after == before
        assert pool.session_worker(sid) is not None

    def test_client_restore_first_is_not_a_requeue_failure(self, pool):
        """A dead worker's session is also restorable by its own client (any
        live worker answers it evicted-and-restorable).  An id the client
        routed again before ``_repair`` got to it is not restored a second
        time, and a requeue that lost that race is not a lost session."""
        # Creates alternate 0, 1, 0, 1, 0: three orphans when worker 0 dies.
        sids = [pool.dispatch({"op": "create_session"})["session"] for _ in range(5)]
        first, second, third = sids[0::2]
        before = {sid: formulate_and_run(pool, sid) for sid in (first, second, third)}
        assert {pool.session_worker(sid) for sid in before} == {0}

        def client_restores(sid):
            assert pool.dispatch({"op": "restore_session", "session": sid})["restored"]

        # Drive the order from inside _repair's own restores, which go
        # first, second, third (routing-table order).
        real_call = pool._call
        intercept = {first, third}  # _repair's own restores, once each

        def call(handle, request, kind="req"):
            sid = request.get("session") if kind == "req" else None
            if (
                threading.current_thread().name.startswith("repro-pool-repair")
                and request.get("op") == "restore_session"
                and sid in intercept
            ):
                intercept.discard(sid)
                if sid == first:
                    client_restores(second)  # routed before _repair reaches it
                else:
                    client_restores(third)  # ... and while _repair restores it
                    raise RelayedError(
                        {"code": "session_not_found", "message": sid, "retryable": False}
                    )
            return real_call(handle, request, kind)

        pool._call = call
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        await_repair(pool)
        for thread in threading.enumerate():
            if thread.name.startswith("repro-pool-repair"):
                thread.join(timeout=30.0)

        stats = pool.dispatch({"op": "stats"})["pool"]
        assert stats["requeue_failures"] == 0
        assert stats["sessions_requeued"] == 1  # first; its client took no part
        for sid, matches in before.items():
            assert pool.session_worker(sid) is not None
            assert pool.dispatch({"op": "matches", "session": sid})["matches"] == matches

    def test_respawned_worker_ids_never_collide(self, pool):
        first = pool.dispatch({"op": "create_session"})["session"]
        formulate_and_run(pool, first)
        victim = pool.session_worker(first)
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)
        await_repair(pool)

        # Fill both workers with fresh sessions: the respawned worker's
        # generation tag keeps its fresh ids distinct from every id the
        # dead predecessor handed out (which the requeue preserved).
        seen = {first}
        for _ in range(4):
            sid = pool.dispatch({"op": "create_session"})["session"]
            assert sid not in seen
            seen.add(sid)


class TestDrain:
    def test_drain_checkpoints_fleet_wide(self, pool):
        sids = [
            pool.dispatch({"op": "create_session"})["session"]
            for _ in range(3)
        ]
        for sid in sids:
            formulate_and_run(pool, sid)
        summary = pool.drain(timeout=10.0)
        assert sorted(summary["checkpointed"]) == sorted(sids)
        assert summary["busy"] == []
