"""The pool backend: sticky routing, fan-out verbs, worker-death repair.

:class:`PoolDispatcher` implements the backend seam of
:mod:`repro.service.dispatch` over N spawned worker processes:

* **Sticky session→worker routing.**  ``create_session`` picks the
  least-loaded live worker (mapped sessions plus placements still in
  flight; ties to the lowest index — deterministic), and every later
  request for that session id goes to the same worker, so its action
  log, CAP warm state, and IdleScheduler accounting stay process-local.
  A session id the dispatcher has never seen routes by CRC32 of the id
  — also deterministic — and the worker answers with the usual typed
  verdicts (evicted-and-restorable if a disk checkpoint exists).
* **Fan-out verbs.**  ``metrics`` pulls every worker's registry snapshot
  over the pipe and folds them through :mod:`repro.obs.aggregate` (plus
  the dispatcher's own registry), so the wire surface still shows one
  coherent registry; ``stats`` sums worker manager stats recursively and
  adds a ``pool`` section; ``ping`` answers locally.
* **Worker death is a retryable verdict.**  A dead pipe fails
  that worker's in-flight requests with the *retryable*
  :class:`~repro.errors.WorkerDiedError` (clients already retry typed
  retryable verdicts), a replacement worker is spawned at the same index
  (next id generation, so fresh ids never collide with the dead
  fleet's), and every session that was routed to the corpse is requeued:
  restored from its write-through disk checkpoint onto a healthy worker
  and remapped — unless its own client restored it first, which any live
  worker lets it do.  Deferral neutrality makes the restored session's
  subsequent matches byte-identical — the same guarantee the eviction
  ladder already gives, now covering SIGKILL.

The dispatcher owns the saved basis directory its workers open (a
:class:`~repro.storage.BasisDirectory` handed over by
:func:`~repro.service.host.open_host`) and the checkpoint directory
(when it created one); ``close()`` retires workers, then releases both —
a temp basis directory saved for the pool goes with it, a directory
opened in place is left exactly as found.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing as mp
import os
import shutil
import tempfile
import threading
import zlib
from dataclasses import replace
from typing import Any

from repro.errors import (
    ProtocolError,
    RelayedError,
    WorkerDiedError,
    WorkerPoolError,
)
from repro.obs.aggregate import merge_snapshots, render_merged_text
from repro.obs.metrics import metrics
from repro.service import protocol
from repro.service.host import ServeConfig
from repro.service.manager import DRAIN_TIMEOUT
from repro.service.pool.worker import worker_main
from repro.storage import BasisDirectory

__all__ = ["PoolDispatcher"]

#: Verbs that address one session and simply route to its worker.
_ROUTED_OPS = (
    "action",
    "run",
    "matches",
    "results",
    "trace",
    "close_session",
)


class _Pending:
    """One in-flight pipe request awaiting its reply (or the worker's death)."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: dict[str, Any] | None = None
        self.error: BaseException | None = None


class _WorkerHandle:
    """Dispatcher-side view of one worker process."""

    def __init__(self, index: int, generation: int, process, conn) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: dict[int, _Pending] = {}
        self.pending_lock = threading.Lock()
        self.alive = True
        self.retiring = False  # clean exit requested; EOF is not a death
        self.placing = 0  # sessions on their way here, not yet routed
        self.reader: threading.Thread | None = None


class PoolDispatcher:
    """Dispatcher + N worker processes behind the QueryServer seam."""

    def __init__(self, basis: BasisDirectory, config: ServeConfig) -> None:
        if config.workers < 1:
            raise WorkerPoolError("worker pool needs at least 1 worker")
        self.workers = config.workers
        self._mp = mp.get_context("spawn")
        # The read-only npy files every worker opens, shared through the
        # kernel page cache; workers get the path, close() releases it.
        self._basis = basis
        checkpoint_dir = config.checkpoint_dir
        if checkpoint_dir is None:
            checkpoint_dir = tempfile.mkdtemp(prefix="repro-pool-ckpt-")
            self._owns_checkpoint_dir = True
        else:
            os.makedirs(checkpoint_dir, exist_ok=True)
            self._owns_checkpoint_dir = False
        self.checkpoint_dir = checkpoint_dir
        #: What each worker's manager runs under: its even share of the
        #: fleet session budget, writing through to the one directory.
        self._config = replace(
            config,
            max_sessions=max(1, math.ceil(config.max_sessions / config.workers)),
            checkpoint_dir=checkpoint_dir,
        )
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._route: dict[str, int] = {}  # session id -> worker index
        self._handles: list[_WorkerHandle] = []
        self._closing = False
        self._draining = False
        self._deaths = 0
        self._respawns = 0
        self._requeued = 0
        self._requeue_failures = 0
        try:
            for index in range(self.workers):
                self._handles.append(self._spawn(index, generation=0))
        except Exception:
            self.close()
            raise

    @property
    def graph_name(self) -> str:
        return self._basis.basis.graph_name

    # -- worker lifecycle ------------------------------------------------
    def _spawn(self, index: int, generation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        # Generation tags keep a respawned worker's fresh session ids
        # (``w0g1s1`` ...) disjoint from its dead predecessor's (``w0s1``),
        # which may live on — requeued onto another worker.
        tag = str(index) if generation == 0 else f"{index}g{generation}"
        process = self._mp.Process(
            target=worker_main,
            args=(tag, self.basis_dir, self._config, child_conn),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(index, generation, process, parent_conn)
        reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"repro-pool-reader-{index}",
            daemon=True,
        )
        handle.reader = reader
        reader.start()
        metrics.counter(
            "repro_pool_workers_spawned_total", "worker processes started"
        ).inc()
        return handle

    def _read_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind, seq, body = message
            with handle.pending_lock:
                pending = handle.pending.pop(seq, None)
            if pending is None:
                continue  # reply raced a death verdict; already failed
            if kind == "ok":
                pending.result = body
            else:
                pending.error = RelayedError(body)
            pending.event.set()
        self._on_worker_exit(handle)

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        with handle.pending_lock:
            doomed = list(handle.pending.values())
            handle.pending.clear()
        for pending in doomed:
            pending.error = WorkerDiedError(handle.index)
            pending.event.set()
        with self._lock:
            closing = self._closing
        if handle.retiring or closing:
            return
        self._deaths += 1
        metrics.counter(
            "repro_pool_worker_deaths_total", "worker processes lost unexpectedly"
        ).inc()
        # Repair off the reader thread: replace the worker, then requeue
        # the corpse's sessions from their disk checkpoints.
        threading.Thread(
            target=self._repair,
            args=(handle,),
            name=f"repro-pool-repair-{handle.index}",
            daemon=True,
        ).start()

    def _repair(self, dead: _WorkerHandle) -> None:
        try:
            dead.process.join(timeout=1.0)
        except Exception:
            pass
        with self._lock:
            if self._closing:
                return
            replacement = self._spawn(dead.index, dead.generation + 1)
            self._handles[dead.index] = replacement
            self._respawns += 1
            metrics.counter(
                "repro_pool_workers_respawned_total",
                "replacement workers started after a death",
            ).inc()
            orphans = [
                sid for sid, idx in self._route.items() if idx == dead.index
            ]
            for sid in orphans:
                del self._route[sid]
        for sid in orphans:
            # The session's own client may get there first: any live
            # worker answers it evicted-and-restorable, and its
            # restore_session routes the id again.  A routed id is being
            # served — it is not restored a second time, and a restore
            # here that lost that race is not a lost session.
            if self.session_worker(sid) is not None:
                continue
            try:
                self._place({"op": "restore_session", "session": sid})
            except Exception:
                if self.session_worker(sid) is not None:
                    continue
                # No checkpoint (or the restore shed): the session is
                # gone the same way a dropped checkpoint already loses
                # one — the client's typed-error path handles it.
                self._requeue_failures += 1
                metrics.counter(
                    "repro_pool_requeue_failures_total",
                    "orphaned sessions that could not be restored",
                ).inc()
                continue
            self._requeued += 1
            metrics.counter(
                "repro_pool_sessions_requeued_total",
                "sessions restored onto a healthy worker after a death",
            ).inc()

    # -- pipe RPC ---------------------------------------------------------
    def _call(
        self, handle: _WorkerHandle, request: Any, kind: str = "req"
    ) -> dict[str, Any]:
        """One pipe round trip: a wire ``request`` (``kind="req"``) or a
        drain with its timeout as the body (``kind="drain"``)."""
        if not handle.alive:
            raise WorkerDiedError(handle.index)
        seq = next(self._seq)
        pending = _Pending()
        with handle.pending_lock:
            handle.pending[seq] = pending
        try:
            with handle.send_lock:
                handle.conn.send((kind, seq, request))
        except (BrokenPipeError, OSError):
            with handle.pending_lock:
                handle.pending.pop(seq, None)
            raise WorkerDiedError(handle.index) from None
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def _alive(self) -> list[_WorkerHandle]:
        with self._lock:
            alive = [h for h in self._handles if h.alive]
        if not alive:
            raise WorkerPoolError("no live workers in the pool")
        return alive

    def _place(self, request: dict[str, Any]) -> dict[str, Any]:
        """Run a request that places a session (create, requeue) on the
        least-loaded live worker and route the resulting id there.

        Load is mapped sessions plus placements still in flight — a burst
        of creates that all arrive before the first reply (cold workers)
        must spread, not pile onto one worker; ties to the lowest index.
        """
        alive = self._alive()
        with self._lock:
            load = {h.index: h.placing for h in alive}
            for idx in self._route.values():
                if idx in load:
                    load[idx] += 1
            target = min(alive, key=lambda h: (load[h.index], h.index))
            target.placing += 1
        try:
            result = self._call(target, request)
            with self._lock:
                self._route[result["session"]] = target.index
        finally:
            with self._lock:
                target.placing -= 1
        result["worker"] = target.index
        return result

    def _worker_for(self, session_id: str) -> _WorkerHandle:
        """Sticky lookup; unseen ids hash deterministically onto the fleet."""
        with self._lock:
            idx = self._route.get(session_id)
            if idx is not None and self._handles[idx].alive:
                return self._handles[idx]
        alive = self._alive()
        return alive[zlib.crc32(session_id.encode()) % len(alive)]

    # -- backend API ------------------------------------------------------
    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        op = request["op"]
        if op == "ping":
            return {
                "pong": True,
                "protocol": protocol.PROTOCOL_VERSION,
                "graph": self.graph_name,
                "workers": len(self._alive()),
            }
        if op == "metrics":
            merged = self._merged_metrics()
            if request.get("format") == "text":
                return {"text": render_merged_text(merged)}
            return {"metrics": merged}
        if op == "stats":
            session_id = request.get("session")
            if session_id is None:
                return self._merged_stats()
            return self._call(self._worker_for(str(session_id)), request)
        if op == "shutdown":
            return {"stopping": True}
        if op == "update":
            # Workers attach the basis arrays read-only (mmap pages
            # shared across processes) — an in-place edge update cannot
            # reach the whole fleet coherently.  Refuse with the typed
            # pool verdict; graph updates require the in-process backend
            # (--workers 0) or a basis rebuild.
            raise WorkerPoolError(
                "graph updates are not supported behind a worker pool: "
                "the shared basis is immutable across workers; run with "
                "--workers 0 or rebuild the basis"
            )
        if op == "create_session":
            protocol.session_strategy(request)  # refuse at the door, not on a worker
            return self._place(request)

        session_id = request.get("session")
        if not isinstance(session_id, str):
            raise ProtocolError(f"op {op!r} requires a 'session' string")
        if op == "restore_session":
            target = self._worker_for(session_id)
            result = self._call(target, request)
            with self._lock:
                self._route[session_id] = target.index
            result["worker"] = target.index
            return result
        if op in _ROUTED_OPS:
            target = self._worker_for(session_id)
            result = self._call(target, request)
            if op == "close_session":
                with self._lock:
                    self._route.pop(session_id, None)
            return result
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    # -- fan-out verbs ----------------------------------------------------
    def _merged_metrics(self) -> dict[str, Any]:
        snapshots: list[dict[str, Any]] = [metrics.snapshot()]
        for handle in self._alive():
            try:
                reply = self._call(handle, {"op": "metrics"})
            except (WorkerDiedError, RelayedError):
                continue  # a dying worker's snapshot is not worth failing for
            snapshots.append(reply.get("metrics", {}))
        return merge_snapshots(snapshots)

    def _merged_stats(self) -> dict[str, Any]:
        per_worker: dict[str, dict[str, Any]] = {}
        for handle in self._alive():
            try:
                per_worker[str(handle.index)] = self._call(
                    handle, {"op": "stats"}
                )
            except (WorkerDiedError, RelayedError):
                continue
        merged: dict[str, Any] = {}
        for stats in per_worker.values():
            _sum_into(merged, stats)
        merged["draining"] = self._draining
        with self._lock:
            alive_count = sum(1 for h in self._handles if h.alive)
            routed_sessions = len(self._route)
            respawned = self._respawns
        merged["pool"] = {
            "basis_dir": self.basis_dir,
            "workers": self.workers,
            "alive": alive_count,
            "routed_sessions": routed_sessions,
            "worker_deaths": self._deaths,
            "workers_respawned": respawned,
            "sessions_requeued": self._requeued,
            "requeue_failures": self._requeue_failures,
            "checkpoint_dir": self.checkpoint_dir,
        }
        merged["per_worker"] = per_worker
        return merged

    def drain(self, timeout: float | None = DRAIN_TIMEOUT) -> dict[str, object]:
        """Graceful fleet drain: every worker drains; summaries merge."""
        self._draining = True
        checkpointed: list[str] = []
        busy: list[str] = []
        inflight = 0
        for handle in self._alive():
            try:
                summary = self._call(handle, timeout, kind="drain")
            except (WorkerDiedError, RelayedError):
                continue  # its sessions are requeued, or were never checkpointable
            checkpointed.extend(summary.get("checkpointed", []))
            busy.extend(summary.get("busy", []))
            inflight += int(summary.get("inflight_at_timeout", 0))
        return {
            "checkpointed": sorted(checkpointed),
            "busy": sorted(busy),
            "inflight_at_timeout": inflight,
        }

    def close(self) -> None:
        """Retire the fleet and release what the pool owns (idempotent)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            handles = list(self._handles)
        for handle in handles:
            handle.retiring = True
            if not handle.alive:
                continue
            try:
                with handle.send_lock:
                    handle.conn.send(("exit", next(self._seq)))
            except (BrokenPipeError, OSError):
                pass
        for handle in handles:
            if handle.process.is_alive():
                handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # refused to go; force it
                handle.process.kill()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._basis.close()
        if self._owns_checkpoint_dir:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

    # -- introspection (tests / soak) -------------------------------------
    def session_worker(self, session_id: str) -> int | None:
        """The worker index a session is currently routed to (or None)."""
        with self._lock:
            return self._route.get(session_id)

    def worker_pids(self) -> dict[int, int]:
        """Live worker index -> OS pid (chaos harness kill targets)."""
        with self._lock:
            return {
                h.index: h.process.pid
                for h in self._handles
                if h.alive and h.process.pid is not None
            }

    @property
    def basis_dir(self) -> str:
        """The saved basis directory every worker opens."""
        return str(self._basis.directory)


def _sum_into(into: dict[str, Any], stats: dict[str, Any]) -> None:
    """Recursively fold one worker's stats dict into the aggregate.

    Numbers sum (bools excluded), dicts merge recursively, lists
    concatenate; strings and None keep the first worker's value — the
    fleet shares one graph and one overload policy, so they agree.
    """
    for key, value in stats.items():
        if isinstance(value, bool):
            into.setdefault(key, value)
        elif isinstance(value, (int, float)):
            prior = into.get(key, 0)
            into[key] = (prior if isinstance(prior, (int, float)) else 0) + value
        elif isinstance(value, dict):
            slot = into.setdefault(key, {})
            if isinstance(slot, dict):
                _sum_into(slot, value)
        elif isinstance(value, list):
            slot = into.setdefault(key, [])
            if isinstance(slot, list):
                slot.extend(value)
        else:
            into.setdefault(key, value)
