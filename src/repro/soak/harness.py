"""Drive a live QueryServer with chaotic multi-user traffic, then judge it.

One :func:`run_soak` call is a complete experiment:

1. bring the service up through :func:`~repro.service.open_host` under
   a :class:`~repro.service.ServeConfig` with deliberately tight budgets
   and an :class:`~repro.service.OverloadPolicy` (:data:`SOAK_CONFIG`),
   and serve it over real sockets;
2. replay a deterministic :func:`~repro.workload.generate_soak_schedule`
   — one client thread per simulated user, Pareto arrival offsets,
   scaled GUI think time, mid-session bound revisions, and abandoning
   users whose threads die without a goodbye (client-thread death);
3. clients retry shed work under a :class:`~repro.service.client.RetryPolicy`
   (honoring ``retry_after_ms``) and transparently restore evicted
   sessions by id;
4. gracefully drain (checkpointing idle sessions), then restore every
   checkpointed completed session and compare its ``canonical_matches``
   byte-for-byte against what the original run returned over the wire;
5. score the :class:`~repro.soak.slo.SLO`: latency percentiles, zero
   leaked sessions/locks, bounded traced-memory growth, every shed
   resolved, no untyped failures.

Wall-clock use is confined to think-time sleeps (scaled by
``time_scale``) and latency measurement via :func:`repro.obs.clock.now`;
all *behavior* derives from the workload seed, so a failing soak can be
re-run with the same seed and fail the same way.

With ``config.workers > 0`` the same traffic drives a
:class:`~repro.service.PoolDispatcher` fleet instead of the threaded
manager, and ``kill_worker_after`` SIGKILLs one seeded-chosen worker
mid-traffic — the process-level analogue of the abandoning users above.
The fleet must absorb it: the dispatcher replaces the worker, requeues
its sessions from disk checkpoints, clients retry transparently, and the
post-soak restore verification replays every completed session's disk
checkpoint through a *fresh threaded manager* — proving restore survives
not just eviction but the death of the entire hosting process.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import tempfile
import threading
import time
import tracemalloc
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs import clock
from repro.service import (
    OverloadPolicy,
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
    open_host,
)
from repro.service import protocol
from repro.service.client import RemoteServiceError, RetryPolicy
from repro.soak.slo import SLO, SoakReport, percentile
from repro.utils.rng import seeded_rng
from repro.workload.traffic import SessionScript, SoakWorkloadConfig, generate_soak_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import EngineContext

__all__ = ["run_soak", "SOAK_CONFIG"]

#: What a soak hosts under unless told otherwise: budgets deliberately
#: tight, so backpressure, eviction and checkpointing all fire, and a Run
#: deadline whose verdict is one of the typed outcomes.
SOAK_CONFIG = ServeConfig(
    deadline_seconds=10.0,
    max_sessions=8,
    cap_entry_budget=100_000,
    overload=OverloadPolicy(
        session_watermark=0.75, cap_watermark=0.85, max_inflight=32
    ),
)


class _SharedState:
    """Thread-safe accumulator the virtual-user threads write into."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.started = 0
        self.abandoned = 0
        self.run_latencies: list[float] = []
        self.typed_errors: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.unresolved_sheds = 0
        #: session id -> canonical matches the original run returned.
        self.completed: dict[str, list] = {}

    def record_failure(self, exc: BaseException) -> None:
        with self.lock:
            if isinstance(exc, RemoteServiceError):
                code = exc.code or exc.remote_type
                self.typed_errors[code] = self.typed_errors.get(code, 0) + 1
                if code == "overloaded" and not exc.retryable:
                    # Contract breach: a shed the client was told not to
                    # retry is a shed that can never resolve.
                    self.unresolved_sheds += 1
            elif isinstance(exc, ReproError):
                code = getattr(exc, "code", type(exc).__name__)
                self.typed_errors[code] = self.typed_errors.get(code, 0) + 1
            else:
                self.unexpected.append(f"{type(exc).__name__}: {exc}")


def _drive_user(
    script: SessionScript,
    address: tuple[str, int],
    state: _SharedState,
    time_scale: float,
    client_timeout: float,
    retry_policy: RetryPolicy,
    started_at: float,
) -> None:
    """One virtual user: arrive, formulate with think time, run, read."""
    delay = script.arrival_offset * time_scale - (clock.now() - started_at)
    if delay > 0:
        time.sleep(delay)
    client: ServiceClient | None = None
    try:
        client = ServiceClient(
            *address,
            timeout=client_timeout,
            retry_policy=retry_policy,
            auto_restore=True,
        )
        sid = client.create_session()
        with state.lock:
            state.started += 1
        for action in script.actions:
            if action.get("kind") == "Run":
                begin = clock.now()
                client.run(sid)
                latency = clock.now() - begin
                matches = client.matches(sid)
                with state.lock:
                    state.run_latencies.append(latency)
                    state.completed[sid] = matches
            else:
                client.action(sid, action)
            think = action.get("latency_after")
            if isinstance(think, (int, float)) and think > 0:
                time.sleep(float(think) * time_scale)
        if script.abandoned:
            # Worker-thread death: the socket dies mid-session, no
            # close_session, no goodbye — the server must neither leak
            # the session (drain checkpoints it) nor wedge the handler.
            with state.lock:
                state.abandoned += 1
            client._sock.close()
            client = None
    except Exception as exc:  # noqa: BLE001 - every failure is data here
        state.record_failure(exc)
    finally:
        if client is not None:
            try:
                client.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass


def run_soak(
    ctx: "EngineContext",
    workload: SoakWorkloadConfig,
    config: ServeConfig = SOAK_CONFIG,
    *,
    slo: SLO | None = None,
    time_scale: float = 0.02,
    client_timeout: float = 30.0,
    retry_policy: RetryPolicy | None = None,
    lock_monitor: bool = True,
    verify_restore: bool = True,
    join_timeout: float = 120.0,
    kill_worker_after: float | None = None,
) -> SoakReport:
    """Run one complete soak; returns the scored report."""
    slo = slo or SLO()
    retry_policy = retry_policy or RetryPolicy(
        max_attempts=5, base_delay=0.01, backoff=2.0, max_delay=0.25
    )

    schedule = generate_soak_schedule(ctx.graph, workload)
    report = SoakReport(sessions_scheduled=len(schedule), slo=slo.to_dict())
    state = _SharedState()

    monitor = None
    if lock_monitor:
        from repro.analysis.lockorder import LockOrderMonitor, patch_locks

        monitor = LockOrderMonitor()
        monitor_ctx = patch_locks(monitor)
    else:  # pragma: no cover - trivial
        from contextlib import nullcontext

        monitor_ctx = nullcontext()

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    gc.collect()
    memory_before, _ = tracemalloc.get_traced_memory()
    soak_began = clock.now()

    report.workers = config.workers
    pool = None
    pool_stats: dict[str, object] = {}
    killed_pids: list[int] = []
    kill_timer: threading.Timer | None = None
    ckpt_dir: str | None = None

    with monitor_ctx:
        manager: SessionManager | None = None
        if config.workers > 0:
            # The harness owns the checkpoint directory so it outlives the
            # pool: post-soak restore verification reads it with a fresh
            # threaded manager after every worker process is gone.
            ckpt_dir = tempfile.mkdtemp(prefix="repro-soak-ckpt-")
            config = replace(config, checkpoint_dir=ckpt_dir)
            backend = pool = open_host(ctx, config)
        else:
            backend = open_host(ctx, config)
            manager = backend.manager
        server = QueryServer(backend, host="127.0.0.1", port=0).start()
        if pool is not None and kill_worker_after is not None:

            def _kill_one_worker() -> None:
                pids = pool.worker_pids()
                if not pids:  # pragma: no cover - fleet already gone
                    return
                index = seeded_rng(workload.seed).choice(sorted(pids))
                try:
                    os.kill(pids[index], signal.SIGKILL)
                except (ProcessLookupError, OSError):  # pragma: no cover
                    return
                killed_pids.append(pids[index])

            kill_timer = threading.Timer(kill_worker_after, _kill_one_worker)
            kill_timer.daemon = True
            kill_timer.start()
        try:
            threads = [
                threading.Thread(
                    target=_drive_user,
                    args=(
                        script,
                        server.address,
                        state,
                        time_scale,
                        client_timeout,
                        retry_policy,
                        soak_began,
                    ),
                    name=f"soak-user-{script.index}",
                    daemon=True,
                )
                for script in schedule
            ]
            for thread in threads:
                thread.start()
            deadline = clock.now() + join_timeout
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - clock.now()))
            stuck = [t.name for t in threads if t.is_alive()]
            if stuck:
                state.unexpected.append(
                    f"{len(stuck)} user thread(s) still alive at join "
                    f"timeout: {stuck[:3]}"
                )
        finally:
            if kill_timer is not None:
                kill_timer.cancel()
            if pool is not None:
                # Drain and harvest aggregated stats while the workers are
                # still alive, then stop without re-draining: stop()'s
                # close() tears the fleet (and its stats) down.
                try:
                    report.drain_summary = pool.drain() or {}
                except Exception as exc:  # noqa: BLE001 - chaos is data
                    state.unexpected.append(
                        f"pool drain failed: {type(exc).__name__}: {exc}"
                    )
                try:
                    pool_stats = pool.dispatch({"op": "stats"})
                except Exception as exc:  # noqa: BLE001 - chaos is data
                    state.unexpected.append(
                        f"pool stats failed: {type(exc).__name__}: {exc}"
                    )
                server.stop(drain=False)
            else:
                report.drain_summary = server.stop(drain=True) or {}

        if pool is not None:
            # Sessions drain could not checkpoint are the pool's leaks.
            busy = report.drain_summary.get("busy", [])
            report.leaked_sessions = len(busy) if isinstance(busy, list) else 0
            # A basis the pool had to save for its workers (no
            # storage_dir to open in place) is the pool's to delete.
            report.leaked_basis_dirs = int(
                config.storage_dir is None and os.path.isdir(pool.basis_dir)
            )
        else:
            assert manager is not None
            report.leaked_sessions = len(manager.session_ids())

        if verify_restore:
            if pool is not None:
                # Every worker process is dead; the only surviving state is
                # the write-through checkpoint directory.  Restoring through
                # a *fresh* threaded manager over that directory is the
                # strongest form of the invariant: byte-identical matches
                # across a full process generation.
                verifier = SessionManager(
                    ctx, replace(config, cap_entry_budget=None, overload=None)
                )
            else:
                assert manager is not None
                verifier = manager
                verifier.end_drain()
            # Resume every checkpointed completed session and demand the
            # exact bytes its original run produced — the wire-level
            # statement of deferral neutrality.
            for sid, recorded in sorted(state.completed.items()):
                checkpoint = verifier.checkpoints.get(sid)
                if checkpoint is None or checkpoint.state != "ran":
                    continue
                try:
                    verifier.restore_session(sid)
                    again = protocol.canonical_matches(verifier.matches(sid))
                except ReproError as exc:
                    report.restore_mismatches += 1
                    state.unexpected.append(
                        f"restore of {sid} failed: {type(exc).__name__}: {exc}"
                    )
                    continue
                if again != recorded:
                    report.restore_mismatches += 1
                try:
                    verifier.close_session(sid)
                except ReproError:  # pragma: no cover - teardown
                    pass

    gc.collect()
    memory_after, _ = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()

    report.sessions_started = state.started
    report.sessions_abandoned = state.abandoned
    report.runs_completed = len(state.run_latencies)
    report.run_latency = {
        "count": float(len(state.run_latencies)),
        "p50": percentile(state.run_latencies, 0.50),
        "p95": percentile(state.run_latencies, 0.95),
        "p99": percentile(state.run_latencies, 0.99),
        "max": max(state.run_latencies, default=0.0),
    }
    report.typed_errors = dict(state.typed_errors)
    report.unexpected_errors = list(state.unexpected)
    report.unresolved_sheds = state.unresolved_sheds
    # Counters come from the wire ``stats``: for a pool the aggregate
    # harvested just before teardown (fleet-wide sums + the dispatcher's
    # pool block), in-process the manager's own, read now that the
    # verification restores are in them.
    stats = pool_stats if pool is not None else backend.dispatch({"op": "stats"})

    def _stat(name: str) -> int:
        value = stats.get(name, 0)
        return int(value) if isinstance(value, (int, float)) else 0

    report.requests_shed = _stat("requests_shed")
    report.sessions_evicted = _stat("sessions_evicted")
    report.sessions_checkpointed = _stat("sessions_checkpointed")
    report.sessions_restored = _stat("sessions_restored")
    if pool is not None:
        report.workers_killed = len(killed_pids)
        pool_block = stats.get("pool")
        if isinstance(pool_block, dict):
            report.worker_deaths = int(pool_block.get("worker_deaths", 0))
            report.workers_respawned = int(
                pool_block.get("workers_respawned", 0)
            )
            report.sessions_requeued = int(
                pool_block.get("sessions_requeued", 0)
            )
            report.requeue_failures = int(
                pool_block.get("requeue_failures", 0)
            )
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
    report.memory_growth_mib = max(0.0, memory_after - memory_before) / (
        1024.0 * 1024.0
    )
    report.lock_inversions = len(monitor.inversions()) if monitor else 0
    report.wall_seconds = clock.now() - soak_began
    report.violations = slo.check(report)
    report.passed = not report.violations
    return report
