"""Concurrency determinism: interleaved sessions == serial sessions.

The acceptance property of the multi-session service is that concurrency
moves only *timing*, never answers: N sessions driven from N threads over
one shared graph/oracle must produce byte-identical canonical match sets
to the same N scripts replayed serially.  Deferral neutrality covers the
cross-session idle scheduling; these tests cover the locking.
"""

from __future__ import annotations

import json
import threading

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.indexing.oracle import CountingOracle
from repro.service import ServeConfig, SessionManager, canonical_matches

LAT = 0.01

#: Distinct fig2 formulation scripts so concurrent sessions do different
#: work (upper-3 bounds keep the pool busy under ``pooled_ctx``).
SCRIPTS = [
    [  # triangle A-B-C
        NewVertex(0, "A", latency_after=LAT),
        NewVertex(1, "B", latency_after=LAT),
        NewEdge(0, 1, 1, 3, latency_after=LAT),
        NewVertex(2, "C", latency_after=LAT),
        NewEdge(1, 2, 1, 3, latency_after=LAT),
        NewEdge(0, 2, 1, 3, latency_after=LAT),
    ],
    [  # adjacent A-B pair
        NewVertex(0, "A", latency_after=LAT),
        NewVertex(1, "B", latency_after=LAT),
        NewEdge(0, 1, 1, 1, latency_after=LAT),
    ],
    [  # A-B-C path, looser hops
        NewVertex(0, "A", latency_after=LAT),
        NewVertex(1, "B", latency_after=LAT),
        NewVertex(2, "C", latency_after=LAT),
        NewEdge(0, 1, 1, 2, latency_after=LAT),
        NewEdge(1, 2, 1, 2, latency_after=LAT),
    ],
    [  # B near C
        NewVertex(0, "B", latency_after=LAT),
        NewVertex(1, "C", latency_after=LAT),
        NewEdge(0, 1, 1, 2, latency_after=LAT),
    ],
]

STRATEGIES = ["DI", "DR", "IC"]

N_SESSIONS = 8


def session_plan(i: int) -> tuple[list, str]:
    return SCRIPTS[i % len(SCRIPTS)], STRATEGIES[i % len(STRATEGIES)]


def canonical_bytes(matches) -> bytes:
    """The byte-identity the acceptance criterion compares."""
    return json.dumps(canonical_matches(matches), separators=(",", ":")).encode()


def serial_reference(ctx) -> list[bytes]:
    out = []
    for i in range(N_SESSIONS):
        script, strategy = session_plan(i)
        boomer = Boomer(ctx, strategy=strategy, auto_idle=False)
        for action in script:
            boomer.apply(action)
        boomer.apply(Run())
        out.append(canonical_bytes(boomer.run_result.matches))
    return out


def drive_interleaved(manager: SessionManager) -> list[bytes]:
    """N threads, one session each, barrier-released for max interleaving."""
    results: list[bytes | None] = [None] * N_SESSIONS
    errors: list[BaseException] = []
    barrier = threading.Barrier(N_SESSIONS)

    def worker(i: int) -> None:
        try:
            script, strategy = session_plan(i)
            session = manager.create_session(strategy=strategy)
            barrier.wait()
            for action in script:
                manager.apply_action(session.id, action)
            result = manager.run(session.id)
            results[i] = canonical_bytes(result.matches)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"sess-{i}")
        for i in range(N_SESSIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def test_interleaved_sessions_byte_identical_to_serial(pooled_ctx):
    reference = serial_reference(pooled_ctx)
    assert any(reference)  # at least one script has matches

    manager = SessionManager(pooled_ctx, ServeConfig(max_sessions=N_SESSIONS))
    interleaved = drive_interleaved(manager)
    assert interleaved == reference

    stats = manager.stats()
    assert stats["sessions_created"] == N_SESSIONS
    assert stats["sessions_evicted"] == 0


def test_interleaved_runs_are_repeatable(pooled_ctx):
    """Two concurrent rounds agree with each other, not just with serial."""
    config = ServeConfig(max_sessions=N_SESSIONS)
    first = drive_interleaved(SessionManager(pooled_ctx, config))
    second = drive_interleaved(SessionManager(pooled_ctx, config))
    assert first == second


def test_counting_oracle_thread_safe(fig2_ctx):
    """Hammered from 8 threads, no increment is lost and answers agree."""
    oracle = CountingOracle(fig2_ctx.oracle)
    pairs = [(u, v) for u in range(12) for v in range(12)]
    expected = {pair: fig2_ctx.oracle.distance(*pair) for pair in pairs}
    errors: list[BaseException] = []
    rounds = 4

    def hammer() -> None:
        try:
            for _ in range(rounds):
                for (u, v), want in expected.items():
                    assert oracle.distance(u, v) == want
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors
    assert oracle.query_count == 8 * rounds * len(pairs)
