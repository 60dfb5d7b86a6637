"""Session checkpoint/restore: evict → capture → resume, byte-identical.

Deferral neutrality is what makes this sound: CAP work deferred across
the eviction gap is rebuilt warm by the idle scheduler, and the restored
session's subsequent matches must equal the uninterrupted session's
exactly (``canonical_matches`` comparison — the same acceptance bar the
service throughput benchmark enforces).
"""

from __future__ import annotations

import json

import pytest

from repro.core.actions import ModifyBounds, NewEdge, NewVertex, Run
from repro.errors import CheckpointError, SessionEvictedError, SessionNotFoundError
from repro.service import (
    CheckpointStore,
    QueryServer,
    ServeConfig,
    ServiceClient,
    SessionManager,
    canonical_matches,
)
from repro.service.checkpoint import checkpoint_session, restore_session
from repro.service.client import RemoteServiceError, RetryPolicy

FIG2_ACTIONS = [
    NewVertex(0, "A", latency_after=0.002),
    NewVertex(1, "B", latency_after=0.002),
    NewEdge(0, 1, 1, 1, latency_after=0.002),
    NewVertex(2, "C", latency_after=0.002),
    NewEdge(1, 2, 1, 2, latency_after=0.002),
    NewEdge(0, 2, 1, 3, latency_after=0.002),
]

STRATEGIES = ("IC", "DR", "DI")


def formulate(manager, strategy=None, actions=FIG2_ACTIONS):
    session = manager.create_session(strategy)
    for action in actions:
        manager.apply_action(session.id, action)
    return session


class TestSerialization:
    def test_json_round_trip(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = formulate(manager)
        checkpoint = checkpoint_session(session, "test")
        clone = type(checkpoint).from_json(checkpoint.to_json())
        assert clone == checkpoint
        assert clone.actions == checkpoint.actions
        assert clone.session_id == session.id

    def test_malformed_json_is_typed(self):
        from repro.service.checkpoint import SessionCheckpoint

        with pytest.raises(CheckpointError):
            SessionCheckpoint.from_json("not json at all")
        with pytest.raises(CheckpointError):
            SessionCheckpoint.from_json(json.dumps({"format": 999}))
        with pytest.raises(CheckpointError):
            SessionCheckpoint.from_json(json.dumps([1, 2, 3]))

    def test_terminal_sessions_cannot_checkpoint(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = manager.create_session()
        session.close()
        with pytest.raises(CheckpointError):
            checkpoint_session(session, "test")

    def test_run_actions_not_replayed_twice(self, fig2_ctx):
        """Run is excluded from the action log; restore re-runs once."""
        manager = SessionManager(fig2_ctx)
        session = formulate(manager)
        manager.run(session.id)
        checkpoint = checkpoint_session(session, "test")
        kinds = [a["kind"] for a in checkpoint.actions]
        assert "Run" not in kinds
        assert checkpoint.state == "ran"


#: A ``ran`` fig2 checkpoint exactly as PR 22 wrote it (paranoid posture,
#: 30 s deadline): it still records ``trace_capacity``, since a constant,
#: and the ``resilience`` object, since gone.
PARENT_CHECKPOINT_JSON = (
    '{"actions": [{"kind": "NewVertex", "label": "A", "latency_after": 0.002, "vertex_id": 0}, '
    '{"kind": "NewVertex", "label": "B", "latency_after": 0.002, "vertex_id": 1}, '
    '{"kind": "NewEdge", "latency_after": 0.002, "lower": 1, "u": 0, "upper": 1, "v": 1}, '
    '{"kind": "NewVertex", "label": "C", "latency_after": 0.002, "vertex_id": 2}, '
    '{"kind": "NewEdge", "latency_after": 0.002, "lower": 1, "u": 1, "upper": 2, "v": 2}, '
    '{"kind": "NewEdge", "latency_after": 0.002, "lower": 1, "u": 0, "upper": 3, "v": 2}], '
    '"actions_applied": 7, "backlog_seconds": 0.0, "donated_idle_seconds": 0.01065926100028446, '
    '"format": 1, "limits": {"max_results": 10000, "pruning": true, "resilience": '
    '{"absorb_action_failures": true, "audit_sample_pairs": 16, "deadline_seconds": 30.0, '
    '"degrade_to_bu": true, "retry": {"backoff": 2.0, "base_delay": 0.001, "max_attempts": 3, '
    '"max_delay": 0.05}, "verify_cap_on_run": true}, "strategy": "DI", "trace": true, '
    '"trace_capacity": 8192}, "reason": "drain", "serviced_edges": 0, "serviced_seconds": 0.0, '
    '"session_id": "s1", "state": "ran", "timeline": {"arrival": 0.012, '
    '"busy_until": 0.010367499000276439, "formulation_busy": 0.001346860000921879, '
    '"simulated_qft": 0.012}}'
)
#: ``canonical_matches`` of that session at the parent.
PARENT_MATCHES = [[[0, 1], [1, 4], [2, 11]], [[0, 2], [1, 5], [2, 11]], [[0, 2], [1, 7], [2, 11]]]


#: The ``limits`` of a checkpoint as the parent wrote it: the strategy
#: beside a whole resilience posture.
PARENT_LIMITS = {
    "strategy": "DI",
    "resilience": {
        "absorb_action_failures": True,
        "audit_sample_pairs": 16,
        "deadline_seconds": None,
        "degrade_to_bu": True,
        "retry": {"backoff": 2.0, "base_delay": 0.001, "max_attempts": 3, "max_delay": 0.05},
        "verify_cap_on_run": False,
    },
}


class TestLimitsRoundTrip:
    def test_parent_checkpoint_restores_byte_identical(self, fig2_ctx):
        """Keys no field answers to any more (``trace_capacity``,
        ``resilience``, and the ``pruning``/``max_results``/``trace``
        every hosted session now has fixed) are ignored; the strategy
        comes back as the parent set it, and the Run deadline is the
        restoring host's."""
        from repro.service.checkpoint import SessionCheckpoint
        from repro.service.session import SessionLimits

        checkpoint = SessionCheckpoint.from_json(PARENT_CHECKPOINT_JSON)
        manager = SessionManager(fig2_ctx, ServeConfig(deadline_seconds=7.0))
        manager.checkpoints.put(checkpoint)
        session = manager.restore_session(checkpoint.session_id)
        assert session.state == "ran"
        assert canonical_matches(session.matches()) == PARENT_MATCHES
        assert session.limits == SessionLimits("DI")
        assert session.boomer.deadline_seconds == 7.0
        # Re-captured, the limits are the parent's strategy alone.
        again = checkpoint_session(session, "drain").to_dict()
        parent = json.loads(PARENT_CHECKPOINT_JSON)
        assert again["limits"] == {"strategy": "DI"}
        assert again["actions"] == parent["actions"]

    def test_parent_shaped_limits_restore(self, fig2_ctx):
        from dataclasses import replace

        manager = SessionManager(fig2_ctx)
        checkpoint = checkpoint_session(formulate(manager), "test")
        parent = replace(checkpoint, limits=PARENT_LIMITS)
        restored = restore_session(parent, fig2_ctx)
        manager.run(checkpoint.session_id)
        restored.run()
        assert canonical_matches(restored.matches()) == canonical_matches(
            manager.matches(checkpoint.session_id)
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_strategy_round_trips(self, fig2_ctx, strategy):
        manager = SessionManager(fig2_ctx)
        session = formulate(manager, strategy)
        checkpoint = checkpoint_session(session, "test")
        clone = type(checkpoint).from_json(checkpoint.to_json())
        assert restore_session(clone, fig2_ctx).limits == session.limits

    def test_malformed_limits_are_typed(self, fig2_ctx):
        from dataclasses import replace

        manager = SessionManager(fig2_ctx)
        checkpoint = checkpoint_session(formulate(manager), "test")
        for limits in (
            {**PARENT_LIMITS, "strategy": 5},
            {**PARENT_LIMITS, "strategy": "XYZ"},
            {**PARENT_LIMITS, "strategy": None},
        ):
            broken = replace(checkpoint, limits=limits)
            with pytest.raises(CheckpointError, match="malformed checkpoint limits"):
                restore_session(broken, fig2_ctx)
        for limits in (5, "DI"):
            with pytest.raises(CheckpointError, match="malformed checkpoint"):
                type(checkpoint).from_dict({**checkpoint.to_dict(), "limits": limits})


class TestCheckpointStore:
    def _checkpoint(self, fig2_ctx, manager=None):
        manager = manager or SessionManager(fig2_ctx)
        return checkpoint_session(formulate(manager), "test")

    def test_capacity_drops_oldest(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=8))
        store = CheckpointStore(capacity=2)
        checkpoints = [
            checkpoint_session(formulate(manager), "test")
            for _ in range(3)
        ]
        for checkpoint in checkpoints:
            store.put(checkpoint)
        assert len(store) == 2
        assert store.get(checkpoints[0].session_id) is None  # oldest gone
        stats = store.stats()
        assert stats["stored_total"] == 3
        assert stats["dropped_total"] == 1

    def test_pop_removes(self, fig2_ctx):
        store = CheckpointStore(capacity=4)
        checkpoint = self._checkpoint(fig2_ctx)
        store.put(checkpoint)
        assert store.pop(checkpoint.session_id) is checkpoint
        assert store.pop(checkpoint.session_id) is None


class TestRoundTrip:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_evict_restore_matches_uninterrupted(self, fig2_ctx, strategy):
        # Reference: the same formulation, never interrupted.
        serial = SessionManager(fig2_ctx)
        reference = formulate(serial, strategy)
        serial.run(reference.id)
        expected = canonical_matches(serial.matches(reference.id))
        assert expected  # fig2 Q has matches; identity must be non-vacuous

        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        victim = formulate(manager, strategy)
        manager.create_session()  # LRU-evicts (and checkpoints) the victim
        assert victim.id not in manager.session_ids()

        restored = manager.restore_session(victim.id)
        assert restored.id == victim.id
        assert restored.restored is True
        manager.run(victim.id)
        assert canonical_matches(manager.matches(victim.id)) == expected

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_evict_after_run_preserves_matches(self, fig2_ctx, strategy):
        serial = SessionManager(fig2_ctx)
        reference = formulate(serial, strategy)
        serial.run(reference.id)
        expected = canonical_matches(serial.matches(reference.id))

        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        victim = formulate(manager, strategy)
        manager.run(victim.id)
        manager.create_session()  # evict a completed session
        restored = manager.restore_session(victim.id)
        assert restored.state == "ran"
        assert canonical_matches(manager.matches(victim.id)) == expected

    def test_restore_mid_formulation_then_continue(self, fig2_ctx):
        serial = SessionManager(fig2_ctx)
        reference = formulate(serial)
        serial.apply_action(reference.id, ModifyBounds(0, 2, 1, 4))
        serial.run(reference.id)
        expected = canonical_matches(serial.matches(reference.id))

        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        victim = formulate(manager)  # formulated, not yet run
        manager.create_session()
        manager.restore_session(victim.id)
        manager.apply_action(victim.id, ModifyBounds(0, 2, 1, 4))
        manager.run(victim.id)
        assert canonical_matches(manager.matches(victim.id)) == expected

    def test_restore_is_idempotent_for_live_sessions(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        session = formulate(manager)
        assert manager.restore_session(session.id) is session

    def test_unknown_session_restore_is_typed(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        with pytest.raises(SessionNotFoundError):
            manager.restore_session("s999")

    def test_expired_checkpoint_restore_is_typed(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        manager.checkpoints.capacity = 1  # the store's bound, shrunk to overflow
        victim = formulate(manager)
        manager.create_session()  # evicts + checkpoints victim
        # A second eviction overflows the single-slot store: victim expires.
        second = formulate(manager)
        assert second.id not in (victim.id,)
        manager.create_session()
        with pytest.raises(SessionEvictedError, match="checkpoint expired"):
            manager.restore_session(victim.id)

    def test_eviction_error_advertises_restorability(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        victim = formulate(manager)
        manager.create_session()
        with pytest.raises(SessionEvictedError) as info:
            manager.apply_action(victim.id, NewVertex(9, "A"))
        assert info.value.restorable is True


class TestRestoreOverTheWire:
    @pytest.fixture()
    def served(self, fig2_ctx):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=1))
        server = QueryServer(manager, host="127.0.0.1", port=0).start()
        yield server, manager
        server.stop()

    def test_restore_op(self, served):
        server, manager = served
        with ServiceClient(*server.address) as client:
            sid = client.create_session()
            for action in FIG2_ACTIONS:
                client.action(sid, action)
            client.run(sid)
            expected = client.matches(sid)
            assert expected  # identity check below must be non-vacuous
            client.create_session()  # evicts sid
            result = client.restore_session(sid)
            assert result["restored"] is True
            assert result["session"] == sid
            assert client.matches(sid) == expected

    def test_auto_restore_is_transparent(self, served):
        server, manager = served
        with ServiceClient(
            *server.address,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001),
            auto_restore=True,
        ) as client:
            sid = client.create_session()
            for action in FIG2_ACTIONS:
                client.action(sid, action)
            client.run(sid)
            expected = client.matches(sid)
            client.create_session()  # evicts sid
            # The evicted-session read restores and retries on its own.
            assert client.matches(sid) == expected
        assert manager.stats_counters.sessions_restored >= 1

    def test_evicted_error_carries_restorable_hint(self, served):
        server, _ = served
        with ServiceClient(*server.address) as client:
            sid = client.create_session()
            client.action(sid, FIG2_ACTIONS[0])
            client.create_session()
            with pytest.raises(RemoteServiceError) as info:
                client.action(sid, FIG2_ACTIONS[1])
            assert info.value.code == "session_evicted"
            assert info.value.payload["details"]["restorable"] is True


class TestDiskTier:
    """Write-through persistence: restore survives a process restart."""

    def _checkpoint(self, fig2_ctx):
        manager = SessionManager(fig2_ctx)
        return checkpoint_session(formulate(manager), "test")

    def test_put_writes_through_and_new_store_reads_back(self, fig2_ctx, tmp_path):
        first = CheckpointStore(capacity=4, directory=str(tmp_path))
        checkpoint = self._checkpoint(fig2_ctx)
        first.put(checkpoint)
        assert (tmp_path / f"{checkpoint.session_id}.ckpt.json").exists()

        # A fresh store over the same directory — the restarted host.
        second = CheckpointStore(capacity=4, directory=str(tmp_path))
        assert len(second) == 0  # nothing in memory...
        loaded = second.get(checkpoint.session_id)  # ...but disk delivers
        assert loaded == checkpoint
        assert second.stats()["disk_hits_total"] == 1
        assert checkpoint.session_id in second

    def test_pop_deletes_the_file(self, fig2_ctx, tmp_path):
        store = CheckpointStore(capacity=4, directory=str(tmp_path))
        checkpoint = self._checkpoint(fig2_ctx)
        store.put(checkpoint)
        path = tmp_path / f"{checkpoint.session_id}.ckpt.json"
        assert path.exists()
        assert store.pop(checkpoint.session_id) == checkpoint
        assert not path.exists()
        assert store.pop(checkpoint.session_id) is None

    def test_memory_eviction_keeps_disk_copy(self, fig2_ctx, tmp_path):
        manager = SessionManager(fig2_ctx, ServeConfig(max_sessions=8))
        store = CheckpointStore(capacity=1, directory=str(tmp_path))
        older = checkpoint_session(formulate(manager), "test")
        newer = checkpoint_session(formulate(manager), "test")
        store.put(older)
        store.put(newer)  # bumps `older` out of the memory tier
        assert len(store) == 1
        assert store.get(older.session_id) == older  # disk fallback
        assert store.stats()["on_disk"] == 2

    def test_corrupt_file_reads_as_miss(self, fig2_ctx, tmp_path):
        store = CheckpointStore(capacity=4, directory=str(tmp_path))
        (tmp_path / "s77.ckpt.json").write_text("{not json", encoding="utf-8")
        assert store.get("s77") is None
        assert store.stats()["disk_hits_total"] == 0

    def test_unsafe_ids_skip_the_disk_tier(self, fig2_ctx, tmp_path):
        from dataclasses import replace

        store = CheckpointStore(capacity=4, directory=str(tmp_path))
        hostile = replace(self._checkpoint(fig2_ctx), session_id="../escape")
        store.put(hostile)
        # Held in memory, but no file anywhere — least of all outside.
        assert store.get("../escape") == hostile
        assert list(tmp_path.iterdir()) == []
        assert not (tmp_path.parent / "escape.ckpt.json").exists()

    def test_manager_restart_restores_byte_identical(self, fig2_ctx, tmp_path):
        """Write-through: a session survives a restart of its host."""
        before = SessionManager(fig2_ctx, ServeConfig(checkpoint_dir=str(tmp_path)))
        session = formulate(before)
        before.run(session.id)
        expected = canonical_matches(before.matches(session.id))
        assert expected

        # "Restart": a brand-new manager over the same directory; the old
        # one is simply dropped, exactly like a killed process.
        after = SessionManager(fig2_ctx, ServeConfig(checkpoint_dir=str(tmp_path)))
        with pytest.raises(SessionEvictedError) as info:
            after.get(session.id)
        assert info.value.restorable is True
        restored = after.restore_session(session.id)
        assert restored.state == "ran"
        assert canonical_matches(after.matches(session.id)) == expected

    def test_death_mid_restore_keeps_the_checkpoint(
        self, fig2_ctx, tmp_path, monkeypatch
    ):
        """A process that dies while it replays a checkpoint (killed with
        its client's ``restore_session`` in flight) has not taken the
        session's only durable copy with it."""
        import repro.service.manager as manager_module

        config = ServeConfig(checkpoint_dir=str(tmp_path))
        before = SessionManager(fig2_ctx, config)
        session = formulate(before)
        before.run(session.id)
        expected = canonical_matches(before.matches(session.id))

        class Killed(BaseException):
            """Not an error any handler cleans up after: the process is gone."""

        def die(*args):
            raise Killed

        dying = SessionManager(fig2_ctx, config)
        with monkeypatch.context() as patch:
            patch.setattr(manager_module, "_rebuild_from_checkpoint", die)
            with pytest.raises(Killed):
                dying.restore_session(session.id)
        assert (tmp_path / f"{session.id}.ckpt.json").exists()

        after = SessionManager(fig2_ctx, config)
        assert after.restore_session(session.id).state == "ran"
        assert canonical_matches(after.matches(session.id)) == expected

    def test_restarted_host_never_reissues_a_checkpointed_id(
        self, fig2_ctx, tmp_path
    ):
        """A restarted host counts session ids from 1 again; a fresh id must
        skip every id the checkpoint directory holds, or the new user's
        session overwrites the old one's checkpoint and answers its
        restore.  Checkpoints an older multi-process host wrote under ids
        like ``w0s1`` restore too, and their files stay byte-identical."""
        from dataclasses import replace

        config = ServeConfig(checkpoint_dir=str(tmp_path))
        first = SessionManager(fig2_ctx, config)
        session = formulate(first)
        first.run(session.id)
        expected = canonical_matches(first.matches(session.id))
        assert session.id == "s1" and len(expected) == 3
        store = CheckpointStore(directory=str(tmp_path))
        ran = store.get("s1")
        for legacy_id in ("w0s1", "w1s1"):
            store.put(replace(ran, session_id=legacy_id))
        legacy_bytes = {
            name: (tmp_path / f"{name}.ckpt.json").read_bytes()
            for name in ("w0s1", "w1s1")
        }

        second = SessionManager(fig2_ctx, config)
        stranger = second.create_session()
        assert stranger.id not in ("s1", "w0s1", "w1s1")
        restored = second.restore_session("s1")
        assert restored is not stranger and restored.state == "ran"
        assert canonical_matches(second.matches("s1")) == expected
        for name, before in legacy_bytes.items():
            assert second.restore_session(name).state == "ran"
            assert canonical_matches(second.matches(name)) == expected
            assert (tmp_path / f"{name}.ckpt.json").read_bytes() == before
