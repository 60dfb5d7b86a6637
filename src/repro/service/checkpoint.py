"""Session checkpoint/restore: eviction as graceful degradation.

Before this module, LRU eviction was data loss: the evicted session's
query graph, virtual timeline, and CAP progress vanished, and the client
got :class:`~repro.errors.SessionEvictedError` — "recreate and replay
yourself".  A checkpoint captures everything needed to *resume the
session by id*:

* the **action log** (recording-format dicts, :mod:`repro.gui.recording`)
  — the formulation itself;
* the **virtual timeline** (:class:`~repro.gui.session.TimelineState`
  scalars) — arrival/busy horizon/QFT accounting;
* the **limits** — the strategy (the Run deadline is the host's, so a
  restored session takes the deadline of the host restoring it);
* the session's service-side **accounting** (actions applied, donated /
  serviced idle seconds).

What is deliberately *not* captured: the CAP index.  Replaying the action
log with ``auto_idle=False`` re-pools every query edge, and the
**deferral-neutrality invariant** (Theorem: moving CAP work between idle
windows never changes ``V_Δ``) guarantees the restored session's Run
produces byte-identical matches to the uninterrupted original — the CAP
entries are rebuilt warm afterwards by the
:class:`~repro.service.scheduler.IdleScheduler` on other sessions' idle
donations, exactly like any cold session.  Checkpoints are therefore
small (a formulation is a handful of actions), JSON-portable, and cheap
enough to take on every eviction and drain.

Restore replays **outside any manager lock** (engine compute never runs
under service bookkeeping locks — lint rule R6) and re-registers the
session with the scheduler under its original id.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING

from repro.core.actions import Run
from repro.errors import CheckpointError
from repro.gui.recording import action_from_dict, action_to_dict
from repro.service.session import ManagedSession, SessionLimits
from repro.utils.files import write_atomic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import EngineContext

__all__ = [
    "SessionCheckpoint",
    "CheckpointStore",
    "checkpoint_session",
    "restore_session",
]

#: Bump when the checkpoint dict layout changes incompatibly.
CHECKPOINT_FORMAT = 1

#: Session states a checkpoint can capture.  ``failed`` is terminal by
#: contract (the engine refuses further work) and ``closed`` has already
#: dropped its state, so neither can round-trip.
_CHECKPOINTABLE_STATES = ("formulating", "ran")


# --------------------------------------------------------------------------
# Limits serialization
# --------------------------------------------------------------------------
def _limits_from_dict(payload: dict[str, object]) -> SessionLimits:
    """The limits a checkpoint recorded: the payload keys that are still
    fields of :class:`SessionLimits` (a key an older writer recorded and
    no field answers to, such as a resilience posture, is ignored)."""
    known = {f.name for f in fields(SessionLimits)}
    try:
        return SessionLimits(**{k: v for k, v in payload.items() if k in known})
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint limits: {exc}") from exc


# --------------------------------------------------------------------------
# The checkpoint record
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SessionCheckpoint:
    """Everything needed to resume one hosted session by id."""

    session_id: str
    state: str  # "formulating" | "ran"
    reason: str  # why it was checkpointed ("CAP budget", "drain", ...)
    limits: dict = field(default_factory=dict)
    #: Recording-format action dicts, in application order; Run excluded
    #: (``state == "ran"`` records that Run happened).
    actions: tuple = ()
    #: TimelineState scalars: arrival, busy_until, formulation_busy,
    #: simulated_qft.
    timeline: dict = field(default_factory=dict)
    #: Service-side accounting carried across the gap.
    actions_applied: int = 0
    backlog_seconds: float = 0.0
    donated_idle_seconds: float = 0.0
    serviced_seconds: float = 0.0
    serviced_edges: int = 0

    # -- JSON round-trip -------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        out = asdict(self)
        out["actions"] = list(self.actions)
        out["format"] = CHECKPOINT_FORMAT
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "SessionCheckpoint":
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload must be a JSON object")
        version = payload.get("format")
        if version != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format {version!r} "
                f"(expected {CHECKPOINT_FORMAT})"
            )
        try:
            return cls(
                session_id=str(payload["session_id"]),
                state=str(payload["state"]),
                reason=str(payload["reason"]),
                limits=dict(payload["limits"]),
                actions=tuple(payload["actions"]),
                timeline=dict(payload["timeline"]),
                actions_applied=int(payload["actions_applied"]),
                backlog_seconds=float(payload["backlog_seconds"]),
                donated_idle_seconds=float(payload["donated_idle_seconds"]),
                serviced_seconds=float(payload["serviced_seconds"]),
                serviced_edges=int(payload["serviced_edges"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionCheckpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)


# --------------------------------------------------------------------------
# Capture / restore
# --------------------------------------------------------------------------
def checkpoint_session(session: ManagedSession, reason: str) -> SessionCheckpoint:
    """Capture ``session`` into a checkpoint (caller holds its lock).

    Raises :class:`~repro.errors.CheckpointError` for terminal states —
    a ``failed`` engine refuses further work and a ``closed`` session has
    already dropped its state, so neither can resume.
    """
    if session.state not in _CHECKPOINTABLE_STATES:
        raise CheckpointError(
            f"session {session.id!r} is {session.state}; only "
            f"{'/'.join(_CHECKPOINTABLE_STATES)} sessions can checkpoint"
        )
    timeline = session.timeline
    return SessionCheckpoint(
        session_id=session.id,
        state=session.state,
        reason=reason,
        limits=asdict(session.limits),
        actions=tuple(action_to_dict(a) for a in session.action_log),
        timeline={
            "arrival": timeline.arrival,
            "busy_until": timeline.busy_until,
            "formulation_busy": timeline.formulation_busy,
            "simulated_qft": timeline.simulated_qft,
        },
        actions_applied=session.actions_applied,
        backlog_seconds=session.backlog_seconds,
        donated_idle_seconds=session.donated_idle_seconds,
        serviced_seconds=session.serviced_seconds,
        serviced_edges=session.serviced_edges,
    )


def restore_session(
    checkpoint: SessionCheckpoint,
    base_ctx: "EngineContext",
    deadline_seconds: float | None = None,
) -> ManagedSession:
    """Rebuild a live :class:`ManagedSession` from ``checkpoint``.

    Replays the action log directly through the session's fresh engine
    (no idle probing: every query edge lands back in the Defer-to-Idle
    pool, to be rebuilt warm by the scheduler), then reinstates the
    virtual timeline and accounting scalars, and — for a ``ran``
    checkpoint — re-executes the Run click.  Deferral neutrality makes
    the resumed session's matches byte-identical to the uninterrupted
    original.  ``deadline_seconds`` is the restoring host's Run deadline.

    Call **without** holding any manager lock: replay is engine compute.
    """
    limits = _limits_from_dict(checkpoint.limits)
    session = ManagedSession(checkpoint.session_id, base_ctx, limits, deadline_seconds)
    try:
        actions = [action_from_dict(item) for item in checkpoint.actions]
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint for {checkpoint.session_id!r} holds an unreadable "
            f"action log: {exc}"
        ) from exc
    try:
        for action in actions:
            session.boomer.apply(action)
            session.action_log.append(action)
    except Exception as exc:
        raise CheckpointError(
            f"cannot replay checkpoint for {checkpoint.session_id!r}: {exc}"
        ) from exc
    # Reinstate the hybrid clock exactly where the original left it; the
    # replay above deliberately did not advance it (resume must not
    # re-charge think time or compute that already happened).
    session.timeline.arrival = float(checkpoint.timeline["arrival"])
    session.timeline.busy_until = float(checkpoint.timeline["busy_until"])
    session.timeline.formulation_busy = float(
        checkpoint.timeline["formulation_busy"]
    )
    session.timeline.simulated_qft = float(checkpoint.timeline["simulated_qft"])
    session.actions_applied = checkpoint.actions_applied
    session.donated_idle_seconds = checkpoint.donated_idle_seconds
    session.serviced_seconds = checkpoint.serviced_seconds
    session.serviced_edges = checkpoint.serviced_edges
    session.restored = True
    if checkpoint.state == "ran":
        session.backlog_seconds = checkpoint.backlog_seconds
        try:
            session.boomer.apply(Run())
        except Exception as exc:
            raise CheckpointError(
                f"cannot re-execute Run for {checkpoint.session_id!r}: {exc}"
            ) from exc
        session.state = "ran"
    return session


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------
#: Session ids safe to use verbatim as checkpoint file stems.  Anything
#: else (ids are client-supplied on ``restore``) skips the disk tier
#: rather than risking a path escape.
_SAFE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,128}$")

_CKPT_SUFFIX = ".ckpt.json"


class CheckpointStore:
    """Bounded, thread-safe holding pen for evicted/drained sessions.

    Insertion order doubles as age; past ``capacity`` the oldest
    checkpoint is dropped (and counted), mirroring the manager's bounded
    evicted-id memory — a session evicted long ago eventually becomes
    unrestorable, and the client falls back to recreate-and-replay.

    With ``directory`` set the store is **write-through to disk**: every
    ``put`` also lands as ``<session_id>.ckpt.json`` (written to a temp
    file then atomically renamed, so readers never observe a torn
    checkpoint), and ``get``/``pop`` fall back to disk on a memory miss.
    That is what lets session restore survive the hosting *process*
    dying: a restarted host opens a fresh store over the same directory
    and finds every checkpoint its predecessor wrote.  The
    in-memory capacity bound does **not** evict disk files; disk is the
    durable tier, bounded only by explicit ``pop``.
    """

    def __init__(self, capacity: int = 256, directory: str | None = None) -> None:
        if capacity < 1:
            raise CheckpointError("checkpoint store capacity must be >= 1")
        self.capacity = capacity
        self.directory = directory
        self._lock = threading.Lock()
        self._checkpoints: OrderedDict[str, SessionCheckpoint] = OrderedDict()
        self.stored_total = 0
        self.dropped_total = 0
        self.disk_writes_total = 0
        self.disk_hits_total = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # -- disk tier -------------------------------------------------------
    def _path_for(self, session_id: str) -> str | None:
        if self.directory is None or not _SAFE_ID_RE.match(session_id):
            return None
        return os.path.join(self.directory, session_id + _CKPT_SUFFIX)

    def _write_disk(self, checkpoint: SessionCheckpoint) -> None:
        path = self._path_for(checkpoint.session_id)
        if path is None:
            return
        write_atomic(path, checkpoint.to_json())
        self.disk_writes_total += 1

    def _read_disk(self, session_id: str) -> SessionCheckpoint | None:
        path = self._path_for(session_id)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return None
        try:
            checkpoint = SessionCheckpoint.from_json(text)
        except CheckpointError:
            # A corrupt file is unrestorable; leave it for forensics but
            # report a miss so the client falls back to recreate.
            return None
        self.disk_hits_total += 1
        return checkpoint

    def _remove_disk(self, session_id: str) -> None:
        path = self._path_for(session_id)
        if path is None:
            return
        try:
            os.remove(path)
        except OSError:
            pass

    def _disk_ids(self) -> list[str]:
        if self.directory is None:
            return []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            name[: -len(_CKPT_SUFFIX)]
            for name in names
            if name.endswith(_CKPT_SUFFIX)
        ]

    # -- store API -------------------------------------------------------
    def put(self, checkpoint: SessionCheckpoint) -> None:
        with self._lock:
            self._checkpoints.pop(checkpoint.session_id, None)
            self._checkpoints[checkpoint.session_id] = checkpoint
            self.stored_total += 1
            while len(self._checkpoints) > self.capacity:
                # Memory-tier eviction only; the disk copy (if any)
                # keeps the session restorable.
                self._checkpoints.popitem(last=False)
                self.dropped_total += 1
            self._write_disk(checkpoint)

    def pop(self, session_id: str) -> SessionCheckpoint | None:
        """Remove and return the checkpoint for ``session_id`` (or None)."""
        with self._lock:
            checkpoint = self._checkpoints.pop(session_id, None)
            if checkpoint is None:
                checkpoint = self._read_disk(session_id)
            self._remove_disk(session_id)
            return checkpoint

    def get(self, session_id: str) -> SessionCheckpoint | None:
        with self._lock:
            checkpoint = self._checkpoints.get(session_id)
            if checkpoint is None:
                checkpoint = self._read_disk(session_id)
            return checkpoint

    def __contains__(self, session_id: str) -> bool:
        """True if a checkpoint for ``session_id`` is held in memory or on
        disk (the file's presence; it is not parsed)."""
        with self._lock:
            if session_id in self._checkpoints:
                return True
            path = self._path_for(session_id)
            return path is not None and os.path.exists(path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "held": len(self._checkpoints),
                "capacity": self.capacity,
                "stored_total": self.stored_total,
                "dropped_total": self.dropped_total,
                "on_disk": len(self._disk_ids()),
                "disk_writes_total": self.disk_writes_total,
                "disk_hits_total": self.disk_hits_total,
            }
