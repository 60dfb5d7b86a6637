"""Multi-session query service: many visual sessions, one shared engine.

The paper's system is single-user by construction — one person sketching
one query.  The ROADMAP's north star is a server multiplexing *many*
concurrent formulations over one immutable data graph and one expensive
PML oracle.  This package is that layer:

* :class:`ManagedSession` — one hosted formulation: a
  :class:`~repro.core.blender.Boomer` plus the hybrid virtual timeline
  (:class:`~repro.gui.session.TimelineState`), advanced one wire request
  at a time instead of one batch replay at a time.
* :class:`IdleScheduler` — cooperative Defer-to-Idle multiplexer: the
  idle GUI window of *any* session is donated to the cheapest pending CAP
  work across *all* sessions, fair-share scheduled so a chatty session
  never starves another's cheap edges.
* :class:`SessionManager` — the host: admission control (session and
  CAP-entry budgets), LRU eviction of idle sessions under memory
  pressure, per-session accounting, and thread-safe dispatch.
* :class:`QueryServer` / :class:`ServiceClient` — a JSON-lines-over-TCP
  wire protocol (``python -m repro serve``) exposing create-session /
  action / run / results / stats.
* :class:`OverloadPolicy` — watermark backpressure: past configurable
  session/CAP/queue-depth watermarks the manager *sheds* work with the
  typed, retryable ``overloaded`` verdict (+ ``retry_after_ms`` hint)
  instead of queueing into collapse.
* :class:`SessionCheckpoint` / :class:`CheckpointStore` — eviction and
  drain capture the session (action log + virtual timeline + limits) so
  it resumes by id with byte-identical subsequent matches; CAP entries
  are rebuilt warm by the scheduler (deferral neutrality).  The store
  optionally writes through to disk, which is what lets restore survive
  a worker *process* dying, not just in-memory eviction.
* :class:`LocalDispatcher` / :class:`PoolDispatcher` — the server's
  backend seam: the former is the in-process threaded path, the latter
  fans sessions out across N worker processes sharing the engine basis
  zero-copy (``repro serve --workers N``; see :mod:`repro.service.pool`).
* :class:`ServeConfig` / :func:`open_host` — the one configuration of a
  hosting process and the one door that brings either backend up from
  it (:mod:`repro.service.host`).

Layering: ``service`` sits *above* ``gui``/``core`` — it imports them,
never the reverse.  Everything below the manager is unchanged BOOMER; the
deferral-neutrality invariant is what makes cross-session scheduling safe
(moving CAP work between idle windows can never change ``V_Δ``).
"""

from repro.service.checkpoint import CheckpointStore, SessionCheckpoint
from repro.service.client import ServiceClient
from repro.service.dispatch import LocalDispatcher
from repro.service.host import ServeConfig, open_host
from repro.service.manager import ManagerStats, SessionManager
from repro.service.overload import OverloadPolicy
from repro.service.pool import PoolDispatcher
from repro.service.protocol import PROTOCOL_VERSION, canonical_matches
from repro.service.scheduler import IdleScheduler
from repro.service.server import QueryServer
from repro.service.session import ManagedSession, SessionLimits

__all__ = [
    "ManagedSession",
    "SessionLimits",
    "IdleScheduler",
    "SessionManager",
    "ManagerStats",
    "QueryServer",
    "ServiceClient",
    "LocalDispatcher",
    "PoolDispatcher",
    "ServeConfig",
    "open_host",
    "OverloadPolicy",
    "SessionCheckpoint",
    "CheckpointStore",
    "PROTOCOL_VERSION",
    "canonical_matches",
]
