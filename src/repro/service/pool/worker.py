"""Worker-process entry point: one manager, one pipe, one saved basis.

A worker is deliberately just today's single-process service stack —
:class:`~repro.service.manager.SessionManager` behind a
:class:`~repro.service.dispatch.LocalDispatcher` — re-hosted behind a
duplex pipe instead of a socket.  Everything the threaded path guarantees
(per-session locking, IdleScheduler idle donation, overload shedding,
drain semantics) holds verbatim *inside* each worker; the pool only adds
process boundaries between groups of sessions.

Wire format on the pipe (picklable tuples):

* parent → worker: ``("req", seq, request)`` — one decoded wire request;
  ``("drain", seq, timeout)`` — graceful drain; ``("exit", seq)`` — stop.
* worker → parent: ``("ok", seq, result)`` or ``("err", seq, error)``
  where ``error`` is the wire ``error`` object built by
  :func:`~repro.service.protocol.error_object` — exceptions cross the
  boundary as *data*, not pickles (exception ``__init__`` signatures are
  fragile across versions), and rehydrate dispatcher-side as
  :class:`~repro.errors.RelayedError` so clients read identical error
  frames with ``--workers 0`` and ``--workers N``.

Requests run on their own thread (the pipe reader never blocks on engine
compute), replies are serialized by a send lock.  The saved basis the
dispatcher's :class:`~repro.storage.mmapstore.MmapSpec` names is opened
**lazily on the first request** — spawning N workers costs N interpreter
startups, not N graph copies, and nothing is held that an exit (clean or
SIGKILL) would have to release.

Distinct per-process state that stays local by design: the action logs and
IdleScheduler warm state of this worker's sessions (sticky routing keeps
a session here for life), the process-wide
:data:`~repro.indexing.batch.shared_distance_cache`, and the metrics
registry (snapshots flow back over the pipe via the ``metrics`` op and are
merged by :mod:`repro.obs.aggregate`).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.service.host import ServeConfig
from repro.storage import MmapSpec, attach

__all__ = ["worker_main"]


def worker_main(
    index: int | str, spec: MmapSpec, config: ServeConfig, conn: Any
) -> None:
    """Run one worker until ``exit`` (or the dispatcher's pipe closes).

    ``config`` is this worker's share of the fleet's
    :class:`~repro.service.host.ServeConfig`: its slice of the session
    budget, and the checkpoint directory the whole fleet writes through
    to — which is what makes a SIGKILL survivable, and where a
    replacement worker finds its predecessor's sessions.
    """
    from repro.service.dispatch import LocalDispatcher
    from repro.service.manager import SessionManager
    from repro.service.protocol import error_object

    send_lock = threading.Lock()
    dispatcher: LocalDispatcher | None = None
    init_lock = threading.Lock()

    def _send(message: tuple) -> None:
        with send_lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):  # dispatcher died; we follow
                raise SystemExit(0)

    def _backend() -> LocalDispatcher:
        nonlocal dispatcher
        with init_lock:
            if dispatcher is None:
                dispatcher = LocalDispatcher(
                    SessionManager(
                        attach(spec), config, session_prefix=f"w{index}s"
                    )
                )
        return dispatcher

    def _handle(seq: int, request: dict[str, Any]) -> None:
        try:
            result = _backend().dispatch(request)
        except Exception as exc:
            _send(("err", seq, error_object(exc)))
            return
        _send(("ok", seq, result))

    def _drain(seq: int, timeout: float | None) -> None:
        try:
            summary = (
                _backend().drain(timeout=timeout)
                if dispatcher is not None
                else {"checkpointed": [], "busy": [], "inflight_at_timeout": 0}
            )
        except Exception as exc:
            _send(("err", seq, error_object(exc)))
            return
        _send(("ok", seq, summary))

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # dispatcher went away
            kind = message[0]
            if kind == "req":
                _, seq, request = message
                threading.Thread(
                    target=_handle,
                    args=(seq, request),
                    name=f"repro-worker{index}-req{seq}",
                    daemon=True,
                ).start()
            elif kind == "drain":
                _, seq, timeout = message
                threading.Thread(
                    target=_drain,
                    args=(seq, timeout),
                    name=f"repro-worker{index}-drain",
                    daemon=True,
                ).start()
            elif kind == "exit":
                _, seq = message
                _send(("ok", seq, {"exited": index}))
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass
