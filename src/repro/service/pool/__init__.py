"""Multi-process worker pool: the service past the GIL ceiling.

The threaded :class:`~repro.service.manager.SessionManager` tops out at
one core: its handler threads share one GIL.  This package splits the service into a **dispatcher** (socket front end +
routing, still threads) and **N worker processes**, each running the
unchanged single-process stack over a shared engine basis published
through :mod:`repro.storage`:

* :mod:`repro.service.pool.dispatcher` — :class:`PoolDispatcher`, the
  :class:`~repro.service.server.QueryServer` backend: sticky routing,
  metrics/stats fan-out, worker-death repair (replacement worker +
  checkpoint requeue), over the basis transport
  :func:`~repro.service.host.open_host` resolved (zero-copy
  shared-memory segments, or a shared on-disk mmap basis);
* :mod:`repro.service.pool.worker` — the child-process entry point (one
  manager + :class:`~repro.service.dispatch.LocalDispatcher` behind a
  pipe) attaching whatever spec the dispatcher published via the
  backend-generic :func:`repro.storage.attach`.

``repro serve --workers N`` selects this backend; ``--workers 0`` keeps
the in-process threaded path bit-for-bit, and ``--storage mmap`` swaps
the transport under the same wire surface.
"""

from repro.service.pool.dispatcher import PoolDispatcher
from repro.service.pool.worker import worker_main

__all__ = [
    "PoolDispatcher",
    "worker_main",
]
