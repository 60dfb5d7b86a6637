"""Multi-process worker pool: the service past the GIL ceiling.

The threaded :class:`~repro.service.manager.SessionManager` tops out at
one core: its handler threads share one GIL.  This package splits the service into a **dispatcher** (socket front end +
routing, still threads) and **N worker processes**, each running the
unchanged single-process stack over one saved engine basis
(:mod:`repro.storage`) every process opens read-only:

* :mod:`repro.service.pool.dispatcher` — :class:`PoolDispatcher`, the
  :class:`~repro.service.server.QueryServer` backend: sticky routing,
  metrics/stats fan-out, worker-death repair (replacement worker +
  checkpoint requeue), over the mmap backend
  :func:`~repro.service.host.open_host` opened (a basis directory in
  place, or one saved into a temp dir the pool deletes);
* :mod:`repro.service.pool.worker` — the child-process entry point (one
  manager + :class:`~repro.service.dispatch.LocalDispatcher` behind a
  pipe) opening the directory the dispatcher's spec names via
  :func:`repro.storage.attach`.

``repro serve --workers N`` selects this backend; ``--workers 0`` keeps
the in-process threaded path bit-for-bit.
"""

from repro.service.pool.dispatcher import PoolDispatcher
from repro.service.pool.worker import worker_main

__all__ = [
    "PoolDispatcher",
    "worker_main",
]
