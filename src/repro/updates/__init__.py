"""First-class graph mutation: edge updates with correctness-guarded indexes.

Production networks churn, and BOOMER's blended processing assumes the
PML labels, two-hop counts, and distance caches all describe the
*current* graph.  This package is the only sanctioned way to move a
:class:`~repro.graph.graph.Graph` after construction, and it keeps that
assumption true:

* :func:`~repro.updates.csr.graph_insert_edge` /
  :func:`~repro.updates.csr.graph_delete_edge` splice the CSR arrays in
  place and bump the graph's monotonic :attr:`~repro.graph.graph.Graph.epoch`;
* :func:`insert_edge` / :func:`delete_edge` orchestrate a whole
  :class:`~repro.core.context.EngineContext` through an update —
  incremental PML label patching for inserts (resumed pruned BFS, the
  dynamic-PLL rule), a re-run of only the landmarks a delete can reach
  (in rank order, the build's landmark order kept) for deletes, in-place
  two-hop count repair for the affected vertices, and proactive
  invalidation of the shared distance-vector cache;
* every derived structure validates the epoch before answering, so a
  reader that somehow bypasses maintenance gets a typed
  :class:`~repro.errors.StaleIndexError` instead of a pre-mutation
  distance.

Conformance contract (tests/test_updates_conformance.py): after *any*
randomized insert/delete schedule, the maintained index answers every
distance query byte-identically to a fresh
:meth:`~repro.indexing.pml.PrunedLandmarkLabeling.build` on the mutated
graph.
"""

from repro.updates.csr import graph_delete_edge, graph_insert_edge
from repro.updates.maintain import (
    UpdateReport,
    apply_updates,
    delete_edge,
    insert_edge,
)

__all__ = [
    "UpdateReport",
    "insert_edge",
    "delete_edge",
    "apply_updates",
    "graph_insert_edge",
    "graph_delete_edge",
]
