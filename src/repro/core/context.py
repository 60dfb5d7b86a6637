"""Shared engine context: the data graph plus everything preprocessed.

One :class:`EngineContext` is built per data graph (via
:mod:`repro.core.preprocessor`) and shared across queries, strategies, the
baseline, and the experiment harness.  It also centralizes the counters the
experiments report (distance queries issued, PVS scan choices, ...).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.cost import CostModel
from repro.core.matcher import LabelEqualityMatcher, VertexMatcher
from repro.graph.graph import Graph
from repro.indexing import batch as _batch
from repro.indexing.oracle import DistanceOracle

__all__ = ["EngineContext", "EngineCounters"]


@dataclass
class EngineCounters:
    """Mutable instrumentation shared by the PVS searches and strategies."""

    distance_queries: int = 0
    #: Interpreter-level oracle invocations.  A scalar query is 1; a batch
    #: query is 1 per kernel call (a whole ``within_many`` block is one)
    #: regardless of how many logical distances it answered.  The ratio
    #: ``distance_queries / oracle_calls`` is the batching win
    #: ``tests/test_batch_parity.py`` gates on.
    oracle_calls: int = 0
    out_scans: int = 0
    in_scans: int = 0
    pairs_added: int = 0
    edges_processed: int = 0
    edges_deferred: int = 0
    pool_probes: int = 0
    #: V_Δ enumeration work: DFS frames popped, and the partial-match rows
    #: whose children were gathered, summed over depths.
    dfs_steps: int = 0
    rows_expanded: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.__init__()

    def snapshot(self) -> dict[str, int]:
        """Counters as a plain dict (for reports)."""
        return asdict(self)


@dataclass
class EngineContext:
    """Everything a strategy needs to process query vertices and edges.

    Attributes
    ----------
    graph:
        The data graph.
    oracle:
        Exact shortest-path distance oracle (PML by default; the framework
        is oracle-agnostic per the paper's footnote 5).
    two_hop:
        Per-vertex 2-hop neighborhood *counts* (Section 5.2) feeding the
        two-hop search's scan-choice cost model.
    cost_model:
        ``t_avg`` / ``t_lat`` bundle answering Definition 5.8.

    A Results page (:func:`~repro.core.lowerbound.filter_by_lower_bound`
    over a chunk of rows) charges ``distance_queries`` one logical query
    per distinct (source, target) pair of its cells and ``oracle_calls``
    one per distinct target (a kernel invocation).  The BFS level arrays
    that answer every other distance are graph reads, not oracle queries,
    and are charged to neither.
    """

    graph: Graph
    oracle: DistanceOracle
    two_hop: np.ndarray
    cost_model: CostModel
    counters: EngineCounters = field(default_factory=EngineCounters)
    #: Ablation hook: force every PVS scan choice to "in" or "out" instead
    #: of the Lemma 5.3/5.4 cost comparison (None = cost model decides).
    scan_override: str | None = None
    #: Vertex-matching policy: label equality (BPH default, Def. 3.1) or a
    #: similarity matcher (full 1-1 p-hom semantics, Sec. 2).
    matcher: VertexMatcher = field(default_factory=LabelEqualityMatcher)

    @property
    def epoch(self) -> int:
        """The graph's mutation epoch (see :attr:`repro.graph.graph.Graph.epoch`)."""
        return self.graph.epoch

    def candidates_for(self, label: object) -> np.ndarray:
        """Candidate data vertices of a query vertex labeled ``label``: the
        matcher's sorted int32 array (shared — do not mutate)."""
        return self.matcher.candidates_for(self.graph, label)

    def distance(self, u: int, v: int) -> int:
        """Counted oracle distance query."""
        self.counters.distance_queries += 1
        self.counters.oracle_calls += 1
        return self.oracle.distance(u, v)

    def within(self, u: int, v: int, upper: int) -> bool:
        """Counted bounded-distance check."""
        self.counters.distance_queries += 1
        self.counters.oracle_calls += 1
        return self.oracle.within(u, v, upper)

    # -- kernel queries (see repro.indexing.batch) ---------------------
    def distances_from(self, source: int, targets) -> np.ndarray:
        """Counted batch distance query: ``dist(source, t)`` per target.

        One logical ``distance_queries`` per target, one ``oracle_calls``.
        """
        t = np.asarray(targets, dtype=np.int64)
        self.counters.distance_queries += int(t.size)
        self.counters.oracle_calls += 1
        return _batch.distances_from(self.oracle, source, t)

    def within_many(
        self, sources, targets, upper: int, skip_equal: bool = False
    ) -> np.ndarray:
        """Counted batch bounded-distance check over ``sources × targets``.

        Returns the qualifying pairs as an int32 ``(P, 2)`` block in the
        emission order of the per-pair double loop (source-major, targets
        in the given order).  ``distance_queries`` is charged all
        ``|sources|·|targets|`` logical queries (Lemma 5.5), the diagonal
        ``skip_equal=True`` keeps from the oracle included; ``oracle_calls`` 1.
        """
        self.counters.distance_queries += len(sources) * len(targets)
        self.counters.oracle_calls += 1
        return self.oracle.within_many(sources, targets, upper, skip_equal)
