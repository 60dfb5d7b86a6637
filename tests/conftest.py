"""Shared fixtures: small deterministic graphs, contexts, dataset bundles."""

from __future__ import annotations

import itertools
import os

import pytest

from repro.core.preprocessor import make_context, preprocess
from repro.core.cost import GUILatencyConstants
from repro.core.query import BPHQuery
from repro.graph.algorithms import bfs_distances
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from tests.reference_models import has_path_within


def build_fig2_graph() -> Graph:
    """The paper's Figure 2(b)-style data graph used in worked examples.

    Twelve vertices; labels: A on v1..v4 (candidates of q1), B on v5..v8
    (q2), X on connectors v9..v11, C on v12 (q3).  Vertex ids are 0-based
    (paper's v1 = id 0, ..., v12 = id 11).
    """
    builder = GraphBuilder("fig2")
    labels = ["A", "A", "A", "A", "B", "B", "B", "B", "X", "X", "X", "C"]
    builder.add_vertices(labels)
    edges = [
        (1, 4),  # v2-v5
        (2, 5),  # v3-v6
        (2, 7),  # v3-v8
        (3, 6),  # v4-v7
        (4, 8),  # v5-v9
        (8, 11),  # v9-v12
        (5, 9),  # v6-v10
        (9, 11),  # v10-v12
        (7, 11),  # v8-v12
        (4, 5),  # v5-v6
        (0, 8),  # v1-v9
    ]
    for u, v in edges:
        builder.add_edge(u, v)
    return builder.build()


def build_path_graph(n: int, label: str = "P") -> Graph:
    """A labeled path 0-1-...-(n-1)."""
    builder = GraphBuilder(f"path{n}")
    builder.add_vertices([label] * n)
    for v in range(n - 1):
        builder.add_edge(v, v + 1)
    return builder.build()


def build_cycle_graph(n: int, label: str = "C") -> Graph:
    """A labeled cycle of length n."""
    builder = GraphBuilder(f"cycle{n}")
    builder.add_vertices([label] * n)
    for v in range(n):
        builder.add_edge(v, (v + 1) % n)
    return builder.build()


def brute_force_upper_matches(graph: Graph, query: BPHQuery) -> set[tuple[tuple[int, int], ...]]:
    """Reference V_Delta: injective label-respecting maps meeting upper bounds.

    Exhaustive (exponential) — only for small test graphs.  Distances are
    plain BFS ground truth, fully independent of the engine under test.
    """
    qids = query.vertex_ids()
    candidate_lists = [
        [int(v) for v in graph.vertices_with_label(query.label(q))] for q in qids
    ]
    dist_cache: dict[int, object] = {}

    def dist(u: int, v: int) -> int:
        if u not in dist_cache:
            dist_cache[u] = bfs_distances(graph, u)
        return int(dist_cache[u][v])

    results: set[tuple[tuple[int, int], ...]] = set()
    for combo in itertools.product(*candidate_lists):
        if len(set(combo)) != len(combo):
            continue
        assignment = dict(zip(qids, combo))
        ok = True
        for edge in query.edges():
            d = dist(assignment[edge.u], assignment[edge.v])
            if d < 0 or d > edge.upper or assignment[edge.u] == assignment[edge.v]:
                ok = False
                break
        if ok:
            results.add(tuple(sorted(assignment.items())))
    return results


def brute_force_full_matches(graph: Graph, query: BPHQuery) -> set[tuple[tuple[int, int], ...]]:
    """Reference fully-validated matches: upper bounds + lower-bound paths."""
    full: set[tuple[tuple[int, int], ...]] = set()
    for match in brute_force_upper_matches(graph, query):
        assignment = dict(match)
        ok = True
        for edge in query.edges():
            if not has_path_within(
                graph, assignment[edge.u], assignment[edge.v], edge.lower, edge.upper
            ):
                ok = False
                break
        if ok:
            full.add(match)
    return full


@pytest.fixture(scope="session")
def fig2_graph() -> Graph:
    return build_fig2_graph()


@pytest.fixture(scope="session")
def fig2_pre(fig2_graph):
    return preprocess(fig2_graph, t_avg_samples=200)


@pytest.fixture()
def fig2_ctx(fig2_pre):
    """Fresh context per test (counters are mutable)."""
    return make_context(fig2_pre, latency=GUILatencyConstants().scaled(0.001))


@pytest.fixture()
def pooled_ctx(fig2_ctx):
    """fig2 with ``t_avg`` inflated so upper-3 edges classify expensive.

    fig2's candidate sets are tiny (4x4 at most), so with the measured
    ``t_avg`` every edge is cheap and nothing ever pools.  Raising
    ``t_avg`` to 2 ms puts the upper-3 estimates (8-32 ms) above ``t_lat``
    (2 ms, so Definition 5.8 pools them) while small donated idle windows
    (tens of ms) still fit them — the regime the service scheduler and
    concurrency tests need.
    """
    from dataclasses import replace

    return replace(
        fig2_ctx, cost_model=replace(fig2_ctx.cost_model, t_avg=0.002)
    )


def make_fig2_query() -> BPHQuery:
    """The paper's Q1 on the Figure-2 graph: A-B [1,1], B-C [1,2], A-C [1,3]."""
    query = BPHQuery(name="fig2-Q1")
    query.add_vertex("A", vertex_id=0)
    query.add_vertex("B", vertex_id=1)
    query.add_vertex("C", vertex_id=2)
    query.add_edge(0, 1, 1, 1)
    query.add_edge(1, 2, 1, 2)
    query.add_edge(0, 2, 1, 3)
    return query


@pytest.fixture(autouse=True)
def _lock_order_monitor():
    """Opt-in lockdep pass: ``REPRO_LOCK_MONITOR=1 pytest ...``.

    Every ``threading.Lock``/``RLock`` created during the test is replaced
    by an instrumented shim (see :mod:`repro.analysis.lockorder`); the
    teardown assertion turns any lock-order inversion observed anywhere in
    the test into a failure — CI runs the service concurrency suite under
    this to prove the shared-oracle scheduling stays deadlock-free.
    """
    if os.environ.get("REPRO_LOCK_MONITOR") != "1":
        yield None
        return
    from repro.analysis.lockorder import LockOrderMonitor, patch_locks

    monitor = LockOrderMonitor()
    with patch_locks(monitor):
        yield monitor
    monitor.assert_clean()


@pytest.fixture(scope="session")
def wordnet_tiny():
    from repro.datasets.registry import get_dataset

    return get_dataset("wordnet", "tiny")


@pytest.fixture(scope="session")
def dblp_tiny():
    from repro.datasets.registry import get_dataset

    return get_dataset("dblp", "tiny")


@pytest.fixture(scope="session")
def flickr_tiny():
    from repro.datasets.registry import get_dataset

    return get_dataset("flickr", "tiny")
