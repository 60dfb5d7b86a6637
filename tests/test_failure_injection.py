"""Crash consistency on the failures production raises.

The PML oracle refuses to answer for a graph whose epoch moved past the
one it was built at (:class:`~repro.errors.StaleIndexError`).  Bumping
the epoch without maintenance (``graph_insert_edge``, as
``TestStaleReaders`` does) therefore makes the next oracle kernel call
inside ``process_edge`` raise.  The contract under test: a failed edge is
never half-processed — under IC it is neither processed nor holds an AIVS
block and the typed error reaches the caller; under DR a drained edge
goes back to the pool — and an engine bug (a non-``ReproError``) reaches a
wire client as the typed ``internal_error``, never as another answer.
"""

from dataclasses import replace

import pytest

from repro.core import blender
from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.cost import GUILatencyConstants
from repro.core.preprocessor import make_context, preprocess
from repro.errors import CAPStateError, StaleIndexError
from repro.service import QueryServer, ServeConfig, ServiceClient, open_host
from repro.service.client import RemoteServiceError
from repro.updates.csr import graph_insert_edge
from tests.conftest import build_fig2_graph


@pytest.fixture(scope="module")
def pre():
    return preprocess(build_fig2_graph(), t_avg_samples=100)


def stale_ctx(t_avg=None):
    """A context over a fresh fig2 graph whose epoch then moved past its
    PML index without maintenance: every oracle call raises.  A large
    ``t_avg`` against the scaled ``t_lat`` classifies the upper-3 edges
    expensive, so DR pools them (as the ``pooled_ctx`` fixture does)."""
    ctx = make_context(
        preprocess(build_fig2_graph(), t_avg_samples=100),
        latency=GUILatencyConstants().scaled(0.001),
    )
    if t_avg is not None:
        ctx = replace(ctx, cost_model=replace(ctx.cost_model, t_avg=t_avg))
    graph_insert_edge(ctx.graph, 0, 11)  # bypasses maintenance on purpose
    return ctx


def triangle_actions():
    """Fig. 2 triangle; the upper-3 edge routes PVS through the oracle."""
    return [
        NewVertex(0, "A", latency_after=0.002),
        NewVertex(1, "B", latency_after=0.002),
        NewEdge(0, 1, 1, 1, latency_after=0.002),
        NewVertex(2, "C", latency_after=0.002),
        NewEdge(1, 2, 1, 2, latency_after=0.002),
        NewEdge(0, 2, 1, 3, latency_after=0.002),
        Run(),
    ]


def match_set(matches):
    return sorted(tuple(sorted(m.items())) for m in matches)


@pytest.fixture(scope="module")
def clean_matches(pre):
    boomer = Boomer(make_context(pre), strategy="IC")
    for action in triangle_actions():
        boomer.apply(action)
    return match_set(boomer.run_result.matches)


# ---------------------------------------------------------------------------
# A stale index inside process_edge: the typed error surfaces, state holds
# ---------------------------------------------------------------------------
class TestUnprotected:
    def test_oracle_failure_propagates_from_large_upper_search(self):
        boomer = Boomer(stale_ctx(), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(StaleIndexError, match="epoch"):
            boomer.apply(NewEdge(0, 1, 1, 3))  # all-pairs PML path

    def test_failure_leaves_no_processed_mark(self):
        boomer = Boomer(stale_ctx(), strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "B"))
        with pytest.raises(StaleIndexError):
            boomer.apply(NewEdge(0, 1, 1, 3))
        # The failed edge must not be marked processed nor keep a block:
        # enumeration would otherwise silently use a half-populated AIVS.
        assert not boomer.cap.is_processed(0, 1)
        with pytest.raises(CAPStateError):
            boomer.cap.pairs(0, 1)
        boomer.cap.check_consistency(boomer.query)
        with pytest.raises(CAPStateError, match="unprocessed"):
            boomer.apply(Run())  # the enumeration guard refuses

    def test_drained_edge_goes_back_to_the_pool(self):
        boomer = Boomer(stale_ctx(t_avg=0.002), strategy="DR")
        actions = triangle_actions()
        for action in actions[:-1]:
            boomer.apply(action)
        assert boomer.engine.pool.contains(0, 2)  # DR deferred the upper-3 edge
        with pytest.raises(StaleIndexError):
            boomer.apply(actions[-1])
        assert boomer.engine.pool.contains(0, 2)
        assert not boomer.cap.is_processed(0, 2)
        boomer.cap.check_consistency(boomer.query)
        with pytest.raises(CAPStateError, match="terminal failed-Run state"):
            boomer.apply(NewVertex(9, "A"))

    def test_recovery_with_fresh_engine_same_context_graph(self, pre, clean_matches):
        """A failure poisons only that session; a fresh engine with a
        healthy oracle over the same preprocessing succeeds."""
        boomer = Boomer(make_context(pre), strategy="IC")
        for action in triangle_actions():
            boomer.apply(action)
        assert match_set(boomer.run_result.matches) == clean_matches

    def test_failure_during_lower_bound_check(self):
        ctx = make_context(preprocess(build_fig2_graph(), t_avg_samples=100))
        boomer = Boomer(ctx, strategy="IC")
        boomer.apply(NewVertex(0, "A"))
        boomer.apply(NewVertex(1, "C"))
        boomer.apply(NewEdge(0, 1, 1, 3))
        boomer.apply(Run())
        graph_insert_edge(ctx.graph, 0, 11)  # the index goes stale after Run
        match = boomer.run_result.matches.matches[0]
        with pytest.raises(StaleIndexError):
            boomer.visualize(match)


# ---------------------------------------------------------------------------
# An engine bug is an internal_error on the wire, not another answer
# ---------------------------------------------------------------------------
def test_an_engine_bug_reaches_the_client_as_internal_error(fig2_ctx, monkeypatch):
    """A kernel bug inside PVS used to be routed to the BU ladder and
    answered correctly but slowly, hidden from the differential tests."""

    def broken_kernel(*args, **kwargs):
        raise IndexError("kernel read past its block")

    monkeypatch.setattr(blender, "populate_vertex_set", broken_kernel)
    backend = open_host(fig2_ctx, ServeConfig(deadline_seconds=30.0))
    server = QueryServer(backend, host="127.0.0.1", port=0).start()
    try:
        with ServiceClient(*server.address) as client:
            sid = client.create_session()
            with pytest.raises(RemoteServiceError) as excinfo:
                for action in triangle_actions()[:-1]:
                    client.action(sid, action)
                client.run(sid)
    finally:
        server.stop()
    error = excinfo.value
    assert error.code == "internal_error"
    assert error.remote_type == "IndexError"
    assert not error.retryable
