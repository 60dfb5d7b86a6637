"""A truncated Run returns one answer per query, however it was drawn.

The enumeration order is priced from the final CAP, with ties broken by
query vertex id, and the final CAP is the same fixpoint whatever the
strategy or the order the edges were drawn in.  So the DFS prefix a
truncated Run returns, and the DFS work it takes, are the same too.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.actions import DeleteEdge, ModifyBounds, NewEdge, Run
from repro.core.blender import Boomer
from repro.gui.latency import LatencyModel
from repro.gui.simulator import SimulatedUser
from repro.obs import export
from repro.obs.trace import Tracer
from repro.service.protocol import canonical_matches
from repro.workload.generator import instantiate

#: wordnet/tiny Q2 (a 4-cycle) at label seed 0 has 336 matches and levels
#: that tie in |V_q|: a tie broken by drawing position truncates to
#: different rows in different edge orders.
TEMPLATE, LABEL_SEED, MAX_RESULTS = "Q2", 0, 20


def play(bundle, strategy, edge_order=None, detour=None, tracer=None):
    """A fresh session of the instance; ``detour`` edits e1 before Run."""
    instance = instantiate(TEMPLATE, bundle.graph, seed=LABEL_SEED, dataset=bundle.name)
    user = SimulatedUser(LatencyModel(bundle.latency, jitter=0.0, seed=0))
    boomer = Boomer(
        bundle.make_context(), strategy=strategy, max_results=MAX_RESULTS, tracer=tracer
    )
    for action in user.formulate(instance, edge_order=edge_order)[:-1]:
        boomer.apply(action)
    (u, v), bounds = instance.template.edges[0], instance.bounds[0]
    if detour == "loosen-then-tighten":
        boomer.apply(ModifyBounds(u, v, bounds.lower, bounds.upper + 1))
        boomer.apply(ModifyBounds(u, v, bounds.lower, bounds.upper))
    elif detour == "delete-then-redraw":
        boomer.apply(DeleteEdge(u, v))
        boomer.apply(NewEdge(u, v, bounds.lower, bounds.upper))
    boomer.apply(Run())
    return boomer.run_result


@pytest.fixture(scope="module")
def reference(wordnet_tiny):
    result = play(wordnet_tiny, "IC")
    assert result.matches.truncated
    return canonical_matches(result.matches)


@given(
    edge_order=st.permutations([1, 2, 3, 4]),
    strategy=st.sampled_from(["IC", "DR", "DI"]),
    detour=st.sampled_from([None, "loosen-then-tighten", "delete-then-redraw"]),
)
@settings(max_examples=40, deadline=None)
def test_a_truncated_run_has_one_answer(wordnet_tiny, reference, edge_order, strategy, detour):
    result = play(wordnet_tiny, strategy, edge_order, detour)
    assert result.matches.truncated
    assert canonical_matches(result.matches) == reference


@pytest.mark.parametrize("edge_order", [None, (4, 2, 3, 1)])
def test_dfs_work_is_counted_the_same_under_every_strategy(wordnet_tiny, edge_order):
    work = set()
    for strategy in ("IC", "DR", "DI", "IC"):
        tracer = Tracer()
        counters = play(wordnet_tiny, strategy, edge_order, tracer=tracer).counters
        (span,) = [r for r in tracer.export() if r["name"] == export.RUN_ENUMERATE]
        assert (span["attrs"]["rows_expanded"], span["attrs"]["dfs_steps"]) == (
            counters["rows_expanded"],
            counters["dfs_steps"],
        )
        work.add((counters["rows_expanded"], counters["dfs_steps"]))
    (only,) = work
    assert min(only) > 0
