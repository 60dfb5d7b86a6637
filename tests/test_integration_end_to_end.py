"""End-to-end correctness: the full pipeline vs brute force.

For a battery of random labeled graphs and random BPH queries, every
strategy (and BU) must return exactly the brute-force reference answer —
both the upper-bound V_Delta and the fully lower-bound-validated results.
"""

import random

import pytest

from repro.baseline.bu import BoomerUnaware
from repro.core.cost import GUILatencyConstants
from repro.core.preprocessor import make_context, preprocess
from repro.core.query import BPHQuery
from repro.gui.latency import LatencyModel
from repro.gui.simulator import SimulatedUser
from repro.gui.session import VisualSession
from repro.workload.generator import QueryInstance
from repro.workload.templates import get_template
from tests.conftest import brute_force_full_matches, brute_force_upper_matches
from tests.reference_models import erdos_renyi


def random_setup(seed: int):
    """A random labeled graph + a random small BPH query on it."""
    rng = random.Random(seed)
    n = rng.randint(12, 22)
    m = rng.randint(n, 2 * n)
    labels = [rng.choice("XYZ") for _ in range(n)]
    graph = erdos_renyi(n, m, seed=seed, labels=labels)

    query = BPHQuery()
    num_q = rng.randint(2, 4)
    for i in range(num_q):
        query.add_vertex(rng.choice("XYZ"), vertex_id=i)
    # random connected structure: spanning path + extra edges
    edges = []
    for i in range(1, num_q):
        edges.append((rng.randrange(i), i))
    extra = rng.randint(0, num_q * (num_q - 1) // 2 - len(edges))
    candidates = [
        (a, b)
        for a in range(num_q)
        for b in range(a + 1, num_q)
        if (a, b) not in edges and (b, a) not in edges
    ]
    rng.shuffle(candidates)
    edges.extend(candidates[:extra])
    for u, v in edges:
        lower = rng.choice([1, 1, 1, 2])
        upper = lower + rng.randint(0, 2)
        query.add_edge(u, v, lower, upper)
    return graph, query


def keys(matches):
    return {tuple(sorted(m.items())) for m in matches}


def formulate_query(boomer_or_session, graph, query, strategy):
    """Drive the query through the visual pipeline action by action."""
    from repro.core.actions import NewEdge, NewVertex, Run
    from repro.core.blender import Boomer

    ctx = boomer_or_session
    boomer = Boomer(ctx, strategy=strategy)
    for qid in query.vertex_ids():
        boomer.apply(NewVertex(qid, query.label(qid)))
    for edge in query.edges():
        boomer.apply(NewEdge(edge.u, edge.v, edge.lower, edge.upper))
    boomer.apply(Run())
    return boomer


@pytest.mark.parametrize("seed", range(12))
def test_all_strategies_match_brute_force(seed):
    graph, query = random_setup(seed)
    pre = preprocess(graph, t_avg_samples=100)
    latency = GUILatencyConstants().scaled(0.0001)

    want_upper = brute_force_upper_matches(graph, query)
    want_full = brute_force_full_matches(graph, query)

    for strategy in ("IC", "DR", "DI"):
        ctx = make_context(pre, latency=latency)
        boomer = formulate_query(ctx, graph, query, strategy)
        got_upper = keys(boomer.run_result.matches.matches)
        assert got_upper == want_upper, (seed, strategy)

        got_full = {
            tuple(sorted(sub.assignment.items())) for sub in boomer.results()
        }
        assert got_full == want_full, (seed, strategy)

    bu = BoomerUnaware(make_context(pre, latency=latency))
    bu_result = bu.evaluate(query)
    assert keys(bu_result.matches) == want_upper, seed
    bu_full = {
        tuple(sorted(sub.assignment.items()))
        for sub in bu.results(bu_result, query)
    }
    assert bu_full == want_full, seed


@pytest.mark.parametrize("seed", range(6))
def test_pruning_disabled_same_answers(seed):
    graph, query = random_setup(seed + 100)
    pre = preprocess(graph, t_avg_samples=100)
    latency = GUILatencyConstants().scaled(0.0001)
    want = brute_force_upper_matches(graph, query)
    from repro.core.blender import Boomer
    from repro.core.actions import NewEdge, NewVertex, Run

    for pruning in (True, False):
        boomer = Boomer(make_context(pre, latency=latency), strategy="IC", pruning=pruning)
        for qid in query.vertex_ids():
            boomer.apply(NewVertex(qid, query.label(qid)))
        for edge in query.edges():
            boomer.apply(NewEdge(edge.u, edge.v, edge.lower, edge.upper))
        boomer.apply(Run())
        assert keys(boomer.run_result.matches.matches) == want, (seed, pruning)


@pytest.mark.parametrize("seed", range(4))
def test_forced_large_upper_same_answers(seed):
    graph, query = random_setup(seed + 200)
    pre = preprocess(graph, t_avg_samples=100)
    latency = GUILatencyConstants().scaled(0.0001)
    want = brute_force_upper_matches(graph, query)
    from repro.core.blender import Boomer
    from repro.core.actions import NewEdge, NewVertex, Run

    boomer = Boomer(
        make_context(pre, latency=latency), strategy="IC", force_large_upper=True
    )
    for qid in query.vertex_ids():
        boomer.apply(NewVertex(qid, query.label(qid)))
    for edge in query.edges():
        boomer.apply(NewEdge(edge.u, edge.v, edge.lower, edge.upper))
    boomer.apply(Run())
    assert keys(boomer.run_result.matches.matches) == want, seed


def test_subgraph_iso_special_case():
    """All bounds [1,1]: BPH matching reduces to subgraph isomorphism."""
    graph, _ = random_setup(1)
    pre = preprocess(graph, t_avg_samples=100)
    query = BPHQuery()
    query.add_vertex("X", vertex_id=0)
    query.add_vertex("Y", vertex_id=1)
    query.add_vertex("Z", vertex_id=2)
    query.add_edge(0, 1, 1, 1)
    query.add_edge(1, 2, 1, 1)
    assert query.is_subgraph_iso_query

    from repro.core.blender import Boomer
    from repro.core.actions import NewEdge, NewVertex, Run

    boomer = Boomer(make_context(pre), strategy="IC")
    for qid in query.vertex_ids():
        boomer.apply(NewVertex(qid, query.label(qid)))
    for edge in query.edges():
        boomer.apply(NewEdge(edge.u, edge.v, 1, 1))
    boomer.apply(Run())
    for match in boomer.run_result.matches:
        # every query edge maps to a real graph edge
        assert graph.has_edge(match[0], match[1])
        assert graph.has_edge(match[1], match[2])
        assert len(set(match.values())) == 3


def test_session_pipeline_on_template(dblp_tiny):
    """The GUI-simulated path agrees with direct BU evaluation."""
    from repro.workload.generator import instantiate

    instance = instantiate("Q3", dblp_tiny.graph, seed=3, dataset="dblp")
    session = VisualSession(dblp_tiny.make_context(), dblp_tiny.latency)
    result = session.run(instance, strategy="DI")
    bu = BoomerUnaware(dblp_tiny.make_context())
    bu_result = bu.evaluate(instance.build_query())
    assert keys(result.run.matches.matches) == keys(bu_result.matches)


def test_simulated_user_equivalent_to_direct_actions(dblp_tiny):
    """SimulatedUser streams produce the same matches as build_query + BU."""
    from repro.workload.generator import instantiate

    instance = instantiate("Q6", dblp_tiny.graph, seed=9, dataset="dblp")
    user = SimulatedUser(LatencyModel(dblp_tiny.latency, jitter=0.0))
    actions = user.formulate(instance)
    from repro.core.blender import Boomer

    boomer = Boomer(dblp_tiny.make_context(), strategy="DR")
    result = boomer.execute_stream(actions)
    bu = BoomerUnaware(dblp_tiny.make_context())
    assert keys(result.matches.matches) == keys(bu.evaluate(instance.build_query()).matches)
