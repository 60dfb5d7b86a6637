"""Batch vs per-pair parity: identical matches, identical query counts.

The batched distance kernels are a pure transport optimization — they must
not change *anything* observable about a Run except wall-clock.  These
tests run every strategy (IC/DR/DI) and the BU baseline twice over the
same preprocessed context, once on the PML oracle's kernels and once
behind the reference arm (:func:`scalar_only`), whose kernels answer every
batch query one scalar ``distance``/``within`` at a time, and demand
byte-identical match lists (same matches, same enumeration order) and
identical logical ``distance_queries`` totals.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.baseline.bu import BoomerUnaware
from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context
from repro.core.query import BPHQuery
from tests.conftest import make_fig2_query
from tests.reference_models import CountingOracle


def scalar_only(ctx):
    """``ctx`` behind the reference arm: its kernels ask the PML oracle one
    ``distance``/``within`` at a time, and count every such call."""
    return replace(ctx, oracle=CountingOracle(ctx.oracle))


def arm_context(pre, batch: bool):
    ctx = make_context(pre)
    return ctx if batch else scalar_only(ctx)


def formulate_fig2(boomer: Boomer) -> Boomer:
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, 1, 1))
    boomer.apply(NewVertex(2, "C"))
    boomer.apply(NewEdge(1, 2, 1, 2))
    boomer.apply(NewEdge(0, 2, 1, 3))
    return boomer


def ordered_matches(matches) -> list[tuple[tuple[int, int], ...]]:
    """Match list with enumeration order preserved (not a set)."""
    return [tuple(sorted(m.items())) for m in matches]


@pytest.mark.parametrize("strategy", ["IC", "DR", "DI"])
def test_strategy_matches_bit_identical(fig2_pre, strategy):
    arms = {}
    for batch in (True, False):
        boomer = Boomer(arm_context(fig2_pre, batch), strategy=strategy)
        formulate_fig2(boomer)
        boomer.apply(Run())
        result = boomer.run_result
        arms[batch] = (
            ordered_matches(result.matches.matches),
            result.counters["distance_queries"],
            result.counters["pairs_added"],
        )
    batch_matches, batch_queries, batch_pairs = arms[True]
    scalar_matches, scalar_queries, scalar_pairs = arms[False]
    assert batch_matches == scalar_matches  # same matches, same order
    assert batch_queries == scalar_queries  # same logical query count
    assert batch_pairs == scalar_pairs


def test_bu_matches_bit_identical(fig2_pre):
    query = make_fig2_query()
    arms = {}
    for batch in (True, False):
        result = BoomerUnaware(arm_context(fig2_pre, batch)).evaluate(query)
        arms[batch] = (ordered_matches(result.matches), result.distance_queries)
    assert arms[True][0] == arms[False][0]
    assert arms[True][1] == arms[False][1]


def make_two_label_pre(n_per_label: int = 12):
    """A graph big enough that a [1,3] edge hits large_upper_search with
    multi-element candidate sets on both sides (fig2 prunes to singletons,
    where batch and scalar invocation counts coincide)."""
    from repro.core.preprocessor import preprocess
    from repro.graph.builder import GraphBuilder

    builder = GraphBuilder("two-label")
    builder.add_vertices(["A"] * n_per_label + ["B"] * n_per_label)
    total = 2 * n_per_label
    for v in range(total):
        builder.add_edge(v, (v + 1) % total)  # ring: everything reachable
    for v in range(0, total, 3):
        builder.add_edge_if_absent(v, (v + 7) % total)  # chords
    return preprocess(builder.build(), t_avg_samples=50)


def formulate_ab(boomer: Boomer) -> Boomer:
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, 1, 3))  # upper >= 3 -> large_upper_search
    return boomer


def test_batch_reduces_interpreter_level_calls():
    """The whole point: at least 3x fewer oracle invocations than the
    per-pair loop the reference arm makes, same answers."""
    pre = make_two_label_pre()
    calls, matches = {}, {}
    for batch in (True, False):
        ctx = arm_context(pre, batch)
        boomer = Boomer(ctx, strategy="IC")
        formulate_ab(boomer)
        boomer.apply(Run())
        counters = boomer.run_result.counters
        calls[batch] = counters["oracle_calls"] if batch else ctx.oracle.query_count
        matches[batch] = ordered_matches(boomer.run_result.matches.matches)
        assert counters["distance_queries"] > counters["oracle_calls"]
    assert matches[True] == matches[False]
    assert 3 * calls[True] <= calls[False]


def test_results_identical_after_lower_bound_filtering(fig2_pre):
    """End-to-end: the displayed ResultSubgraphs agree across arms."""
    outs = {}
    for batch in (True, False):
        boomer = Boomer(arm_context(fig2_pre, batch))
        formulate_fig2(boomer)
        boomer.apply(Run())
        outs[batch] = [
            (tuple(sorted(r.assignment.items())), dict(r.paths))
            for r in boomer.results()
        ]
    assert outs[True] == outs[False]


def test_context_block_identical_with_batch_disabled():
    """Behind the reference arm the context answers the same pair block and
    charges the same counters; the arm asks one ``within`` per evaluated pair."""
    pre = make_two_label_pre()
    sources = list(range(0, 16))
    targets = list(range(8, 24))  # overlaps the sources: a diagonal to skip
    blocks, counters = {}, {}
    for batch in (True, False):
        ctx = arm_context(pre, batch)
        blocks[batch] = ctx.within_many(sources, targets, 3, skip_equal=True)
        counters[batch] = ctx.counters.snapshot()
    assert blocks[True].dtype == blocks[False].dtype == np.int32
    np.testing.assert_array_equal(blocks[True], blocks[False])
    assert counters[True] == counters[False]
    assert counters[True]["distance_queries"] == 16 * 16
    assert counters[True]["oracle_calls"] == 1  # one kernel call
    assert ctx.oracle.query_count == 16 * 16 - 8  # diagonal skipped


@pytest.mark.parametrize("upper", [1, 2])
def test_forced_large_upper_agrees_with_every_strategy(fig2_pre, upper):
    """Fig. 5's 1-Strategy arm: upper-1/2 edges pushed through the block
    kernel give the match set of IC = DR = DI = BU."""
    query = BPHQuery()
    for q, label in enumerate("ABC"):
        query.add_vertex(label, vertex_id=q)
    script = [NewVertex(0, "A"), NewVertex(1, "B"), NewVertex(2, "C")]
    for u, v in ((0, 1), (1, 2), (0, 2)):
        query.add_edge(u, v, 1, upper)
        script.append(NewEdge(u, v, 1, upper))
    outcomes = {
        "BU": sorted(
            ordered_matches(BoomerUnaware(make_context(fig2_pre)).evaluate(query).matches)
        )
    }
    for strategy in ("IC", "DR", "DI"):
        for force in (False, True):
            boomer = Boomer(
                make_context(fig2_pre), strategy=strategy, force_large_upper=force
            )
            for action in (*script, Run()):
                boomer.apply(action)
            outcomes[strategy, force] = sorted(
                ordered_matches(boomer.run_result.matches.matches)
            )
    assert len({tuple(matches) for matches in outcomes.values()}) == 1, outcomes
    assert outcomes["BU"] or upper == 1
