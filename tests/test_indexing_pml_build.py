"""The PML build against its reference: every rank through the list kernel.

``PrunedLandmarkLabeling.build`` runs its top ranks through the level
kernel and hands the rest to the list kernel between two ranks.  Labels,
landmark order and the frozen arrays must equal the reference build's
exactly, wherever the hand-over falls: the insert and delete repairs
patch these labels with the list kernel and rely on them being the ones
it would have written (docs/UPDATES.md).
"""

from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.datasets.registry import _build_graph, dataset_config
from repro.graph.builder import GraphBuilder
from repro.indexing import pml, twohop
from repro.indexing.order import degree_order
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.twohop import two_hop_counts, two_hop_neighbors
from tests.conftest import build_path_graph
from tests.reference_models import barabasi_albert, list_kernel_build, random_order
from tests.test_indexing_twohop import hop_graphs
from tests.test_property_graph import labeled_graphs


def build_and_switch(graph, order=None) -> tuple[PrunedLandmarkLabeling, int]:
    """A build, and how many top ranks the level kernel ran in it."""
    real, top = pml._level_ranks, []

    def spy(*args):
        top.append(real(*args))
        return top[-1]

    with mock.patch.object(pml, "_level_ranks", spy):
        built = PrunedLandmarkLabeling.build(graph, order=order)
    return built, top[0]


def assert_same_as_reference(graph, order=None) -> tuple[PrunedLandmarkLabeling, int]:
    """The build equals the list-kernel build; returns it and its switch rank."""
    got, top = build_and_switch(graph, order)
    want = list_kernel_build(graph, order)
    assert got._label_ranks == want._label_ranks
    assert got._label_dists == want._label_dists
    assert np.array_equal(np.asarray(got._order), np.asarray(want._order))
    for name in ("_label_offsets", "_label_ranks_arr", "_label_dists_arr"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name
    return got, top


def star_and_path(leaves: int, path: int):
    """A star, then a separate path: the hub's rank fits a byte, the first
    path vertex's (rank 1) does not once the path is 256 vertices long."""
    builder = GraphBuilder("star-path")
    builder.add_vertices("S" * (leaves + 1 + path))
    for leaf in range(1, leaves + 1):
        builder.add_edge(0, leaf)
    for v in range(leaves + 1, leaves + path):
        builder.add_edge(v, v + 1)
    return builder.build()


class TestSwitchBetweenRanks:
    def test_path_too_long_for_a_byte_stays_on_the_list_kernel(self):
        """Rank 0 of a 700-path labels distances up to 698: it is left
        whole to the list kernel, not stopped at depth 255."""
        built, top = assert_same_as_reference(build_path_graph(700))
        assert top == 0 and built.total_label_entries() == 244_652

    def test_distance_switch_after_the_first_rank(self):
        graph = star_and_path(20, 300)
        assert assert_same_as_reference(graph)[1] == 1

    def test_threshold_switch(self):
        """The hub labels 21 vertices; the first path vertex labels 16."""
        graph = star_and_path(20, 16)
        with mock.patch.object(pml, "_LEVEL_MIN_LABELLED", 17):
            assert assert_same_as_reference(graph)[1] == 2

    def test_byte_budget_switch(self):
        graph = barabasi_albert(300, 3, seed=2)
        with mock.patch.object(pml, "_TABLE_BYTES", 3 * graph.num_vertices + 5):
            assert assert_same_as_reference(graph)[1] == 3

    def test_custom_orders(self):
        graph = barabasi_albert(400, 3, seed=5)
        for order in (random_order(graph, seed=1), degree_order(graph)[::-1].copy()):
            assert 0 < assert_same_as_reference(graph, order)[1] < graph.num_vertices

    def test_empty_graph(self):
        graph = GraphBuilder().build()
        assert assert_same_as_reference(graph)[1] == 0


@st.composite
def switch_constants(draw, n):
    """Patched kernel constants that put the hand-over anywhere."""
    return {
        "_LEVEL_MIN_LABELLED": draw(st.integers(0, 6)),
        "_TABLE_BYTES": n * draw(st.integers(0, n)) + draw(st.integers(0, n - 1)),
        # A smaller cell sentinel makes short distances "not fit".
        "_NO_ENTRY": draw(st.sampled_from([1, 2, 3, 4, 255])),
        "_PRUNE_BLOCK": draw(st.sampled_from([1, 3, 1 << 13])),
    }


@given(labeled_graphs(max_n=30), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_build_equals_reference_wherever_it_switches(graph, data):
    constants = data.draw(switch_constants(graph.num_vertices))
    order = data.draw(st.sampled_from([None, "random", "reversed"]))
    if order == "random":
        order = random_order(graph, seed=data.draw(st.integers(0, 9)))
    elif order == "reversed":
        order = degree_order(graph)[::-1].copy()
    with mock.patch.multiple(pml, **constants):
        assert_same_as_reference(graph, order)


@pytest.mark.parametrize("dataset, scale", [("dblp", "small"), ("wordnet", "small"), ("flickr", "tiny")])
def test_registry_graphs_build_as_the_reference(dataset, scale):
    """Both kernels run, labels and two-hop counts equal the references."""
    graph = _build_graph(dataset_config(dataset, scale))
    _, top = assert_same_as_reference(graph)
    assert 0 < top < graph.num_vertices
    want = [len(two_hop_neighbors(graph, v)) for v in range(graph.num_vertices)]
    got = two_hop_counts(graph)
    assert got.dtype == np.int64 and got.tolist() == want


@given(hop_graphs(), st.sampled_from([1, 2, 5, 1 << 13]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_two_hop_counts_equal_the_set_unions(graph, block):
    with mock.patch.object(twohop, "_COUNT_BLOCK", block):
        got = two_hop_counts(graph)
    assert got.tolist() == [len(two_hop_neighbors(graph, v)) for v in range(graph.num_vertices)]
