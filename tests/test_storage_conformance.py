"""Cross-backend conformance: byte identity and answer identity.

The storage contract (docs/STORAGE.md): an :class:`EngineBasis` held
on the heap or in a saved basis directory (mmapped npy files) yields
byte-identical arrays and a context that answers every query
identically.  Hypothesis drives randomized graphs through both at once;
a stored index answers from its arrays and keeps nothing between
queries.
"""

from __future__ import annotations

from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.errors import StaleIndexError, VertexNotFoundError
from repro.graph.builder import GraphBuilder
from repro.indexing.oracle import BFSOracle
from repro.indexing.twohop import hop_pairs
from repro.storage import (
    ARRAY_NAMES,
    BasisDirectory,
    basis_from_context,
    context_from_basis,
    load_basis,
)
from repro.storage.basis import StoredPML
from tests.reference_models import scalar_within_many
from tests.test_property_graph import labeled_graphs


def canonical_run(ctx, labels: list[str]):
    """One scripted Run over ``ctx``; canonical sorted match tuples."""
    a = labels[0]
    b = next((lab for lab in labels if lab != a), a)
    boomer = Boomer(ctx, strategy="DI", max_results=5000)
    for action in (NewVertex(0, a), NewVertex(1, b), NewEdge(0, 1, 1, 2), Run()):
        boomer.apply(action)
    return sorted(
        tuple(sorted(m.assignment.items())) for m in boomer.results(limit=5000)
    )


@contextmanager
def all_backends(basis, directory):
    """``{name: context}`` over one basis: the heap (``resident``) and a
    basis directory (``mmap``), closed on exit."""
    hosted = BasisDirectory(basis, directory)
    try:
        yield {"resident": context_from_basis(basis), "mmap": hosted.context()}
    finally:
        hosted.close()


@given(labeled_graphs())
@settings(max_examples=20, deadline=None)
def test_backends_byte_and_answer_identical(tmp_path_factory, graph):
    """Heap, directory, and another process opening the directory's path
    agree bit for bit on random graphs."""
    ctx = make_context(preprocess(graph, seed=5))
    basis = basis_from_context(ctx)
    labels = graph.labels()
    reference = canonical_run(ctx, labels)

    directory = tmp_path_factory.mktemp("basis") / "b"
    with all_backends(basis, directory) as contexts:
        contexts["attached"] = context_from_basis(load_basis(directory))
        for name, stored_ctx in contexts.items():
            round_tripped = basis_from_context(stored_ctx)
            assert round_tripped.equal_bytes(basis), f"{name}: bytes diverged"
            assert canonical_run(stored_ctx, labels) == reference, (
                f"{name}: matches diverged"
            )


@given(labeled_graphs(), st.data(), st.integers(0, 6), st.booleans())
@settings(max_examples=15, deadline=None)
def test_block_kernel_identical_across_backends(
    tmp_path_factory, graph, data, upper, skip_equal
):
    """``StoredPML`` answers ``within_many`` from the stored label CSR:
    the same pair block as the heap index, from resident and mmap
    arrays alike, without materialising a per-vertex label list."""
    ctx = make_context(preprocess(graph, seed=5))
    basis = basis_from_context(ctx)
    vertices = st.permutations(range(graph.num_vertices))
    sources = data.draw(vertices)[: data.draw(st.integers(0, graph.num_vertices))]
    targets = data.draw(vertices)[: data.draw(st.integers(0, graph.num_vertices))]
    want = scalar_within_many(BFSOracle(graph), sources, targets, upper, skip_equal)
    np.testing.assert_array_equal(
        ctx.oracle.within_many(sources, targets, upper, skip_equal), want
    )
    with all_backends(basis, tmp_path_factory.mktemp("basis") / "b") as contexts:
        for name, stored_ctx in contexts.items():
            oracle = stored_ctx.oracle
            assert isinstance(oracle, StoredPML), name
            got = oracle.within_many(sources, targets, upper, skip_equal)
            assert got.dtype == np.int32, name
            np.testing.assert_array_equal(got, want, err_msg=name)


@given(labeled_graphs(), st.data(), st.sampled_from([1, 2]))
@settings(max_examples=15, deadline=None)
def test_hop_kernel_identical_across_backends(tmp_path_factory, graph, data, hops):
    """``hop_pairs`` reads the graph CSR wherever it lives: the same block
    from heap arrays and a read-only mmap."""
    ctx = make_context(preprocess(graph, seed=5))
    basis = basis_from_context(ctx)
    subsets = st.lists(st.integers(0, graph.num_vertices - 1), unique=True)
    scanned, member = data.draw(subsets), data.draw(subsets)
    want = hop_pairs(graph, scanned, member, hops)
    with all_backends(basis, tmp_path_factory.mktemp("basis") / "b") as contexts:
        for name, stored_ctx in contexts.items():
            stored = stored_ctx.graph
            if name == "mmap":
                assert not any(a.flags.writeable for a in stored.raw_csr())
            got = hop_pairs(stored, scanned, member, hops)
            assert got.dtype == np.int32, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def check_stored_index_against_heap(ctx, directory, upper, few, bad):
    """The heap's and the directory's ``StoredPML`` against the heap index of ``ctx``:
    ``distance`` and ``within`` on all pairs, ``distances_from`` on the
    ``few`` targets and on a list long enough for the dense path, and the
    same first offender raised for the vertex ``bad``."""
    heap, n = ctx.oracle, ctx.graph.num_vertices
    everyone = list(range(n)) * 16  # past the crossover at any label size
    want = [[heap.distance(u, v) for v in range(n)] for u in range(n)]
    with all_backends(basis_from_context(ctx), directory) as contexts:
        for name, stored_ctx in contexts.items():
            stored = stored_ctx.oracle
            assert isinstance(stored, StoredPML), name
            before = stored.query_count
            for u in range(n):
                assert [stored.distance(u, v) for v in range(n)] == want[u], name
                assert [stored.within(u, v, upper) for v in range(n)] == [
                    0 <= d <= upper for d in want[u]
                ], name
                for targets in (few, everyone):
                    got = stored.distances_from(u, targets)
                    assert got.dtype == np.int32, name
                    assert got.tolist() == [want[u][v] for v in targets], name
            asked = n * (2 * n + len(few) + len(everyone))
            assert stored.query_count - before == asked, name
            for call in (
                lambda o: o.distance(bad, n + 7),
                lambda o: o.distance(0, bad),
                lambda o: o.within(bad, 0, upper),
                lambda o: o.distances_from(bad, [n + 7]),
                lambda o: o.distances_from(0, [0, bad, n + 7]),
            ):
                with pytest.raises(VertexNotFoundError) as theirs:
                    call(stored)
                with pytest.raises(VertexNotFoundError) as ours:
                    call(heap)
                assert str(theirs.value) == str(ours.value), name


@given(labeled_graphs(), st.data())
@settings(max_examples=15, deadline=None)
def test_stored_index_answers_like_the_heap_index(tmp_path_factory, graph, data):
    """``StoredPML`` reads label columns where they lie — resident or
    mmap — and every answer is the heap index's, ``u == v`` and unreachable
    pairs included.  (Graphs this small are all dense-path; the small path
    is the next test's.)"""
    n = graph.num_vertices
    check_stored_index_against_heap(
        make_context(preprocess(graph, seed=9)),
        tmp_path_factory.mktemp("basis") / "b",
        upper=data.draw(st.integers(0, 4)),
        few=data.draw(st.lists(st.integers(0, n - 1), max_size=3)),
        bad=data.draw(st.sampled_from([-1, n, n + 3])),
    )


def test_stored_index_small_path_merges_over_slices(tmp_path):
    """Two targets on a 160-vertex forest stay under the dense crossover,
    so ``distances_from`` takes the per-target merge — which on a stored
    index slices the label columns (most pairs here are unreachable)."""
    builder = GraphBuilder("forest")
    builder.add_vertices(["L"] * 160)
    for v in range(160):
        if v % 4:
            builder.add_edge(v - 1, v)
    ctx = make_context(preprocess(builder.build(), seed=9))
    few = [5, 158]
    assert len(few) * 2.0 * max(ctx.oracle._avg_label, 1.0) < 160 / 16.0
    check_stored_index_against_heap(ctx, tmp_path / "b", upper=2, few=few, bad=160)


@pytest.mark.parametrize("backend_name", ["resident", "mmap"])
def test_scalar_queries_leave_a_stored_index_as_it_was(backend_name, tmp_path):
    """A stored index is its arrays: 10k scalar queries change nothing on
    it but ``query_count`` (there is no cache left to grow), and labels the
    graph has moved past are refused from the slicing read path too."""
    from repro.updates.csr import graph_insert_edge
    from tests.conftest import build_fig2_graph

    ctx = make_context(preprocess(build_fig2_graph(), seed=1))
    with all_backends(basis_from_context(ctx), tmp_path / "b") as contexts:
        stored_ctx = contexts[backend_name]
        stored, n = stored_ctx.oracle, ctx.graph.num_vertices
        before = dict(vars(stored))
        rng = np.random.default_rng(4)
        for u, v in rng.integers(0, n, size=(10_000, 2)).tolist():
            assert stored.distance(u, v) == ctx.oracle.distance(u, v)
        after = dict(vars(stored))
        assert after.pop("query_count") == before.pop("query_count") + 10_000
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

        graph = stored_ctx.graph
        u, v = next(
            (u, v) for u in range(n) for v in range(u + 1, n) if not graph.has_edge(u, v)
        )
        graph_insert_edge(graph, u, v)  # the graph moves on; the labels do not
        for call in (
            lambda: stored.distance(u, v),
            lambda: stored.within(u, v, 2),
            lambda: stored.distances_from(u, [v]),
            lambda: stored.within_many([u], [v], 2),
        ):
            with pytest.raises(StaleIndexError):
                call()


def test_epoch_survives_publish_and_attach_on_every_backend(tmp_path):
    """A basis extracted after an update is at epoch 1, and epoch 1 is what
    comes back: from the heap, from the directory, and from the context
    another process opens from the directory's path."""
    from repro.updates import insert_edge
    from tests.conftest import build_fig2_graph

    ctx = make_context(preprocess(build_fig2_graph(), seed=1))
    graph = ctx.graph
    u, v = next(
        (u, v)
        for u in range(graph.num_vertices)
        for v in range(u + 1, graph.num_vertices)
        if not graph.has_edge(u, v)
    )
    insert_edge(ctx, u, v)
    basis = basis_from_context(ctx)
    assert basis.epoch == 1 and basis.scalars()["epoch"] == 1
    with all_backends(basis, tmp_path / "b") as contexts:
        contexts["attached"] = context_from_basis(load_basis(tmp_path / "b"))
        for name, own in contexts.items():
            assert (own.epoch, own.oracle.epoch) == (1, 1), name
            assert own.graph.has_edge(u, v), name
            assert basis_from_context(own).scalars() == basis.scalars(), name


def test_memmap_arrays_are_not_copies(tmp_path):
    """A basis directory's context reads the files, not heap copies."""
    from tests.conftest import build_fig2_graph

    ctx = make_context(preprocess(build_fig2_graph(), seed=1))
    hosted = BasisDirectory(basis_from_context(ctx), tmp_path / "b")
    try:
        for name in ARRAY_NAMES:
            assert isinstance(hosted.basis.arrays[name], np.memmap), name
    finally:
        hosted.close()
