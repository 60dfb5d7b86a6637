"""Unit tests for the EngineBasis storage API (basis, mmap store, backends)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.datasets.registry import clear_memory_cache, dataset_config, get_dataset
from repro.errors import BasisFormatError, DatasetError, StorageError
from repro.storage import (
    ARRAY_NAMES,
    EngineBasis,
    MmapBackend,
    ResidentBackend,
    StoredPML,
    attach,
    basis_from_context,
    context_from_basis,
    load_basis,
    open_backend,
    read_meta,
    save_basis,
)
from tests.conftest import build_fig2_graph


@pytest.fixture(scope="module")
def fig2_ctx():
    return make_context(preprocess(build_fig2_graph(), seed=3))


@pytest.fixture(scope="module")
def fig2_basis(fig2_ctx):
    return basis_from_context(fig2_ctx)


def run_script(ctx):
    boomer = Boomer(ctx, strategy="DI", max_results=1000)
    for action in (
        NewVertex(0, "A"),
        NewVertex(1, "B"),
        NewEdge(0, 1, 1, 2),
        Run(),
    ):
        boomer.apply(action)
    return sorted(
        tuple(sorted(m.assignment.items())) for m in boomer.results(limit=1000)
    )


# ----------------------------------------------------------------------
# EngineBasis + context round trip
# ----------------------------------------------------------------------
class TestBasisRoundTrip:
    def test_has_every_array(self, fig2_basis):
        assert set(fig2_basis.arrays) == set(ARRAY_NAMES)
        assert fig2_basis.nbytes() > 0

    def test_missing_array_rejected(self, fig2_basis):
        arrays = dict(fig2_basis.arrays)
        del arrays["two_hop"]
        with pytest.raises(StorageError, match="two_hop"):
            fig2_basis.with_arrays(arrays)

    def test_context_round_trip_queries_identical(self, fig2_ctx, fig2_basis):
        rebuilt = context_from_basis(fig2_basis)
        assert isinstance(rebuilt.oracle, StoredPML)
        n = fig2_ctx.graph.num_vertices
        for u in range(n):
            for v in range(n):
                assert rebuilt.oracle.distance(u, v) == fig2_ctx.oracle.distance(
                    u, v
                )
        assert run_script(rebuilt) == run_script(fig2_ctx)

    def test_stored_pml_label_introspection(self, fig2_ctx, fig2_basis):
        rebuilt = context_from_basis(fig2_basis)
        total = rebuilt.oracle.total_label_entries()
        assert total == fig2_ctx.oracle.total_label_entries()
        assert (
            sum(
                rebuilt.oracle.label_size(v)
                for v in range(fig2_ctx.graph.num_vertices)
            )
            == total
        )

    def test_equal_bytes(self, fig2_basis):
        assert fig2_basis.equal_bytes(fig2_basis)
        mutated = dict(fig2_basis.arrays)
        mutated["two_hop"] = np.asarray(mutated["two_hop"]).copy() + 1
        assert not fig2_basis.equal_bytes(fig2_basis.with_arrays(mutated))

    def test_requires_pml_oracle(self, fig2_ctx):
        from repro.indexing.oracle import BFSOracle

        graph = build_fig2_graph()
        ctx = make_context(
            preprocess(graph, seed=3), oracle=BFSOracle(graph)
        )
        with pytest.raises(StorageError, match="PML"):
            basis_from_context(ctx)


# ----------------------------------------------------------------------
# mmap store
# ----------------------------------------------------------------------
class TestMmapStore:
    def test_save_load_round_trip(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        loaded = load_basis(directory)
        assert loaded.equal_bytes(fig2_basis)
        assert loaded.graph_name == fig2_basis.graph_name
        assert loaded.labels == fig2_basis.labels
        assert loaded.cost_model == fig2_basis.cost_model
        # arrays really are memmaps, read-only
        arr = loaded.arrays["pml_ranks"]
        assert isinstance(arr, np.memmap)
        with pytest.raises((ValueError, OSError)):
            arr[0] = 1

    def test_meta_is_commit_mark(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        (directory / "meta.json").unlink()
        with pytest.raises(BasisFormatError, match="meta.json"):
            load_basis(directory)

    def test_interrupted_resave_leaves_no_valid_manifest(
        self, fig2_basis, tmp_path, monkeypatch
    ):
        """Saving over a directory that already validates withdraws its
        commit mark first: a save that dies on the third array leaves a
        directory ``read_meta`` refuses, not the other basis' arrays
        under the old manifest."""
        from repro.graph.builder import GraphBuilder

        directory = save_basis(fig2_basis, tmp_path / "b")
        builder = GraphBuilder("other")
        builder.add_vertices("xyz")
        builder.add_edge(0, 1)
        other = basis_from_context(make_context(preprocess(builder.build(), seed=3)))

        real_save, calls = np.save, []

        def dies_on_the_third(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_save(*args, **kwargs)

        # The directory holds another graph's basis, so open_backend saves over it.
        monkeypatch.setattr(np, "save", dies_on_the_third)
        with pytest.raises(OSError, match="disk full"):
            open_backend("mmap", basis=other, directory=directory)
        monkeypatch.undo()
        with pytest.raises(BasisFormatError, match="meta.json"):
            read_meta(directory)
        # ... and a completed save over the wreck round-trips.
        backend = open_backend("mmap", basis=other, directory=directory)
        assert backend.basis.equal_bytes(other)
        assert backend.basis.graph_name == "other"
        assert list(directory.glob("*.tmp.*")) == []

    def test_version_mismatch_rejected(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        meta = json.loads((directory / "meta.json").read_text())
        meta["format_version"] = 999
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(BasisFormatError, match="version"):
            read_meta(directory)

    def test_unfinalized_rejected(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        meta = json.loads((directory / "meta.json").read_text())
        meta["finalized"] = False
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(BasisFormatError, match="finalized"):
            load_basis(directory)

    def test_directory_of_an_older_writer_opens(self, fig2_ctx, fig2_basis, tmp_path):
        """``meta.json`` once recorded a ``batch_enabled`` flag and, before
        that, no ``epoch``: same format version, so such a directory opens
        and serves the same matches."""
        directory = save_basis(fig2_basis, tmp_path / "b")
        meta = json.loads((directory / "meta.json").read_text())
        assert "batch_enabled" not in meta
        meta["batch_enabled"] = True
        del meta["epoch"]
        (directory / "meta.json").write_text(json.dumps(meta))
        loaded = load_basis(directory)
        assert loaded.scalars() == fig2_basis.scalars()
        assert loaded.equal_bytes(fig2_basis)
        assert run_script(context_from_basis(loaded)) == run_script(fig2_ctx)

    def test_manifest_without_a_required_scalar_rejected(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        meta = json.loads((directory / "meta.json").read_text())
        del meta["graph_name"]
        (directory / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(BasisFormatError, match="graph_name"):
            load_basis(directory)

    def test_shape_drift_rejected(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        np.save(
            directory / "two_hop.npy",
            np.zeros(3, dtype=np.int64),
            allow_pickle=False,
        )
        with pytest.raises(BasisFormatError, match="two_hop"):
            load_basis(directory)


# ----------------------------------------------------------------------
# Backends + attach dispatch
# ----------------------------------------------------------------------
class TestBackends:
    def test_resident_backend(self, fig2_ctx, fig2_basis):
        backend = ResidentBackend(fig2_basis)
        assert run_script(backend.context()) == run_script(fig2_ctx)
        with pytest.raises(StorageError, match="cross-process"):
            backend.spec()
        backend.close()

    def test_mmap_backend_owns_temp_dir(self, fig2_ctx, fig2_basis):
        backend = MmapBackend.create(fig2_basis)
        directory = backend.directory
        assert directory.exists()
        assert run_script(backend.context()) == run_script(fig2_ctx)
        backend.close()
        assert not directory.exists()

    def test_mmap_attach_via_spec(self, fig2_ctx, fig2_basis, tmp_path):
        backend = MmapBackend.create(fig2_basis, tmp_path / "b")
        assert run_script(attach(backend.spec())) == run_script(fig2_ctx)
        backend.close()
        assert (tmp_path / "b").exists()  # named dirs are never deleted

    def test_open_backend_reuses_valid_directory(self, fig2_basis, tmp_path):
        directory = save_basis(fig2_basis, tmp_path / "b")
        before = (directory / "meta.json").stat().st_mtime_ns
        backend = open_backend("mmap", basis=fig2_basis, directory=directory)
        assert (directory / "meta.json").stat().st_mtime_ns == before
        backend.close()

    def test_open_backend_rejects_unknown(self, fig2_basis):
        with pytest.raises(StorageError, match="unknown storage backend"):
            open_backend("punchcards", basis=fig2_basis)
        with pytest.raises(StorageError):
            open_backend("resident")  # no basis

    def test_attach_rejects_unknown_spec(self):
        with pytest.raises(StorageError, match="unknown storage spec"):
            attach(object())


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------
class TestRegistryIntegration:
    def test_make_context_basis_kwarg(self, wordnet_tiny):
        basis = basis_from_context(wordnet_tiny.make_context())
        ctx = wordnet_tiny.make_context(basis=basis)
        assert isinstance(ctx.oracle, StoredPML)
        assert ctx.graph.name == wordnet_tiny.graph.name

    def test_make_context_rejects_oracle_and_basis(self, wordnet_tiny):
        basis = basis_from_context(wordnet_tiny.make_context())
        with pytest.raises(DatasetError, match="not both"):
            wordnet_tiny.make_context(oracle=object(), basis=basis)

    @pytest.fixture()
    def cached(self, tmp_path, monkeypatch):
        """wordnet/tiny built once into an empty cache dir: (bundle, dir)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_memory_cache()
        built = get_dataset("wordnet", "tiny")
        config = dataset_config("wordnet", "tiny")
        assert built.basis_dir == tmp_path / f"{config.cache_key}.basis"
        clear_memory_cache()
        yield built, built.basis_dir
        clear_memory_cache()

    def test_cache_is_one_basis_directory(self, cached, tmp_path):
        """The cache entry is a committed basis and nothing else, and a
        hit reads it without writing it."""
        built, basis_dir = cached
        assert [p.name for p in tmp_path.iterdir()] == [basis_dir.name]
        meta_file = basis_dir / "meta.json"
        stamp = meta_file.stat().st_mtime_ns
        assert load_basis(basis_dir).graph_name == built.graph.name
        hit = get_dataset("wordnet", "tiny")
        assert hit.pre is not built.pre and hit.basis_dir == basis_dir
        assert meta_file.stat().st_mtime_ns == stamp

    def test_cache_hit_is_the_heap_form_a_fresh_build_gives(self, cached):
        built, basis_dir = cached
        hit = get_dataset("wordnet", "tiny")
        ctx, fresh = hit.make_context(), built.make_context()
        # Copied off the memmap, byte-equal to the fresh build's arrays ...
        basis = basis_from_context(ctx)
        assert basis.equal_bytes(basis_from_context(fresh))
        for name in ARRAY_NAMES:
            arr = basis.arrays[name]
            assert arr.flags.writeable, name  # a memmap page is read-only
            assert not isinstance(arr, np.memmap), name
            assert not isinstance(arr.base, np.memmap), name
        # ... the label lists split back out of the label CSR ...
        assert not isinstance(ctx.oracle, StoredPML)
        assert ctx.oracle._label_ranks == fresh.oracle._label_ranks
        assert ctx.oracle._label_dists == fresh.oracle._label_dists
        # ... nothing built or measured: the scalars are the stored ones.
        stored = read_meta(basis_dir)["cost_model"]
        assert (hit.pre.pml_build_seconds, hit.pre.two_hop_seconds) == (0.0, 0.0)
        assert hit.pre.t_avg == built.pre.t_avg == stored["t_avg"]
        assert ctx.cost_model.t_lat == fresh.cost_model.t_lat == stored["t_lat"]

    def test_cache_hit_is_patchable(self, cached):
        """An insert on a cache hit takes the incremental path and leaves
        the index answering like a fresh build (``repro update-check``)."""
        from repro.indexing.pml import PrunedLandmarkLabeling
        from repro.indexing.twohop import two_hop_counts
        from repro.updates import insert_edge

        ctx = get_dataset("wordnet", "tiny").make_context()
        graph, n = ctx.graph, ctx.graph.num_vertices
        u, v = next(
            (u, v) for u in range(n) for v in range(n - 1, u, -1)
            if not graph.has_edge(u, v)
        )
        report = insert_edge(ctx, u, v)
        assert report.strategy == "pml-incremental" and graph.epoch == 1
        fresh = PrunedLandmarkLabeling.build(graph)
        targets = np.arange(n)
        for source in range(n):
            assert np.array_equal(
                ctx.oracle.distances_from(source, targets),
                fresh.distances_from(source, targets),
            ), source
        assert np.array_equal(ctx.two_hop, two_hop_counts(graph))

    @pytest.mark.parametrize("damage", ["no manifest", "truncated array", "foreign basis"])
    def test_damaged_cache_is_rebuilt_never_served(self, cached, damage, fig2_basis):
        """A save that died before its commit mark, a torn array file and
        another graph's basis under our name all rebuild silently."""
        built, basis_dir = cached
        if damage == "no manifest":
            (basis_dir / "meta.json").unlink()
        elif damage == "truncated array":
            npy = basis_dir / "pml_ranks.npy"
            npy.write_bytes(npy.read_bytes()[: npy.stat().st_size // 2])
        else:
            save_basis(fig2_basis, basis_dir)
        rebuilt = get_dataset("wordnet", "tiny")
        assert rebuilt.pre.pml_build_seconds > 0.0  # built, not loaded
        assert rebuilt.graph.name == built.graph.name
        assert basis_from_context(rebuilt.make_context()).equal_bytes(
            basis_from_context(built.make_context())
        )
        # ... and the directory is a committed basis of this graph again.
        assert load_basis(basis_dir).graph_name == built.graph.name

    def test_leftover_pickle_is_never_opened(self, cached, tmp_path):
        """The parent's cache file beside the directory is dead weight:
        unpickling this one would fail the test."""
        import pickle

        built, basis_dir = cached

        class Bomb:
            def __reduce__(self):
                return (pytest.fail, ("the registry unpickled a cache file",))

        leftover = tmp_path / f"{basis_dir.stem}-v3.pkl"
        leftover.write_bytes(pickle.dumps(Bomb()))
        assert get_dataset("wordnet", "tiny").graph == built.graph  # a hit
        (basis_dir / "meta.json").unlink()
        clear_memory_cache()
        assert get_dataset("wordnet", "tiny").graph == built.graph  # a rebuild
        assert leftover.exists()
