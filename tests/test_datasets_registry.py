"""Tests for the dataset registry and caching."""

import pytest

from repro.datasets.registry import (
    DATASET_NAMES,
    SCALES,
    clear_memory_cache,
    dataset_config,
    get_dataset,
)
from repro.errors import DatasetError


def test_known_names_and_scales():
    assert set(DATASET_NAMES) == {"wordnet", "dblp", "flickr"}
    assert set(SCALES) == {"tiny", "small", "paper"}


def test_paper_preset_is_paper_sized():
    config = dataset_config("flickr", "paper")
    assert config.num_vertices == 1_800_000
    assert config.num_labels == 3000
    assert config.latency_scale == 1.0  # nothing shrank, nothing to rescale
    assert config.edge_ratio == pytest.approx(12.8)
    assert "-r12.8" in config.cache_key


def test_unknown_error_lists_presets_dynamically():
    with pytest.raises(DatasetError, match="flickr/paper"):
        dataset_config("dblp", "huge")


def test_config_lookup():
    config = dataset_config("wordnet", "tiny")
    assert config.name == "wordnet"
    assert config.scale == "tiny"
    assert config.num_vertices > 0
    assert "wordnet" in config.cache_key


def test_unknown_rejected():
    with pytest.raises(DatasetError):
        dataset_config("imdb")
    with pytest.raises(DatasetError):
        dataset_config("dblp", "huge")


def test_bundle_contents(wordnet_tiny):
    assert wordnet_tiny.name == "wordnet"
    assert wordnet_tiny.graph.num_vertices > 100
    assert wordnet_tiny.pre.t_avg > 0
    assert wordnet_tiny.latency.t_lat < 2.0  # scaled down


def test_make_context_fresh_counters(wordnet_tiny):
    a = wordnet_tiny.make_context()
    b = wordnet_tiny.make_context()
    a.counters.distance_queries = 5
    assert b.counters.distance_queries == 0
    assert a.oracle is b.oracle  # shared index


def test_label_scheme_per_dataset(wordnet_tiny, dblp_tiny, flickr_tiny):
    assert wordnet_tiny.graph.distinct_labels() <= {"n", "v", "a", "s", "r"}
    assert len(dblp_tiny.graph.distinct_labels()) <= 4
    assert len(flickr_tiny.graph.distinct_labels()) <= 22
    # per-label ordering: wordnet >> dblp > flickr candidate sets
    top = lambda bundle: max(
        len(bundle.graph.vertices_with_label(l))
        for l in bundle.graph.distinct_labels()
    )
    assert top(wordnet_tiny) > top(dblp_tiny) > top(flickr_tiny)


def test_memory_cache_returns_same_object(wordnet_tiny):
    again = get_dataset("wordnet", "tiny")
    assert again is wordnet_tiny


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    first = get_dataset("dblp", "tiny")
    assert first.basis_dir.parent == tmp_path  # basis directory written
    clear_memory_cache()
    second = get_dataset("dblp", "tiny")  # loaded from disk
    assert second.graph == first.graph
    assert second.pre.t_avg > 0
    clear_memory_cache()


def test_no_disk_cache_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "sub"))
    clear_memory_cache()
    bundle = get_dataset("dblp", "tiny", use_disk_cache=False)
    assert bundle.basis_dir is None
    assert not (tmp_path / "sub").exists()
    clear_memory_cache()


def test_corrupt_disk_cache_rebuilds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_memory_cache()
    config = dataset_config("dblp", "tiny")
    basis_dir = tmp_path / f"{config.cache_key}.basis"
    basis_dir.mkdir()
    (basis_dir / "meta.json").write_bytes(b"garbage")
    bundle = get_dataset("dblp", "tiny")
    assert bundle.graph.num_vertices > 0
    clear_memory_cache()
