"""Tests for exploratory-search helpers over a live CAP index."""

import pytest

from repro.core.actions import NewEdge, NewVertex
from repro.core.blender import Boomer
from repro.core.explore import (
    estimate_selectivity,
    suggest_extension_labels,
)
from repro.errors import CAPStateError


@pytest.fixture()
def partial(fig2_ctx):
    """A partially formulated query: A and B drawn, (A,B)[1,1] processed."""
    boomer = Boomer(fig2_ctx, strategy="IC")
    boomer.apply(NewVertex(0, "A"))
    boomer.apply(NewVertex(1, "B"))
    boomer.apply(NewEdge(0, 1, 1, 1))
    return boomer


class TestSuggestions:
    def test_requires_level(self, partial):
        with pytest.raises(CAPStateError):
            suggest_extension_labels(partial.engine, 99)

    def test_supported_labels_only(self, partial):
        suggestions = dict(suggest_extension_labels(partial.engine, 1, top_k=10))
        # B candidates (v5, v6, v8 at least) have A, X, C, B neighbors
        assert all(count > 0 for count in suggestions.values())
        assert "X" in suggestions or "C" in suggestions

    def test_support_counts_bounded_by_level_size(self, partial):
        level_size = partial.cap.candidate_count(1)
        for _, count in suggest_extension_labels(partial.engine, 1, top_k=10):
            assert count <= level_size

    def test_top_k(self, partial):
        assert len(suggest_extension_labels(partial.engine, 1, top_k=1)) == 1

    def test_ranked_descending(self, partial):
        counts = [c for _, c in suggest_extension_labels(partial.engine, 1, top_k=10)]
        assert counts == sorted(counts, reverse=True)

    def test_suggestion_keeps_levels_alive(self, partial):
        """Attaching a suggested label with bounds [1,1] cannot empty the
        touched CAP levels (complete-match survival additionally depends on
        the rest of the query, e.g. 1-1 injectivity)."""
        label, support = suggest_extension_labels(partial.engine, 1, top_k=1)[0]
        assert support > 0
        partial.apply(NewVertex(2, label))
        partial.apply(NewEdge(1, 2, 1, 1))
        assert partial.cap.candidate_count(2) > 0
        assert partial.cap.candidate_count(1) > 0

    def test_unsupported_label_prunes_new_level_empty(self, partial, fig2_graph):
        """Counterpoint: a label with zero support empties the new level."""
        suggestions = dict(suggest_extension_labels(partial.engine, 1, top_k=10))
        unsupported = [
            label
            for label in fig2_graph.distinct_labels()
            if label not in suggestions
        ]
        if not unsupported:
            pytest.skip("every label is supported on this fixture")
        partial.apply(NewVertex(2, unsupported[0]))
        partial.apply(NewEdge(1, 2, 1, 1))
        assert partial.cap.candidate_count(2) == 0


class TestSelectivity:
    def test_fractions_in_unit_interval(self, partial):
        sel = estimate_selectivity(partial.engine)
        assert set(sel) == {0, 1}
        for value in sel.values():
            assert 0.0 <= value <= 1.0

    def test_pruned_level_below_one(self, partial):
        sel = estimate_selectivity(partial.engine)
        assert sel[0] < 1.0  # v1 pruned out of 4 A's

    def test_untouched_level_is_one(self, fig2_ctx):
        boomer = Boomer(fig2_ctx, strategy="IC")
        boomer.apply(NewVertex(0, "C"))
        assert estimate_selectivity(boomer.engine)[0] == 1.0
