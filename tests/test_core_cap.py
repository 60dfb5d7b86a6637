"""Tests for the CAP index data structure."""

import numpy as np
import pytest

from repro.core.cap import CAPIndex
from repro.core.query import BPHQuery
from repro.errors import CAPStateError


def make_query():
    q = BPHQuery()
    q.add_vertex("A", vertex_id=0)
    q.add_vertex("B", vertex_id=1)
    q.add_vertex("C", vertex_id=2)
    q.add_edge(0, 1)
    q.add_edge(1, 2)
    return q


def populate_simple(cap: CAPIndex):
    """Two levels, one edge, pairs (10,20) and (11,21)."""
    cap.add_level(0, [10, 11, 12])
    cap.add_level(1, [20, 21])
    cap.begin_edge(0, 1)
    cap.add_pair(0, 1, 10, 20)
    cap.add_pair(0, 1, 11, 21)
    return cap


class TestLevels:
    def test_add_and_query(self):
        cap = CAPIndex()
        cap.add_level(0, [1, 2, 3])
        assert cap.has_level(0)
        assert cap.candidates(0) == {1, 2, 3}
        assert cap.candidate_count(0) == 3
        assert cap.levels() == [0]

    def test_duplicate_level_rejected(self):
        cap = CAPIndex()
        cap.add_level(0, [])
        with pytest.raises(CAPStateError):
            cap.add_level(0, [1])

    def test_missing_level_rejected(self):
        cap = CAPIndex()
        with pytest.raises(CAPStateError):
            cap.candidates(3)

    def test_remove_level_drops_aivs(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        cap.remove_level(0)
        assert not cap.has_level(0)
        assert not cap.is_processed(0, 1)
        with pytest.raises(CAPStateError):
            cap.aivs(1, 0, 20)

    def test_reset_level(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        cap.reset_level(0, [99])
        assert cap.candidates(0) == {99}
        assert not cap.is_processed(0, 1)


class TestEdges:
    def test_begin_requires_levels(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        with pytest.raises(CAPStateError):
            cap.begin_edge(0, 1)

    def test_pairs_symmetric(self):
        cap = populate_simple(CAPIndex())
        assert cap.aivs(0, 1, 10) == {20}
        assert cap.aivs(1, 0, 20) == {10}

    def test_finish_marks_processed(self):
        cap = populate_simple(CAPIndex())
        assert not cap.is_processed(0, 1)
        cap.finish_edge(0, 1)
        assert cap.is_processed(0, 1)
        assert cap.is_processed(1, 0)
        assert cap.processed_edges() == {(0, 1)}

    def test_double_begin_rejected(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        with pytest.raises(CAPStateError):
            cap.begin_edge(0, 1)

    def test_finish_without_begin_rejected(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        with pytest.raises(CAPStateError):
            cap.finish_edge(0, 1)

    def test_aivs_missing_candidate(self):
        cap = populate_simple(CAPIndex())
        with pytest.raises(CAPStateError):
            cap.aivs(0, 1, 999)

    def test_remove_pair(self):
        cap = populate_simple(CAPIndex())
        cap.remove_pair(0, 1, 10, 20)
        assert cap.aivs(0, 1, 10) == set()
        assert cap.aivs(1, 0, 20) == set()

    def test_drop_edge(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        cap.drop_edge(0, 1)
        assert not cap.is_processed(0, 1)


class TestAddPairs:
    """A pair block lands exactly like the same pairs added one by one."""

    @staticmethod
    def two_levels():
        cap = CAPIndex()
        cap.add_level(0, [1000, 7, 300, 42])
        cap.add_level(1, [300, 9, 5000, 7])
        cap.begin_edge(0, 1)
        return cap

    def test_block_equals_per_pair(self):
        # Source-major like a kernel block, targets out of numeric order.
        pairs = [(1000, 9), (1000, 300), (7, 5000), (42, 7), (42, 9), (42, 300)]
        bulk, single = self.two_levels(), self.two_levels()
        assert bulk.add_pairs(0, 1, np.array(pairs, dtype=np.int32)) == len(pairs)
        for vi, vj in pairs:
            single.add_pair(0, 1, vi, vj)
        assert bulk._aivs == single._aivs
        assert bulk.finish_edge(0, 1) == single.finish_edge(0, 1)
        assert bulk._candidates == single._candidates

    def test_members_are_the_candidate_sets_own_ints(self):
        cap = self.two_levels()
        cap.add_pairs(0, 1, np.array([[1000, 5000], [300, 5000]], dtype=np.int32))
        own = {id(v) for v in cap.candidates(0)} | {id(v) for v in cap.candidates(1)}
        assert {id(v) for v in cap.aivs(0, 1, 1000)} <= own
        assert {id(v) for v in cap.aivs(1, 0, 5000)} <= own

    def test_empty_block(self):
        cap = self.two_levels()
        assert cap.add_pairs(0, 1, np.empty((0, 2), dtype=np.int32)) == 0
        assert all(not s for s in cap._aivs[(0, 1)].values())

    def test_non_candidate_rejected(self):
        cap = self.two_levels()
        for bad in ([7, 8], [8, 7], [7, 999999]):  # like add_pair
            with pytest.raises(KeyError):
                cap.add_pairs(0, 1, np.array([bad], dtype=np.int32))


class TestPruning:
    def test_isolated_pruned_on_finish(self):
        cap = populate_simple(CAPIndex())
        removed = cap.finish_edge(0, 1)
        # candidate 12 of level 0 got no pairs -> isolated -> pruned
        assert 12 in removed
        assert cap.candidates(0) == {10, 11}

    def test_cascading_prune(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.add_level(2, [3])
        cap.begin_edge(0, 1)
        cap.add_pair(0, 1, 1, 2)
        cap.finish_edge(0, 1)
        cap.begin_edge(1, 2)
        # vertex 2's only support on level 2 never materializes
        cap.finish_edge(1, 2)
        # 2 isolated w.r.t. (1,2) -> pruned; cascade kills 1 (lost its only
        # AIVS target) and 3 stays isolated-free? 3 had no pairs -> pruned.
        assert cap.candidates(1) == set()
        assert cap.candidates(0) == set()
        assert cap.candidates(2) == set()

    def test_pruning_disabled(self):
        cap = CAPIndex(pruning_enabled=False)
        populate_simple(cap)
        removed = cap.finish_edge(0, 1)
        assert removed == []
        assert 12 in cap.candidates(0)

    def test_prune_candidate_public(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        removed = cap.prune_candidate(0, 10)
        # removing 10 leaves 20 unsupported -> cascades
        assert set(removed) == {10, 20}
        assert cap.candidates(1) == {21}

    def test_prune_candidate_absent_noop(self):
        cap = populate_simple(CAPIndex())
        assert cap.prune_candidate(0, 12345) == []

    def test_prune_isolated_after_pair_removal(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        cap.remove_pair(0, 1, 11, 21)
        removed = cap.prune_isolated(0, 1)
        assert set(removed) == {11, 21}

    def test_prune_steps_counted(self):
        cap = populate_simple(CAPIndex())
        before = cap.prune_steps
        cap.finish_edge(0, 1)
        assert cap.prune_steps == before + 1  # only vertex 12


class TestComponents:
    def test_processed_component(self):
        q = make_query()
        cap = CAPIndex()
        for qid in (0, 1, 2):
            cap.add_level(qid, [qid * 10])
        cap.begin_edge(0, 1)
        cap.add_pair(0, 1, 0, 10)
        cap.finish_edge(0, 1)
        vertices, edges = cap.processed_component(0)
        assert vertices == {0, 1}
        assert edges == {(0, 1)}
        # level 2 not connected by processed edges
        v2, e2 = cap.processed_component(2)
        assert v2 == {2}
        assert e2 == set()
        _ = q  # query only used semantically here

    def test_component_spans_chain(self):
        cap = CAPIndex()
        for qid in range(4):
            cap.add_level(qid, [qid])
        for a, b in ((0, 1), (1, 2)):
            cap.begin_edge(a, b)
            cap.add_pair(a, b, a, b)
            cap.finish_edge(a, b)
        vertices, edges = cap.processed_component(2)
        assert vertices == {0, 1, 2}
        assert edges == {(0, 1), (1, 2)}


class TestSizeAndConsistency:
    def test_size_report(self):
        cap = populate_simple(CAPIndex())
        report = cap.size_report()
        assert report.num_levels == 2
        assert report.vertex_entries == 5
        assert report.aivs_pairs == 4  # 2 pairs, both directions
        assert report.total == 5 + 2

    def test_peak_tracking(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)  # prunes 12 after peak snapshot
        assert cap.peak_total >= cap.size_report().total
        assert cap.peak_total == 7  # 5 vertices + 2 pairs before pruning

    def test_consistency_ok(self):
        q = make_query()
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.add_level(2, [3])
        cap.begin_edge(0, 1)
        cap.add_pair(0, 1, 1, 2)
        cap.finish_edge(0, 1)
        cap.check_consistency(q)  # should not raise

    def test_consistency_detects_asymmetry(self):
        q = make_query()
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.begin_edge(0, 1)
        cap.add_pair(0, 1, 1, 2)
        cap.finish_edge(0, 1)
        cap._aivs[(1, 0)][2].discard(1)  # corrupt deliberately
        with pytest.raises(CAPStateError):
            cap.check_consistency(q)

    def test_consistency_detects_isolated_unpruned(self):
        q = make_query()
        cap = CAPIndex()
        cap.add_level(0, [1, 5])
        cap.add_level(1, [2])
        cap.begin_edge(0, 1)
        cap.add_pair(0, 1, 1, 2)
        cap._processed.add((0, 1))  # bypass finish_edge's pruning
        with pytest.raises(CAPStateError):
            cap.check_consistency(q)

    def test_repr(self):
        cap = populate_simple(CAPIndex())
        assert "CAPIndex" in repr(cap)
