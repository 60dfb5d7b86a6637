"""Tests for the CAP index data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cap import CAPIndex, pair_keys
from repro.core.query import BPHQuery
from repro.errors import CAPStateError
from tests.reference_models import SetCAP, cap_state, ids


def block(*pairs):
    return np.array(pairs, dtype=np.int32).reshape(-1, 2)


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
    cap.add_pairs(0, 1, block((10, 20), (11, 21)))
    return cap


class TestLevels:
    def test_add_and_query(self):
        cap = CAPIndex()
        cap.add_level(0, [1, 2, 3])
        assert cap.has_level(0)
        assert ids(cap.candidates(0)) == {1, 2, 3}
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
        assert ids(cap.candidates(0)) == {99}
        assert not cap.is_processed(0, 1)


class TestEdges:
    def test_begin_requires_levels(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        with pytest.raises(CAPStateError):
            cap.begin_edge(0, 1)

    def test_pairs_symmetric(self):
        cap = populate_simple(CAPIndex())
        assert ids(cap.aivs(0, 1, 10)) == {20}
        assert ids(cap.aivs(1, 0, 20)) == {10}

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
        """Pairs go by block: what is not re-validated is dropped, both ways."""
        cap = populate_simple(CAPIndex())
        assert cap.retain_pairs(0, 1, block((11, 21), (12, 20))) == 1
        assert ids(cap.aivs(0, 1, 10)) == set()
        assert ids(cap.aivs(1, 0, 20)) == set()
        assert ids(cap.aivs(0, 1, 11)) == {21}
        assert ids(cap.aivs(1, 0, 21)) == {11}

    def test_aivs_of_an_unbegun_edge_rejected(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        with pytest.raises(CAPStateError):
            cap.aivs(0, 1, 1)
        with pytest.raises(CAPStateError):
            cap.add_pairs(0, 1, block((1, 2)))

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
        bulk, single = self.two_levels(), SetCAP()
        single.add_level(0, [1000, 7, 300, 42])
        single.add_level(1, [300, 9, 5000, 7])
        single.begin_edge(0, 1)
        assert bulk.add_pairs(0, 1, np.array(pairs, dtype=np.int32)) == len(pairs)
        for vi, vj in pairs:
            single.add_pair(0, 1, vi, vj)
        assert cap_state(bulk) == single.state()
        assert sorted(bulk.finish_edge(0, 1)) == sorted(single.finish_edge(0, 1))
        assert cap_state(bulk) == single.state()
        # Stored sorted by (source, target), the flip by (target, source).
        assert bulk.pairs(0, 1).tolist() == sorted([vi, vj] for vi, vj in pairs)
        assert bulk.pairs(1, 0).tolist() == sorted([vj, vi] for vi, vj in pairs)

    def test_members_are_the_candidate_sets_own_ints(self):
        """No object per pair: a sorted block is kept as it arrived, an AIVS
        is a view into it, and its members are int32 candidates."""
        cap = self.two_levels()
        pairs = block((300, 5000), (1000, 5000))
        cap.add_pairs(0, 1, pairs)
        assert np.shares_memory(cap.pairs(0, 1), pairs)
        for direction, v in (((0, 1), 1000), ((1, 0), 5000)):
            members = cap.aivs(*direction, v)
            assert members.dtype == np.int32
            assert np.shares_memory(members, cap.pairs(*direction))
            assert ids(members) <= ids(cap.candidates(direction[1]))

    def test_empty_block(self):
        cap = self.two_levels()
        assert cap.add_pairs(0, 1, np.empty((0, 2), dtype=np.int32)) == 0
        assert not len(cap.pairs(0, 1)) and not len(cap.pairs(1, 0))
        assert all(not len(cap.aivs(0, 1, v)) for v in cap.candidates(0).tolist())

    def test_non_candidate_rejected(self):
        cap = self.two_levels()
        for bad in ([7, 8], [8, 7], [7, 999999], [-1, 7]):
            with pytest.raises(CAPStateError):
                cap.add_pairs(0, 1, np.array([bad], dtype=np.int32))
        assert not len(cap.pairs(0, 1))


class TestPruning:
    def test_isolated_pruned_on_finish(self):
        cap = populate_simple(CAPIndex())
        removed = cap.finish_edge(0, 1)
        # candidate 12 of level 0 got no pairs -> isolated -> pruned
        assert 12 in removed
        assert ids(cap.candidates(0)) == {10, 11}

    def test_cascading_prune(self):
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.add_level(2, [3])
        cap.begin_edge(0, 1)
        cap.add_pairs(0, 1, block((1, 2)))
        cap.finish_edge(0, 1)
        cap.begin_edge(1, 2)
        # vertex 2's only support on level 2 never materializes
        cap.finish_edge(1, 2)
        # 2 isolated w.r.t. (1,2) -> pruned; cascade kills 1 (lost its only
        # AIVS target) and 3 stays isolated-free? 3 had no pairs -> pruned.
        assert ids(cap.candidates(1)) == set()
        assert ids(cap.candidates(0)) == set()
        assert ids(cap.candidates(2)) == set()

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
        assert ids(cap.candidates(1)) == {21}

    def test_prune_candidate_absent_noop(self):
        cap = populate_simple(CAPIndex())
        assert cap.prune_candidate(0, 12345) == []

    def test_prune_isolated_after_pair_removal(self):
        cap = populate_simple(CAPIndex())
        cap.finish_edge(0, 1)
        cap.retain_pairs(0, 1, block((10, 20)))
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
        cap.add_pairs(0, 1, block((0, 10)))
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
            cap.add_pairs(a, b, block((a, b)))
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
        cap.add_pairs(0, 1, block((1, 2)))
        cap.finish_edge(0, 1)
        cap.check_consistency(q)  # should not raise

    def test_consistency_detects_asymmetry(self):
        q = make_query()
        cap = CAPIndex()
        cap.add_level(0, [1])
        cap.add_level(1, [2])
        cap.begin_edge(0, 1)
        cap.add_pairs(0, 1, block((1, 2)))
        cap.finish_edge(0, 1)
        cap._blocks[(1, 0)] = cap._blocks[(1, 0)][:0]  # corrupt deliberately
        with pytest.raises(CAPStateError):
            cap.check_consistency(q)

    def test_consistency_detects_isolated_unpruned(self):
        q = make_query()
        cap = CAPIndex()
        cap.add_level(0, [1, 5])
        cap.add_level(1, [2])
        cap.begin_edge(0, 1)
        cap.add_pairs(0, 1, block((1, 2)))
        cap._processed.add((0, 1))  # bypass finish_edge's pruning
        with pytest.raises(CAPStateError):
            cap.check_consistency(q)

    def test_repr(self):
        cap = populate_simple(CAPIndex())
        assert "CAPIndex" in repr(cap)


# ----------------------------------------------------------------------
# Conformance against the dict-of-set model the arrays replaced
# ----------------------------------------------------------------------
def assert_same_index(real: CAPIndex, model: SetCAP) -> None:
    """Levels, pairs in both directions, counters and Lemma 5.2 sizes."""
    assert cap_state(real) == model.state()
    assert real.prune_steps == model.prune_steps
    assert real.peak_total == model.peak_total
    report = real.size_report()
    assert report.total == model.total()
    assert report.vertex_entries == sum(map(len, model.candidates.values()))
    for q in real.levels():
        level = real.candidates(q)
        assert level.dtype == np.int32 and (np.diff(level) > 0).all()
    for stored in real._blocks.values():
        assert stored.dtype == np.int32 and (np.diff(pair_keys(*stored.T)) > 0).all()


class TestSetModelConformance:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_scripts_build_the_same_index(self, data):
        """Overlapping, repeating, unsorted and empty levels; per edge two
        unsorted pair blocks that share pairs (or are empty); pruning on
        and off; query shapes over up to five levels, so a prune cascades
        through several of them."""
        pruning = data.draw(st.booleans())
        real, model = CAPIndex(pruning), SetCAP(pruning)
        n = data.draw(st.integers(2, 5))
        for q in range(n):
            members = data.draw(st.lists(st.integers(0, 12), max_size=8))
            real.add_level(q, members)
            model.add_level(q, members)
        possible = [(a, b) for a in range(n) for b in range(n) if a != b]
        edges = data.draw(
            st.lists(st.sampled_from(possible), unique_by=frozenset, max_size=6)
        )
        for a, b in edges:
            real.begin_edge(a, b)
            model.begin_edge(a, b)
            universe = [
                (v, w)
                for v in sorted(model.candidates[a])
                for w in sorted(model.candidates[b])
                if v != w
            ]
            for _ in range(2):
                pairs = data.draw(st.lists(st.sampled_from(universe), max_size=12)) if universe else []
                assert real.add_pairs(a, b, block(*pairs)) == len(pairs)
                for v, w in pairs:
                    model.add_pair(a, b, v, w)
                assert cap_state(real) == model.state()
            assert sorted(real.finish_edge(a, b)) == sorted(model.finish_edge(a, b))
            assert_same_index(real, model)
            for v in sorted(model.candidates[a]):
                assert ids(real.aivs(a, b, v)) == model.aivs[(a, b)][v]

    def test_a_cascade_four_levels_deep(self):
        """A chain 0-1-2-3-4 held together by single pairs: closing the last
        edge with no pair unravels every level, one round per level."""
        real, model = CAPIndex(), SetCAP()
        for cap in (real, model):
            for q in range(5):
                cap.add_level(q, [10 * q, 10 * q + 1])
        for q in range(3):
            for cap in (real, model):
                cap.begin_edge(q, q + 1)
            real.add_pairs(q, q + 1, block((10 * q, 10 * q + 10), (10 * q + 1, 10 * q + 11)))
            model.add_pair(q, q + 1, 10 * q, 10 * q + 10)
            model.add_pair(q, q + 1, 10 * q + 1, 10 * q + 11)
            assert real.finish_edge(q, q + 1) == model.finish_edge(q, q + 1) == []
        for cap in (real, model):
            cap.begin_edge(3, 4)
        real.add_pairs(3, 4, block((31, 41)))
        model.add_pair(3, 4, 31, 41)
        assert sorted(real.finish_edge(3, 4)) == sorted(model.finish_edge(3, 4)) == [0, 10, 20, 30, 40]
        assert_same_index(real, model)
        assert real.prune_steps == 5

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_retain_pairs_is_remove_pair_for_the_rest(self, data):
        members = st.lists(st.integers(0, 9), min_size=1, max_size=6)
        real, model = CAPIndex(), SetCAP()
        for q in (0, 1):
            level = data.draw(members)
            real.add_level(q, level)
            model.add_level(q, level)
        universe = [(v, w) for v in sorted(model.candidates[0]) for w in sorted(model.candidates[1])]
        pairs = data.draw(st.lists(st.sampled_from(universe), max_size=15))
        valid = data.draw(st.lists(st.sampled_from(universe), max_size=15))
        real.begin_edge(0, 1)
        model.begin_edge(0, 1)
        real.add_pairs(0, 1, block(*pairs))
        for v, w in pairs:
            model.add_pair(0, 1, v, w)
        real.finish_edge(0, 1)
        model.finish_edge(0, 1)
        dropped = set(pairs) - set(valid)
        assert real.retain_pairs(0, 1, block(*valid)) == len(dropped)
        for v, w in dropped:
            model.remove_pair(0, 1, v, w)
        assert cap_state(real) == model.state()
        assert sorted(real.prune_isolated(0, 1)) == sorted(model.prune_isolated(0, 1))
        assert_same_index(real, model)
