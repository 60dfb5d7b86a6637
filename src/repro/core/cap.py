"""The CAP (Compact Adaptive Path) index — Definition 5.1 of the paper.

The CAP index is a ``|V_B|``-level undirected graph over *data* vertices:

* level ``q`` holds the candidate set ``V_q`` — data vertices whose label
  matches query vertex ``q`` and that have not (yet) been pruned;
* for every *processed* query edge ``(q_i, q_j)``, each candidate
  ``v ∈ V_qi`` stores its **adjacent indexed vertex set** (AIVS)
  ``V_qi^qj(v)`` — the candidates of ``q_j`` reachable from ``v`` within
  ``e.upper`` hops in the data graph.

Only *upper* bounds shape the index; lower bounds are checked just-in-time
at visualization (Section 5.4).  A candidate whose AIVS for some processed
incident edge is empty is *isolated* and pruned, recursively (Algorithm 7),
which is what keeps the index "compact in practice" despite the quadratic
worst case (Lemma 5.2).

The index also tracks which query edges are processed vs still pooled;
the connected components of the *processed* edge set are what query
modification rolls back (Section 6 / Algorithm 5).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.query import BPHQuery, canonical_edge
from repro.errors import CAPStateError

__all__ = ["CAPIndex", "CAPSizeReport"]


@dataclass(frozen=True)
class CAPSizeReport:
    """Size accounting per Lemma 5.2: Σ|V_q| vertex entries + ΣAIVS pairs."""

    num_levels: int
    vertex_entries: int  # Σ_q |V_q|
    aivs_pairs: int  # Σ_(qi,qj) Σ_v |V_qi^qj(v)|  (directed count)

    @property
    def total(self) -> int:
        """Vertex entries plus (undirected) AIVS edge count."""
        return self.vertex_entries + self.aivs_pairs // 2


class CAPIndex:
    """Online, adaptive index over candidate matches of a (partial) BPH query.

    The index is owned and driven by the blender engine; its public surface
    is also used directly by the enumeration and modification modules.

    Parameters
    ----------
    pruning_enabled:
        When False, isolated candidates are *not* removed (the "No Pruning"
        arm of Exp 2).  The index stays correct — enumeration intersects
        AIVS sets — just bigger and slower.
    """

    def __init__(self, pruning_enabled: bool = True) -> None:
        self.pruning_enabled = pruning_enabled
        #: level -> candidate set V_q (data-vertex ids)
        self._candidates: dict[int, set[int]] = {}
        #: directed AIVS maps: (qi, qj) -> {v_i -> set(v_j)}.  Both
        #: directions of a processed edge are materialized.
        self._aivs: dict[tuple[int, int], dict[int, set[int]]] = {}
        #: canonical (qi, qj) keys of processed query edges
        self._processed: set[tuple[int, int]] = set()
        #: count of prune steps performed (Lemma 5.6 instrumentation)
        self.prune_steps = 0
        #: largest total size (Lemma 5.2 accounting) the index ever reached.
        #: The *final* index is a strategy-independent fixpoint, but the
        #: transient size is not: processing an expensive edge before
        #: pruning materializes pairs a deferred processing never creates.
        #: This is the quantity Figures 9/13/17 compare.
        self.peak_total = 0

    # ------------------------------------------------------------------
    # Levels (query vertices)
    # ------------------------------------------------------------------
    def add_level(self, q: int, candidates: Iterable[int]) -> None:
        """Create level ``q`` holding ``candidates`` (Algorithm 2, lines 3-4)."""
        if q in self._candidates:
            raise CAPStateError(f"CAP level for query vertex {q} already exists")
        self._candidates[q] = set(int(v) for v in candidates)
        self._note_peak()

    def remove_level(self, q: int) -> None:
        """Drop level ``q`` and all its AIVS maps (used by rollback)."""
        if q not in self._candidates:
            raise CAPStateError(f"CAP has no level for query vertex {q}")
        del self._candidates[q]
        for key in [k for k in self._aivs if q in k]:
            del self._aivs[key]
        self._processed = {e for e in self._processed if q not in e}

    def has_level(self, q: int) -> bool:
        """True iff level ``q`` exists."""
        return q in self._candidates

    def levels(self) -> list[int]:
        """Query-vertex ids that have levels."""
        return list(self._candidates)

    def candidates(self, q: int) -> set[int]:
        """The live candidate set ``V_q`` (the actual set — do not mutate)."""
        try:
            return self._candidates[q]
        except KeyError:
            raise CAPStateError(f"CAP has no level for query vertex {q}") from None

    def candidate_count(self, q: int) -> int:
        """``|V_q|`` for the deferment cost model."""
        return len(self.candidates(q))

    def reset_level(self, q: int, candidates: Iterable[int]) -> None:
        """Replace level ``q``'s candidates (rollback re-retrieval, Alg. 5)."""
        if q not in self._candidates:
            raise CAPStateError(f"CAP has no level for query vertex {q}")
        self._candidates[q] = set(int(v) for v in candidates)
        for key in [k for k in self._aivs if q in k]:
            del self._aivs[key]
        self._processed = {e for e in self._processed if q not in e}

    # ------------------------------------------------------------------
    # Edges / AIVS
    # ------------------------------------------------------------------
    def begin_edge(self, qi: int, qj: int) -> None:
        """Materialize empty AIVS maps for edge ``(qi, qj)``.

        Mirrors Algorithm 6 lines 1-7: every current candidate starts with
        an empty adjacent indexed vertex set, to be populated by PVS.
        """
        for q in (qi, qj):
            if q not in self._candidates:
                raise CAPStateError(
                    f"cannot process edge ({qi}, {qj}): level {q} missing"
                )
        key = canonical_edge(qi, qj)
        if key in self._processed:
            raise CAPStateError(f"query edge {key} was already processed")
        self._aivs[(qi, qj)] = {v: set() for v in self._candidates[qi]}
        self._aivs[(qj, qi)] = {v: set() for v in self._candidates[qj]}

    def add_pair(self, qi: int, qj: int, vi: int, vj: int) -> None:
        """Record that ``(vi, vj)`` satisfies the upper bound of ``(qi, qj)``."""
        self._aivs[(qi, qj)][vi].add(vj)
        self._aivs[(qj, qi)][vj].add(vi)

    def add_pairs(self, qi: int, qj: int, pairs: np.ndarray) -> int:
        """Bulk :meth:`add_pair` of an int32 ``(P, 2)`` block; returns ``P``.

        The block (what ``within_many`` returns) is ingested grouped: one
        ``set.update`` per run of equal sources and, after a stable sort
        by target, one per target for the reverse map.  The members are
        the candidate sets' own ``int`` objects: no fresh ``int`` per pair.
        """
        block = np.asarray(pairs).reshape(-1, 2)
        by_target = np.argsort(block[:, 1], kind="stable")
        sources, source_bounds = self._runs(qi, block[:, 0])
        targets, target_bounds = self._runs(qj, block[by_target, 1])
        source_of = np.repeat(np.array(sources, dtype=object), np.diff(source_bounds))
        target_of = np.empty(len(block), dtype=object)  # ... of each pair
        target_of[by_target] = np.repeat(
            np.array(targets, dtype=object), np.diff(target_bounds)
        )
        for aivs, keys, bounds, members in (
            (self._aivs[(qi, qj)], sources, source_bounds, target_of.tolist()),
            (self._aivs[(qj, qi)], targets, target_bounds, source_of[by_target].tolist()),
        ):
            for key, lo, hi in zip(keys, bounds, bounds[1:]):
                aivs[key].update(members[lo:hi])
        return len(block)

    def _runs(self, q: int, keys: np.ndarray) -> tuple[list[int], list[int]]:
        """Runs of equal consecutive ``keys``: per run level ``q``'s own
        ``int`` object for the key, and the runs' bounds."""
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        own = {v: v for v in self._candidates[q]}
        return [own[k] for k in keys[starts].tolist()], starts.tolist() + [len(keys)]

    def finish_edge(self, qi: int, qj: int) -> list[int]:
        """Mark edge processed and prune isolated candidates.

        Returns the list of data vertices pruned (possibly across several
        levels, because pruning cascades).  With pruning disabled, marks
        the edge processed and returns ``[]``.
        """
        key = canonical_edge(qi, qj)
        if (qi, qj) not in self._aivs:
            raise CAPStateError(f"edge {key} was not begun")
        self._processed.add(key)
        self._note_peak()
        # Algorithm 6 lines 9-18: candidates isolated w.r.t. the new edge.
        return self.prune_isolated(qi, qj)

    def is_processed(self, qi: int, qj: int) -> bool:
        """True iff the query edge ``(qi, qj)`` has been processed."""
        return canonical_edge(qi, qj) in self._processed

    def processed_edges(self) -> set[tuple[int, int]]:
        """Canonical keys of all processed query edges (copy)."""
        return set(self._processed)

    def drop_edge(self, qi: int, qj: int) -> None:
        """Forget a processed edge's AIVS maps without pruning.

        Used by modification when an edge's pairs are about to be fully
        recomputed (loosening) or discarded (deletion rollback handles the
        level resets itself).
        """
        key = canonical_edge(qi, qj)
        self._processed.discard(key)
        self._aivs.pop((qi, qj), None)
        self._aivs.pop((qj, qi), None)

    def aivs(self, qi: int, qj: int, v: int) -> set[int]:
        """``V_qi^qj(v)`` — candidates of ``qj`` within bound of ``v``.

        Returns the live set (do not mutate).  Raises if the edge is not
        processed or ``v`` is not a candidate of ``qi``.
        """
        try:
            return self._aivs[(qi, qj)][v]
        except KeyError:
            raise CAPStateError(
                f"no AIVS for edge ({qi}, {qj}) and candidate {v}"
            ) from None

    def remove_pair(self, qi: int, qj: int, vi: int, vj: int) -> None:
        """Remove a pair (bound-tightening re-check, Algorithm 15)."""
        self._aivs[(qi, qj)].get(vi, set()).discard(vj)
        self._aivs[(qj, qi)].get(vj, set()).discard(vi)

    # ------------------------------------------------------------------
    # Pruning (Algorithm 7)
    # ------------------------------------------------------------------
    def _prune(self, q: int, v: int, removed: list[int]) -> None:
        """Remove candidate ``v`` from level ``q`` and cascade (iterative).

        A worklist replaces Algorithm 7's recursion: prune cascades can be
        thousands of steps deep on low-selectivity queries, which would
        overflow Python's recursion limit.
        """
        worklist: list[tuple[int, int]] = [(q, v)]
        while worklist:
            level, vertex = worklist.pop()
            if vertex not in self._candidates.get(level, ()):
                continue
            self._candidates[level].discard(vertex)
            removed.append(vertex)
            self.prune_steps += 1
            # For every processed edge (level, other): delete the vertex's
            # AIVS and remove it from the reverse sets; reverse candidates
            # left empty become isolated in turn.
            for (a, b), aivs in list(self._aivs.items()):
                if a != level:
                    continue
                neighbors = aivs.pop(vertex, None)
                if not neighbors:
                    continue
                reverse = self._aivs[(b, a)]
                for w in neighbors:
                    rev_set = reverse.get(w)
                    if rev_set is None:
                        continue
                    rev_set.discard(vertex)
                    if not rev_set and w in self._candidates[b]:
                        worklist.append((b, w))

    def prune_candidate(self, q: int, v: int) -> list[int]:
        """Public entry point for pruning a specific candidate."""
        if v not in self._candidates.get(q, set()):
            return []
        removed: list[int] = []
        self._prune(q, v, removed)
        return removed

    def prune_isolated(self, qi: int, qj: int) -> list[int]:
        """Re-run the isolation check for edge ``(qi, qj)``.

        Needed after bound tightening removes pairs (Algorithm 15 line 9).
        """
        if not self.pruning_enabled:
            return []
        removed: list[int] = []
        for q, other in ((qi, qj), (qj, qi)):
            aivs = self._aivs.get((q, other))
            if aivs is None:
                continue
            isolated = [v for v in self._candidates[q] if not aivs.get(v)]
            for v in isolated:
                if v in self._candidates[q]:
                    self._prune(q, v, removed)
        return removed

    # ------------------------------------------------------------------
    # Components / introspection
    # ------------------------------------------------------------------
    def processed_component(self, q_start: int) -> tuple[set[int], set[tuple[int, int]]]:
        """Connected component of *processed* edges containing ``q_start``.

        Returns ``(component_vertices, component_edges)``; a vertex with no
        processed incident edge yields ``({q_start}, set())``.  This is the
        "affected region" of Section 6's rollback.
        """
        adjacency: dict[int, set[int]] = {}
        for a, b in self._processed:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        component = {q_start}
        stack = [q_start]
        while stack:
            u = stack.pop()
            for w in adjacency.get(u, ()):
                if w not in component:
                    component.add(w)
                    stack.append(w)
        edges = {e for e in self._processed if e[0] in component and e[1] in component}
        return component, edges

    def _note_peak(self) -> None:
        total = self.size_report().total
        if total > self.peak_total:
            self.peak_total = total

    def size_report(self) -> CAPSizeReport:
        """Current size per Lemma 5.2's accounting."""
        vertex_entries = sum(len(c) for c in self._candidates.values())
        aivs_pairs = sum(
            len(s) for aivs in self._aivs.values() for s in aivs.values()
        )
        return CAPSizeReport(
            num_levels=len(self._candidates),
            vertex_entries=vertex_entries,
            aivs_pairs=aivs_pairs,
        )

    def integrity_issues(
        self, query: BPHQuery
    ) -> list[tuple[tuple[int, int] | None, str]]:
        """Collect every structural-invariant violation without raising.

        Returns ``(edge_key, message)`` tuples — ``edge_key`` is the
        canonical query edge whose entry is corrupt (None when the issue is
        not attributable to one edge).  Checked invariants:

        * AIVS maps exist exactly for processed edges, in both directions;
        * AIVS symmetry: ``vj in V_qi^qj(vi)`` iff ``vi in V_qj^qi(vj)``;
        * AIVS sources and members are live candidates;
        * with pruning on, no live candidate is isolated w.r.t. a
          processed incident edge.

        This is the audit surface the resilience layer's
        :class:`~repro.resilience.CAPInvariantChecker` builds on; an empty
        list means the index is structurally sound.
        """
        issues: list[tuple[tuple[int, int] | None, str]] = []
        for qi, qj in sorted(self._processed):
            key = canonical_edge(qi, qj)
            for a, b in ((qi, qj), (qj, qi)):
                if (a, b) not in self._aivs:
                    issues.append((key, f"missing AIVS direction ({a}, {b})"))
            if not query.has_edge(qi, qj):
                issues.append((key, f"processed edge {(qi, qj)} not in query"))
        for (a, b), aivs in sorted(self._aivs.items()):
            key = canonical_edge(a, b)
            if key not in self._processed:
                issues.append((key, f"AIVS for unprocessed edge ({a}, {b})"))
                continue
            reverse = self._aivs.get((b, a), {})
            level = self._candidates.get(a, set())
            other_level = self._candidates.get(b, set())
            for v in sorted(level):
                if v not in aivs:
                    issues.append(
                        (key, f"candidate {v} of {a} has no AIVS entry for ({a}, {b})")
                    )
            for v, targets in sorted(aivs.items()):
                if v not in level:
                    issues.append(
                        (key, f"AIVS source {v} is not a live candidate of {a}")
                    )
                for w in sorted(targets):
                    if w not in other_level:
                        issues.append(
                            (key, f"AIVS target {w} is not a live candidate of {b}")
                        )
                    if v not in reverse.get(w, set()):
                        issues.append(
                            (key, f"AIVS asymmetry: {v}->{w} on ({a},{b}) lacks reverse")
                        )
                if self.pruning_enabled and not targets and v in level:
                    issues.append(
                        (
                            key,
                            f"candidate {v} of {a} is isolated w.r.t. ({a}, {b}) "
                            "but was not pruned",
                        )
                    )
        return issues

    def check_consistency(self, query: BPHQuery) -> None:
        """Verify internal invariants (tests + debugging; not on hot paths).

        Raises :class:`CAPStateError` on the first violation found by
        :meth:`integrity_issues`.
        """
        issues = self.integrity_issues(query)
        if issues:
            raise CAPStateError(issues[0][1])

    def __repr__(self) -> str:
        report = self.size_report()
        return (
            f"CAPIndex(levels={report.num_levels}, "
            f"vertices={report.vertex_entries}, aivs_pairs={report.aivs_pairs}, "
            f"processed_edges={len(self._processed)})"
        )
