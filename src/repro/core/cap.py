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

Layout: the one the graph CSR, the PML labels and the PVS kernels use.  A
level is one sorted int32 array.  A processed edge is two int32 ``(P, 2)``
pair blocks, one per direction, each sorted by (source, target): the block
a PVS kernel emits is stored as it arrives, ``V_qi^qj(v)`` is a
``searchsorted`` slice of it, and the Lemma 5.2 size is a sum of lengths.

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

__all__ = ["CAPIndex", "CAPSizeReport", "pair_keys", "in_sorted"]

_NO_IDS = np.empty(0, dtype=np.int32)
_NO_PAIRS = np.empty((0, 2), dtype=np.int32)


def pair_keys(sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """One int64 per (source, target) pair, ordered like the pairs; the keys
    of a pair block are ``pair_keys(*block.T)``."""
    return (sources.astype(np.int64) << 32) | targets


def _pair_block(keys: np.ndarray) -> np.ndarray:
    """The int32 ``(P, 2)`` block whose :func:`pair_keys` are ``keys``."""
    block = np.empty((len(keys), 2), dtype=np.int32)
    block[:, 0] = keys >> 32
    block[:, 1] = keys & 0xFFFFFFFF
    return block


def in_sorted(values: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``probes`` occur in the sorted array ``values``."""
    if not len(values):
        return np.zeros(len(probes), dtype=bool)
    at = np.searchsorted(values, probes)
    at[at == len(values)] = 0
    return values[at] == probes


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` ascending without repeats; untouched when it already is."""
    if len(values) > 1 and not (values[1:] > values[:-1]).all():
        values = np.sort(values)
        values = values[np.diff(values, prepend=values[0] - 1) != 0]
    return values


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
        #: level -> candidate set V_q: sorted int32 data-vertex ids
        self._levels: dict[int, np.ndarray] = {}
        #: directed pair blocks: (qi, qj) -> int32 (P, 2) rows (v_i, v_j)
        #: sorted by (v_i, v_j).  Both directions of an edge are kept.
        self._blocks: dict[tuple[int, int], np.ndarray] = {}
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
        if q in self._levels:
            raise CAPStateError(f"CAP level for query vertex {q} already exists")
        self._set_level(q, candidates)
        self._note_peak()

    def _set_level(self, q: int, candidates: Iterable[int]) -> None:
        """Store a sorted int32 array; the graph's label index is kept as it
        is, and every pair block and processed mark touching ``q`` goes."""
        if not isinstance(candidates, np.ndarray):
            candidates = np.array(list(candidates), dtype=np.int32)
        self._levels[q] = _sorted_unique(candidates.astype(np.int32, copy=False))
        for key in [k for k in self._blocks if q in k]:
            del self._blocks[key]
        self._processed = {e for e in self._processed if q not in e}

    def remove_level(self, q: int) -> None:
        """Drop level ``q`` and all its pair blocks."""
        self.reset_level(q, _NO_IDS)
        del self._levels[q]

    def has_level(self, q: int) -> bool:
        """True iff level ``q`` exists."""
        return q in self._levels

    def levels(self) -> list[int]:
        """Query-vertex ids that have levels."""
        return list(self._levels)

    def candidates(self, q: int) -> np.ndarray:
        """The live candidate set ``V_q``, ascending (the stored array — do
        not mutate)."""
        try:
            return self._levels[q]
        except KeyError:
            raise CAPStateError(f"CAP has no level for query vertex {q}") from None

    def candidate_count(self, q: int) -> int:
        """``|V_q|`` for the deferment cost model."""
        return len(self.candidates(q))

    def reset_level(self, q: int, candidates: Iterable[int]) -> None:
        """Replace level ``q``'s candidates (rollback re-retrieval, Alg. 5)."""
        self.candidates(q)
        self._set_level(q, candidates)

    # ------------------------------------------------------------------
    # Edges / AIVS
    # ------------------------------------------------------------------
    def begin_edge(self, qi: int, qj: int) -> None:
        """Open edge ``(qi, qj)`` for PVS (Algorithm 6 lines 1-7): every
        candidate starts with an empty AIVS — here, no row in the block."""
        for q in (qi, qj):
            if q not in self._levels:
                raise CAPStateError(
                    f"cannot process edge ({qi}, {qj}): level {q} missing"
                )
        key = canonical_edge(qi, qj)
        if key in self._processed:
            raise CAPStateError(f"query edge {key} was already processed")
        self._blocks[(qi, qj)] = self._blocks[(qj, qi)] = _NO_PAIRS

    def add_pairs(self, qi: int, qj: int, pairs: np.ndarray) -> int:
        """Record an int32 ``(P, 2)`` block of ``(v_i, v_j)`` pairs that
        satisfy the upper bound of ``(qi, qj)``; returns ``P``.

        The block (what ``within_many`` and ``hop_pairs`` return) is kept as
        it is when its rows are sorted by ``(v_i, v_j)``, which both kernels
        guarantee for sorted levels, and sorted otherwise.  A second block
        for the same edge is merged in (union of the pairs).
        """
        stored = self.pairs(qi, qj)
        block = np.ascontiguousarray(pairs, dtype=np.int32).reshape(-1, 2)
        for q, ids in ((qi, block[:, 0]), (qj, block[:, 1])):
            level = self._levels[q]
            live = np.zeros(max(ids.max(initial=-1), level.max(initial=-1)) + 1, dtype=bool)
            live[level] = True
            if ids.min(initial=0) < 0 or not live[ids].all():
                raise CAPStateError(
                    f"pair block of edge ({qi}, {qj}) names a vertex that is "
                    f"not a candidate of level {q}"
                )
        merged = np.concatenate((stored, block)) if len(stored) else block
        keys = pair_keys(*merged.T)
        ordered = _sorted_unique(keys)
        self._store(qi, qj, merged if ordered is keys else _pair_block(ordered))
        return len(block)

    def _store(self, qi: int, qj: int, block: np.ndarray) -> None:
        """Keep ``block`` (sorted) for ``(qi, qj)`` and, for ``(qj, qi)``, its
        rows flipped and sorted again (by key: several times faster than a
        stable argsort by target)."""
        self._blocks[(qi, qj)] = block
        self._blocks[(qj, qi)] = _pair_block(np.sort(pair_keys(*block.T[::-1])))

    def retain_pairs(self, qi: int, qj: int, valid: np.ndarray) -> int:
        """Keep only the pairs of ``(qi, qj)`` that also occur in the block
        ``valid`` (bound-tightening re-check, Algorithm 15); returns how
        many were dropped.  Isolated candidates stay until
        :meth:`prune_isolated`."""
        stored = self.pairs(qi, qj)
        valid = np.asarray(valid, dtype=np.int32).reshape(-1, 2)
        keep = in_sorted(np.sort(pair_keys(*valid.T)), pair_keys(*stored.T))
        self._store(qi, qj, np.compress(keep, stored, axis=0))
        return len(stored) - int(keep.sum())

    def finish_edge(self, qi: int, qj: int) -> list[int]:
        """Mark edge processed and prune isolated candidates (Algorithm 6
        lines 9-18).  Returns the data vertices pruned, possibly across
        several levels because pruning cascades; ``[]`` with pruning off."""
        if (qi, qj) not in self._blocks:
            raise CAPStateError(f"edge {canonical_edge(qi, qj)} was not begun")
        self._processed.add(canonical_edge(qi, qj))
        self._note_peak()
        return self.prune_isolated(qi, qj)

    def is_processed(self, qi: int, qj: int) -> bool:
        """True iff the query edge ``(qi, qj)`` has been processed."""
        return canonical_edge(qi, qj) in self._processed

    def processed_edges(self) -> set[tuple[int, int]]:
        """Canonical keys of all processed query edges (copy)."""
        return set(self._processed)

    def drop_edge(self, qi: int, qj: int) -> None:
        """Forget an edge's pair blocks without pruning (a failed attempt
        at processing it, or a stale entry the audit found)."""
        self._processed.discard(canonical_edge(qi, qj))
        self._blocks.pop((qi, qj), None)
        self._blocks.pop((qj, qi), None)

    def pairs(self, qi: int, qj: int) -> np.ndarray:
        """The pair block of direction ``(qi, qj)``: int32 ``(P, 2)`` rows
        ``(v_i, v_j)`` sorted by ``(v_i, v_j)`` (the stored array — do not
        mutate).  Raises if the edge was not begun."""
        try:
            return self._blocks[(qi, qj)]
        except KeyError:
            raise CAPStateError(f"no pair block for edge ({qi}, {qj})") from None

    def aivs(self, qi: int, qj: int, v: int) -> np.ndarray:
        """``V_qi^qj(v)`` — candidates of ``qj`` within bound of ``v``,
        ascending: a slice of the stored block (do not mutate).  Raises if
        the edge was not begun or ``v`` is not a candidate of ``qi``."""
        block = self._blocks.get((qi, qj))
        if block is None or not in_sorted(self._levels[qi], np.array([v]))[0]:
            raise CAPStateError(f"no AIVS for edge ({qi}, {qj}) and candidate {v}")
        lo, hi = np.searchsorted(block[:, 0], [v, v + 1])
        return block[lo:hi, 1]

    # ------------------------------------------------------------------
    # Pruning (Algorithm 7)
    # ------------------------------------------------------------------
    def _scratch(self) -> np.ndarray:
        """An all-False mask indexable by every vertex id the index holds
        (block entries are level members, unless the index is corrupted)."""
        arrays = (*self._levels.values(), *self._blocks.values())
        top = max((int(a.max(initial=-1)) for a in arrays), default=-1)
        return np.zeros(top + 1, dtype=bool)

    def _prune(self, dead: dict[int, np.ndarray], scratch: np.ndarray) -> list[int]:
        """Remove the candidates ``dead`` (level -> live ids) and cascade.

        Algorithm 7's recursion as a fixpoint of mask rounds: a round drops
        the dead of every level, deletes their rows from every block of
        that level (both directions), and collects the candidates that
        thereby lost their last row in some block — the dead of the next
        round.  The survivors are the unique fixpoint, so levels, pairs and
        the step count do not depend on the order candidates die in.
        """
        removed: list[int] = []
        while dead:
            lost: dict[int, list[tuple[int, np.ndarray]]] = {}
            for q, ids in dead.items():
                scratch[ids] = True
                level = self._levels[q]
                self._levels[q] = level[~scratch[level]]
                for (a, b), block in self._blocks.items():
                    if q not in (a, b):
                        continue
                    gone = scratch[block[:, 0 if a == q else 1]]
                    if not gone.any():
                        continue
                    if a == q:
                        lost.setdefault(b, []).append((q, block[:, 1][gone]))
                    # (np.compress: boolean row indexing is ten times slower.)
                    self._blocks[(a, b)] = np.compress(~gone, block, axis=0)
                scratch[ids] = False
                removed.extend(ids.tolist())
            dead = {}
            for b, bereft in lost.items():
                level = self._levels[b]
                orphan = np.zeros(len(level), dtype=bool)
                for q, targets in bereft:
                    scratch[targets] = True
                    scratch[self._blocks[(b, q)][:, 0]] = False  # still has a row
                    orphan |= scratch[level]
                    scratch[targets] = False
                if orphan.any():
                    dead[b] = level[orphan]
        self.prune_steps += len(removed)
        return removed

    def prune_candidate(self, q: int, v: int) -> list[int]:
        """Public entry point for pruning a specific candidate."""
        if not in_sorted(self._levels.get(q, _NO_IDS), np.array([v]))[0]:
            return []
        return self._prune({q: np.array([v], dtype=np.int32)}, self._scratch())

    def prune_isolated(self, qi: int, qj: int) -> list[int]:
        """Re-run the isolation check for edge ``(qi, qj)`` (also needed
        after bound tightening removed pairs, Algorithm 15 line 9)."""
        if not self.pruning_enabled or (qi, qj) not in self._blocks:
            return []
        scratch = self._scratch()
        dead = {}
        for q, other in ((qi, qj), (qj, qi)):
            sources, level = self._blocks[(q, other)][:, 0], self._levels[q]
            scratch[sources] = True
            dead[q] = level[~scratch[level]]
            scratch[sources] = False
        return self._prune({q: ids for q, ids in dead.items() if len(ids)}, scratch)

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
        self.peak_total = max(self.peak_total, self.size_report().total)

    def size_report(self) -> CAPSizeReport:
        """Current size per Lemma 5.2's accounting: a sum of array lengths."""
        return CAPSizeReport(
            num_levels=len(self._levels),
            vertex_entries=sum(map(len, self._levels.values())),
            aivs_pairs=sum(map(len, self._blocks.values())),
        )

    def integrity_issues(self, query: BPHQuery) -> list[str]:
        """Describe every structural-invariant violation without raising.

        Checked invariants:

        * pair blocks exist exactly for processed edges, in both directions;
        * every block is sorted by (source, target) without repeats;
        * symmetry: the block of ``(qi, qj)`` holds ``(vi, vj)`` iff the
          block of ``(qj, qi)`` holds ``(vj, vi)``;
        * block sources and targets are live candidates (set differences of
          sorted ids: one no level or graph ever held is a stranger like any);
        * with pruning on, no live candidate is isolated w.r.t. a
          processed incident edge.

        An empty list means the index is structurally sound.
        """
        issues: list[str] = []
        for qi, qj in sorted(self._processed):
            for a, b in ((qi, qj), (qj, qi)):
                if (a, b) not in self._blocks:
                    issues.append(f"missing AIVS direction ({a}, {b})")
            if not query.has_edge(qi, qj):
                issues.append(f"processed edge {(qi, qj)} not in query")
        for (a, b), block in sorted(self._blocks.items()):
            if canonical_edge(a, b) not in self._processed:
                issues.append(f"AIVS for unprocessed edge ({a}, {b})")
                continue
            keys = pair_keys(*block.T)
            if (np.diff(keys) <= 0).any():
                issues.append(f"pair block of ({a}, {b}) is out of order")
            for q, ids, role in ((a, block[:, 0], "source"), (b, block[:, 1], "target")):
                issues += [
                    f"AIVS {role} {v} is not a live candidate of {q}"
                    for v in np.setdiff1d(ids, self._levels.get(q, _NO_IDS)).tolist()
                ]
            flipped = pair_keys(*self._blocks.get((b, a), _NO_PAIRS).T[::-1])
            issues += [
                f"AIVS asymmetry: {v}->{w} on ({a},{b}) lacks reverse"
                for v, w in _pair_block(np.setdiff1d(keys, flipped)).tolist()
            ]
            if self.pruning_enabled:
                issues += [
                    f"candidate {v} of {a} is isolated w.r.t. ({a}, {b}) but was not pruned"
                    for v in np.setdiff1d(self._levels.get(a, _NO_IDS), block[:, 0]).tolist()
                ]
        return issues

    def check_consistency(self, query: BPHQuery) -> None:
        """Raise :class:`CAPStateError` on the first violation found by
        :meth:`integrity_issues` (tests + debugging; not on hot paths)."""
        issues = self.integrity_issues(query)
        if issues:
            raise CAPStateError(issues[0])

    def __repr__(self) -> str:
        report = self.size_report()
        return (
            f"CAPIndex(levels={report.num_levels}, "
            f"vertices={report.vertex_entries}, aivs_pairs={report.aivs_pairs}, "
            f"processed_edges={len(self._processed)})"
        )
