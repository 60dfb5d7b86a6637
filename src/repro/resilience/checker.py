"""CAP index integrity auditing and quarantine-based repair.

Bit-rot, a crashed writer, or a buggy cache layer can corrupt CAP entries
in ways ordinary exception handling never sees: an AIVS pair dropped in one
direction only, a candidate deleted while neighbors still reference it, a
bogus pair whose endpoints violate the edge's upper bound.  Left alone,
each silently *changes query answers* — the worst failure mode an
interactive engine can have.

:class:`CAPInvariantChecker` makes corruption a detected, typed, repairable
event:

* :meth:`audit` runs the structural invariants of
  :meth:`repro.core.cap.CAPIndex.integrity_issues` plus (when a context is
  supplied) a seeded spot-check that sampled AIVS pairs actually satisfy
  their edge's upper bound through the distance oracle;
* :meth:`repair` quarantines each corrupted query-edge entry by rolling
  back its processed component (the same Algorithm 5 machinery query
  modification uses — see :func:`repro.core.modification.quarantine_edge`),
  re-pools the edges, rebuilds them, and re-audits;
* an unrepairable index raises :class:`~repro.errors.CAPCorruptionError`,
  which the degradation ladder turns into a BU-baseline fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.cap import CAPIndex, in_sorted
from repro.core.context import EngineContext
from repro.core.query import BPHQuery, canonical_edge
from repro.errors import CAPCorruptionError, CAPStateError
from repro.utils.rng import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.blender import BlenderEngine

__all__ = ["CAPAuditReport", "CAPRepairReport", "CAPInvariantChecker"]


@dataclass
class CAPAuditReport:
    """Outcome of one integrity audit."""

    #: Canonical keys of query edges whose CAP entries are corrupt.
    corrupt_edges: list[tuple[int, int]] = field(default_factory=list)
    #: Human-readable description of each violation found.
    issues: list[str] = field(default_factory=list)
    edges_checked: int = 0
    pairs_sampled: int = 0

    @property
    def clean(self) -> bool:
        """True when no violation was found."""
        return not self.issues

    def note(self, edge: tuple[int, int] | None, message: str) -> None:
        """Record one violation (edge may be None for level-scoped issues)."""
        self.issues.append(message)
        if edge is not None:
            key = canonical_edge(*edge)
            if key not in self.corrupt_edges:
                self.corrupt_edges.append(key)


@dataclass
class CAPRepairReport:
    """What a quarantine + rebuild pass did."""

    quarantined: list[tuple[int, int]] = field(default_factory=list)
    dropped_stale: list[tuple[int, int]] = field(default_factory=list)
    rebuilt_edges: int = 0


class CAPInvariantChecker:
    """Validates CAP integrity and rebuilds corrupted query-edge entries.

    Parameters
    ----------
    sample_pairs:
        Upper-bound spot-check budget per processed edge: how many AIVS
        pairs to re-validate through the oracle.  0 disables oracle checks
        (structural audit only).
    seed:
        Seed for the sampling RNG — audits are deterministic.
    """

    def __init__(self, sample_pairs: int = 16, seed: int = 0) -> None:
        self.sample_pairs = sample_pairs
        self.seed = seed

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(
        self,
        cap: CAPIndex,
        query: BPHQuery,
        ctx: EngineContext | None = None,
    ) -> CAPAuditReport:
        """Check ``cap`` against ``query``; never raises, returns findings."""
        report = CAPAuditReport()
        for edge, message in cap.integrity_issues(query):
            report.note(edge, message)
        if ctx is not None and self.sample_pairs > 0:
            self._spot_check_bounds(cap, query, ctx, report)
        report.edges_checked = len(cap.processed_edges())
        return report

    def _spot_check_bounds(
        self,
        cap: CAPIndex,
        query: BPHQuery,
        ctx: EngineContext,
        report: CAPAuditReport,
    ) -> None:
        """Sampled oracle validation: AIVS pairs must satisfy the upper bound."""
        rng = seeded_rng(self.seed)
        for qi, qj in sorted(cap.processed_edges()):
            if not query.has_edge(qi, qj):
                continue  # already flagged structurally
            upper = query.edge_between(qi, qj).upper
            try:
                block = cap.pairs(qi, qj)
            except CAPStateError:
                continue  # a missing direction: already flagged structurally
            # Pairs of live candidates only; strangers are flagged structurally.
            pairs = block[in_sorted(cap.candidates(qi), block[:, 0])].tolist()
            if len(pairs) > self.sample_pairs:
                pairs = rng.sample(pairs, self.sample_pairs)
            for vi, vj in pairs:
                report.pairs_sampled += 1
                try:
                    valid = ctx.within(vi, vj, upper)
                except Exception as exc:
                    # A pair the oracle cannot even evaluate (e.g. a bogus
                    # vertex id the graph has never seen) is corrupt by
                    # definition; an oracle crash mid-audit also lands
                    # here, and the subsequent repair/rebuild — or the
                    # degradation ladder — sorts out which it was.
                    report.note(
                        (qi, qj),
                        f"AIVS pair ({vi}, {vj}) of edge ({qi}, {qj}) "
                        f"unverifiable: {type(exc).__name__}: {exc}",
                    )
                    continue
                if not valid:
                    report.note(
                        (qi, qj),
                        f"AIVS pair ({vi}, {vj}) of edge ({qi}, {qj}) violates "
                        f"upper bound {upper}",
                    )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def repair(
        self,
        engine: "BlenderEngine",
        report: CAPAuditReport | None = None,
    ) -> CAPRepairReport:
        """Quarantine + rebuild every corrupted entry; re-audit afterwards.

        Raises :class:`CAPCorruptionError` when the index is still dirty
        after the rebuild (e.g. the oracle died mid-repair), so callers can
        step down the degradation ladder.
        """
        from repro.core.modification import quarantine_edge

        if report is None:
            report = self.audit(engine.cap, engine.query, engine.ctx)
        repair = CAPRepairReport()
        if report.clean:
            return repair

        if not report.corrupt_edges:
            # Violations not attributable to a specific edge (e.g. a level
            # inconsistency): structural state is untrustworthy wholesale.
            raise CAPCorruptionError(
                "CAP integrity violated with no repairable edge entry: "
                + "; ".join(report.issues[:3]),
            )

        for key in report.corrupt_edges:
            if not engine.query.has_edge(*key):
                # Stale entry for an edge the query no longer has.
                engine.cap.drop_edge(*key)
                repair.dropped_stale.append(key)
            elif engine.cap.is_processed(*key):
                quarantine_edge(engine, *key)
                repair.quarantined.append(key)
            # else: an earlier quarantine already rolled this edge back
            # (same processed component) — the pool rebuild covers it.

        repair.rebuilt_edges = engine.drain_pool()

        post = self.audit(engine.cap, engine.query, engine.ctx)
        if not post.clean:
            raise CAPCorruptionError(
                "CAP repair failed; index still corrupt after rebuild: "
                + "; ".join(post.issues[:3]),
                corrupt_edges=post.corrupt_edges,
            )
        return repair
