"""The paper's claims: one predicate table over the regenerated artifacts.

Every qualitative statement this reproduction makes about the paper's
evaluation is a row of :data:`CLAIMS`.  A row names its artifact, its
predicate over that artifact's table, and its *rung*: the smallest scale
at which it is expected to hold.

* ``"tiny"`` — holds at every scale: strategy-independent answers, size
  dominance, table structure.  A FAIL is a bug.
* ``"small"`` — the paper's shape (who wins, by roughly what factor).  At
  ``tiny`` the GUI latency windows dwarf the compute and several effects
  vanish by design, so the verdict there is shown but not expected.
* ``None`` — expected nowhere; the statement says why.

``python -m repro.experiments all`` evaluates every row and exits 1 when a
claim expected at the run's scale FAILs; the verdicts head EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.experiments.harness import ExperimentTable

__all__ = ["CLAIMS", "RUNGS", "Claim", "ClaimVerdict", "evaluate_claims", "render_claims"]

Tables = Mapping[str, ExperimentTable]
Check = Callable[[Tables], tuple[bool, str]]

#: Scales in increasing order; a claim is expected at its rung and above.
RUNGS = ("tiny", "small")


@dataclass(frozen=True)
class Claim:
    """One row of the predicate table."""

    claim_id: str
    artifact: str
    rung: str | None
    check: Check
    statement: str


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of checking one paper claim against regenerated tables."""

    claim_id: str
    artifact: str
    statement: str
    passed: bool | None  # None = required table not in this run
    detail: str = ""
    rung: str | None = None

    def expected_at(self, scale: str) -> bool:
        """Whether this claim must hold at ``scale``."""
        return self.rung is not None and RUNGS.index(self.rung) <= RUNGS.index(scale)


# ---------------------------------------------------------------------------
# Table access
# ---------------------------------------------------------------------------
def _cells(table: ExperimentTable, header: str, **where) -> list:
    """Column ``header`` of the rows whose named columns equal ``where``."""
    col = table.headers.index(header)
    keys = {table.headers.index(k): v for k, v in where.items()}
    return [r[col] for r in table.rows if all(r[i] == v for i, v in keys.items())]


def _num(cells) -> list[float]:
    """Numeric cells only ('DNF' and '-' drop out)."""
    return [float(c) for c in cells if isinstance(c, (int, float))]


def _sum(table: ExperimentTable, header: str, **where) -> float:
    return sum(_num(_cells(table, header, **where)))


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _dominated(cells: list, other_total: float) -> tuple[bool, int]:
    """BU-style dominance: some DNF, or the numeric total exceeds 5x ``other_total``."""
    dnfs = sum(1 for c in cells if c == "DNF")
    return dnfs > 0 or sum(_num(cells)) > 5 * other_total, dnfs


def _series(table: ExperimentTable, header: str, dataset: str, query: str) -> list[float]:
    """One (dataset, query) series of an upper-bound sweep, in bound order."""
    uppers = _cells(table, "upper", dataset=dataset, query=query)
    values = _cells(table, header, dataset=dataset, query=query)
    return _num(v for _, v in sorted(zip(uppers, values)))


def _within(values: list[float], factor: float, slack: float) -> bool:
    """Largest within ``factor`` x smallest + ``slack``."""
    return max(values) <= factor * min(values) + slack


def _qfs_spread(table: ExperimentTable, strategy: str) -> tuple[float, float]:
    """(max, max/min) of a strategy's wordnet cells across the QFS rows."""
    values = _num(_cells(table, strategy, dataset="wordnet"))
    return max(values), max(values) / max(min(values), 1e-9)


def _panel(t: Tables, strategy: str, speed: float) -> float:
    (mean,) = _cells(t["User panel"], "mean SRT (ms)", strategy=strategy, speed=speed)
    return float(mean)


def _modification(t: Tables, kind: str, dataset: str | None = None) -> list[float]:
    """Table 1 cells of every ``kind`` column (``tighten``/``loosen``/``delete``)."""
    table = t["Table 1"]
    where = {} if dataset is None else {"dataset": dataset}
    return [
        value
        for header in table.headers
        if header.startswith(kind)
        for value in _num(_cells(table, header, **where))
    ]


# ---------------------------------------------------------------------------
# Predicates, in artifact order
# ---------------------------------------------------------------------------
def _fig5_three_beats_one(t: Tables) -> tuple[bool, str]:
    table = t["Figure 5"]
    three = _num(_cells(table, "3-strategy SRT (ms)"))
    one = _num(_cells(table, "1-strategy SRT (ms)"))
    wins = sum(1 for a, b in zip(three, one) if a <= b * 1.1)
    ok = sum(three) < sum(one) and wins >= len(three) - 1
    return ok, (
        f"aggregate SRT {sum(three):.1f}ms vs {sum(one):.1f}ms; "
        f"{wins}/{len(three)} queries within 1.1x"
    )


def _fig5_forced_queries(t: Tables) -> tuple[bool, str]:
    table = t["Figure 5"]
    (normal,) = _cells(table, "3-strategy dist. queries", query="Q2")
    (forced,) = _cells(table, "1-strategy dist. queries", query="Q2")
    return forced > normal, f"Q2 distance queries: forced {forced} vs 3-strategy {normal}"


def _fig6_pruning(t: Tables) -> tuple[bool, str]:
    srt, size = t["Figure 6(a)"], t["Figure 6(b)"]
    srt_ok = _sum(srt, "pruning SRT (ms)") < _sum(srt, "no-pruning SRT (ms)")
    pruned = _num(_cells(size, "pruning size"))
    unpruned = _num(_cells(size, "no-pruning size"))
    size_ok = all(p <= n for p, n in zip(pruned, unpruned))
    return srt_ok and size_ok, f"SRT ok={srt_ok}, size ok={size_ok}"


def _fig6_size(t: Tables) -> tuple[bool, str]:
    size = t["Figure 6(b)"]
    pruned = _num(_cells(size, "pruning size"))
    unpruned = _num(_cells(size, "no-pruning size"))
    ok = all(p <= n for p, n in zip(pruned, unpruned)) and sum(pruned) < sum(unpruned)
    return ok, f"total size {sum(pruned):.0f} pruned vs {sum(unpruned):.0f} unpruned"


def _fig7_headline(t: Tables) -> tuple[bool, str]:
    table = t["Figure 7"]
    ok, details = True, []
    for dataset in ("wordnet", "dblp"):
        ic, dr, di = (_sum(table, f"{s} (ms)", dataset=dataset) for s in ("IC", "DR", "DI"))
        bu_dominated, dnfs = _dominated(_cells(table, "BU (ms)", dataset=dataset), di)
        ok = ok and bu_dominated and dr < ic and di < ic
        details.append(f"{dataset}: BU DNFs={dnfs}, IC={ic:.0f}ms DR={dr:.0f}ms DI={di:.0f}ms")
    return ok, "; ".join(details)


def _fig7_flickr(t: Tables) -> tuple[bool, str]:
    table = t["Figure 7"]
    totals = [_sum(table, f"{s} (ms)", dataset="flickr") for s in ("IC", "DR", "DI")]
    return _within(totals, 3, 50), "flickr IC/DR/DI " + "/".join(f"{v:.1f}" for v in totals) + "ms"


def _fig7_same_answers(t: Tables) -> tuple[bool, str]:
    cells = _cells(t["Figure 7"], "same answers")
    return all(c == "yes" for c in cells), f"{cells.count('yes')}/{len(cells)} queries agree"


def _fig8_wordnet(t: Tables) -> tuple[bool, str]:
    table = t["Figure 8"]
    ic, dr, di = (_sum(table, f"{s} (ms)", dataset="wordnet") for s in ("IC", "DR", "DI"))
    deferred = _sum(table, "deferred", dataset="wordnet")
    ok = dr < ic and di < ic and deferred > 0
    return ok, (
        f"wordnet CAP time IC={ic:.0f}ms DR={dr:.0f}ms DI={di:.0f}ms, {deferred:.0f} deferred"
    )


def _fig8_flickr(t: Tables) -> tuple[bool, str]:
    table = t["Figure 8"]
    ic, di = (_sum(table, f"{s} (ms)", dataset="flickr") for s in ("IC", "DI"))
    deferred = _sum(table, "deferred", dataset="flickr")
    ok = deferred == 0 and _within([ic, di], 3, 50)
    return ok, f"flickr {deferred:.0f} deferred, CAP time IC={ic:.1f}ms DI={di:.1f}ms"


def _fig9_wordnet(t: Tables) -> tuple[bool, str]:
    table = t["Figure 9"]
    ic = _sum(table, "IC peak", dataset="wordnet")
    dr = _sum(table, "DR peak", dataset="wordnet")
    return dr < ic, f"wordnet peak IC={ic:.0f} DR={dr:.0f}"


def _fig9_bounded(t: Tables) -> tuple[bool, str]:
    table = t["Figure 9"]
    ic = _num(_cells(table, "IC peak"))
    bad = sum(
        1
        for s in ("DR peak", "DI peak")
        for d, i in zip(_num(_cells(table, s)), ic)
        if d > i * 1.25 + 10
    )
    return bad == 0, f"{bad} DR/DI peaks above 1.25x IC + 10"


def _fig9_peak_over_final(t: Tables) -> tuple[bool, str]:
    table = t["Figure 9"]
    peaks = [table.headers.index(h) for h in ("IC peak", "DR peak", "DI peak")]
    final = table.headers.index("final")
    bad = sum(
        1
        for row in table.rows
        if min(row[i] for i in peaks) < 0 or max(row[i] for i in peaks) < row[final]
    )
    return bad == 0, f"{bad}/{len(table.rows)} rows with a peak below the final size"


def _fig10_dblp_q2(t: Tables) -> tuple[bool, str]:
    series = _series(t["Figure 10"], "IC (ms)", "dblp", "Q2")
    grows = bool(series) and series[-1] > series[0]
    flattens = len(series) >= 3 and (series[-1] - series[-2]) <= (series[1] - series[0])
    srt = t["Figure 11"]
    bu_dominated, dnfs = _dominated(_cells(srt, "BU (ms)"), _sum(srt, "DI (ms)"))
    return grows and flattens and bu_dominated, (
        f"dblp/Q2 IC series {['%.0f' % s for s in series]}, BU DNFs={dnfs}"
    )


def _fig10_every_series(t: Tables) -> tuple[bool, str]:
    table = t["Figure 10"]
    shrunk = [
        f"{dataset}/{query}"
        for dataset in ("dblp", "flickr")
        for query in ("Q2", "Q5", "Q6")
        for ic in [_series(table, "IC (ms)", dataset, query)]
        if len(ic) < 3 or ic[-1] < ic[0] * 0.5
    ]
    dblp_q2 = _series(table, "IC (ms)", "dblp", "Q2")
    ok = not shrunk and dblp_q2[-1] > dblp_q2[0]
    return ok, f"series below half their start: {shrunk or 'none'}"


def _fig10_dblp_high_bounds(t: Tables) -> tuple[bool, str]:
    table = t["Figure 10"]
    top = [u >= 5 for u in _cells(table, "upper", dataset="dblp")]
    ic, dr = (
        sum(_num(c for c, keep in zip(_cells(table, h, dataset="dblp"), top) if keep))
        for h in ("IC (ms)", "DR (ms)")
    )
    return dr <= ic * 1.2, f"dblp upper>=5 CAP time IC={ic:.0f}ms DR={dr:.0f}ms"


def _fig11_di_vs_dr(t: Tables) -> tuple[bool, str]:
    table = t["Figure 11"]
    dr, di = _sum(table, "DR (ms)"), _sum(table, "DI (ms)")
    return di <= dr * 1.5 + 50, f"total SRT DI={di:.0f}ms DR={dr:.0f}ms"


def _fig11_sweep(t: Tables) -> tuple[bool, str]:
    table = t["Figure 11"]
    uppers = set(_cells(table, "upper"))
    datasets = set(_cells(table, "dataset"))
    queries = set(_cells(table, "query"))
    ok = {1, 3, 5} <= uppers and datasets == {"dblp", "flickr"} and queries == {"Q2", "Q5", "Q6"}
    return ok, f"uppers {sorted(uppers)}, {sorted(datasets)}, {sorted(queries)}"


def _fig13_grows(t: Tables) -> tuple[bool, str]:
    table = t["Figure 13"]
    shrunk = [
        f"{dataset}/{query}"
        for dataset in ("dblp", "flickr")
        for query in ("Q2", "Q5", "Q6")
        for ic in [_series(table, "IC", dataset, query)]
        if not ic or ic[-1] < ic[0]
    ]
    return not shrunk, f"series whose top-bound peak is below bound 1: {shrunk or 'none'}"


def _fig13_modest(t: Tables) -> tuple[bool, str]:
    table = t["Figure 13"]
    worst = max(_num(_cells(table, "IC")), default=0.0)
    vertices = max(_num(_cells(table, "|V|", dataset="dblp")))
    return worst < 200 * vertices, f"worst IC peak {worst:.0f} vs 200 x {vertices:.0f} vertices"


def _footprint_larger(t: Tables) -> tuple[bool, str]:
    table = t["§5.2 footprint"]
    static, peak = _num(_cells(table, "static entries")), _num(_cells(table, "CAP peak"))
    ratios = [s / max(p, 1) for s, p in zip(static, peak)]
    ok = all(s > p for s, p in zip(static, peak))
    return ok, "static/CAP ratio per k: " + ", ".join(f"{r:.1f}x" for r in ratios)


def _footprint_grows(t: Tables) -> tuple[bool, str]:
    entries = _num(_cells(t["§5.2 footprint"], "static entries"))
    ok = entries == sorted(entries) and entries[-1] > entries[0]
    return ok, "static entries per k: " + ", ".join(f"{e:.0f}" for e in entries)


def _fig14_budget(limit_ms: float) -> Check:
    def check(t: Tables) -> tuple[bool, str]:
        worst = max(_num(_cells(t["Figure 14"], "avg check (ms)")), default=0.0)
        return worst < limit_ms, f"worst per-result check {worst:.1f}ms (budget {limit_ms:.0f}ms)"

    return check


def _fig14_filters(t: Tables) -> tuple[bool, str]:
    table = t["Figure 14"]
    columns = ("query", "lower", "V_P checked", "passed")
    rejected = [
        f"{query}/l{lower}"
        for query, lower, checked, passed in zip(
            *(_cells(table, h, dataset="wordnet") for h in columns)
        )
        if lower >= 2 and passed < checked
    ]
    return bool(rejected), f"wordnet settings rejecting some V_P: {rejected or 'none'}"


def _table1_tighten(t: Tables) -> tuple[bool, str]:
    tighten, loosen = _modification(t, "tighten"), _modification(t, "loosen")
    ok = bool(tighten and loosen) and _mean(tighten) < _mean(loosen)
    return ok, f"mean tighten {_mean(tighten):.1f}ms vs mean loosen {_mean(loosen):.1f}ms"


def _table1_wordnet_costlier(t: Tables) -> tuple[bool, str]:
    wordnet = _mean(_modification(t, "loosen", "wordnet"))
    flickr = _mean(_modification(t, "loosen", "flickr"))
    return wordnet > flickr, f"mean loosen wordnet {wordnet:.1f}ms vs flickr {flickr:.1f}ms"


def _table1_delete(t: Tables) -> tuple[bool, str]:
    worst = max(_modification(t, "delete"), default=0.0)
    return worst < 5000, f"worst delete {worst:.1f}ms (budget 5000ms)"


def _table1_missing(t: Tables) -> tuple[bool, str]:
    cells = _cells(t["Table 1"], "tighten e5 (ms)", query="Q5")
    return bool(cells) and all(c == "-" for c in cells), f"Q5 tighten e5 cells {cells}"


def _qfs_sensitive(artifact: str) -> Check:
    def check(t: Tables) -> tuple[bool, str]:
        ic_max, ic_spread = _qfs_spread(t[artifact], "IC")
        dr_max, dr_spread = _qfs_spread(t[artifact], "DR")
        ok = ic_max > dr_max or ic_spread > dr_spread
        return ok, f"wordnet IC spread {ic_spread:.1f}x vs DR spread {dr_spread:.1f}x"

    return check


def _fig16_same_answers(t: Tables) -> tuple[bool, str]:
    table = t["Figure 16"]
    answers: dict[tuple[str, str], set] = {}
    for dataset, tag, answer in zip(
        _cells(table, "dataset"), _cells(table, "query+QFS"), _cells(table, "answer sha256")
    ):
        answers.setdefault((dataset, tag.split("S")[0]), set()).add(answer)
    split = sorted(f"{d}/{q}" for (d, q), digests in answers.items() if len(digests) > 1)
    return not split, f"queries whose answer depends on the QFS: {split or 'none'}"


def _fig17_worst_peak(t: Tables) -> tuple[bool, str]:
    table = t["Figure 17"]
    over = [
        f"{dataset}/{s}"
        for dataset in sorted(set(_cells(table, "dataset")))
        for ic in [max(_num(_cells(table, "IC", dataset=dataset)))]
        for s in ("DR", "DI")
        if max(_num(_cells(table, s, dataset=dataset))) > ic * 1.05 + 10
    ]
    return not over, f"worst peaks above 1.05x IC's worst + 10: {over or 'none'}"


def _user_panel(t: Tables) -> tuple[bool, str]:
    ic_spread = _panel(t, "IC", 0.5) - _panel(t, "IC", 2.0)
    dr_spread = abs(_panel(t, "DR", 0.5) - _panel(t, "DR", 2.0))
    ok = ic_spread > 0 and dr_spread < ic_spread
    return ok, f"fast-minus-slow SRT: IC {ic_spread:+.3f}ms, DR {dr_spread:.3f}ms either way"


def _ablation_scan(t: Tables) -> tuple[bool, str]:
    table = t["Ablation A"]
    model = _cells(table, "cost-model")
    forced = zip(_cells(table, "forced in-scan"), _cells(table, "forced out-scan"))
    best = [min(a, b) for a, b in forced]
    worst = max(m / max(b, 1e-9) for m, b in zip(model, best))
    ok = all(m <= b * 2 + 15 for m, b in zip(model, best))
    return ok, f"cost model / best forced <= {worst:.2f}x"


def _ablation_reorder(t: Tables) -> tuple[bool, str]:
    reordered, drawn = (_cells(t["Ablation B"], h) for h in ("matches (re)", "matches (draw)"))
    return reordered == drawn, f"matches reordered {reordered} vs drawing order {drawn}"


def _ablation_oracle(t: Tables) -> tuple[bool, str]:
    matches = _cells(t["Ablation C"], "matches")
    return len(set(matches)) == 1, f"matches per oracle {matches}"


def _ablation_evaluators(t: Tables) -> tuple[bool, str]:
    table = t["Ablation D"]
    di = _sum(table, "blended DI")
    dj, bu = _cells(table, "distance join"), _cells(table, "BU")
    dj_ok = "DNF" in dj or di < sum(_num(dj))
    bu_ok = "DNF" in bu or di < sum(_num(bu))
    return dj_ok and bu_ok, (
        f"total SRT DI={di:.1f}ms, distance join={sum(_num(dj)):.0f}ms, BU={sum(_num(bu)):.0f}ms "
        f"({bu.count('DNF')} BU DNFs)"
    )


CLAIMS: tuple[Claim, ...] = (
    Claim("C1", "Figure 5", "small", _fig5_three_beats_one,
          "3-strategy PVS beats forced large-upper-only under IC (aggregate, and all but one "
          "query within 1.1x)"),
    Claim("C10", "Figure 5", "tiny", _fig5_forced_queries,
          "the forced large-upper arm issues more distance queries (Q2)"),
    Claim("C2", "Figure 6(a)", "small", _fig6_pruning,
          "pruning shrinks both SRT and CAP size"),
    Claim("C11", "Figure 6(b)", "tiny", _fig6_size,
          "pruned CAP size <= unpruned on every query, smaller in total"),
    Claim("C3", "Figure 7", "small", _fig7_headline,
          "BU >> blended; deferment beats IC on WordNet/DBLP"),
    Claim("C12", "Figure 7", "small", _fig7_flickr,
          "on Flickr IC, DR and DI SRT totals lie within 3x + 50 ms"),
    Claim("C13", "Figure 7", "tiny", _fig7_same_answers,
          "IC, DR and DI return the same V_delta on every query"),
    Claim("C4", "Figure 8", "small", _fig8_wordnet,
          "deferment shrinks CAP construction time on WordNet (DR and DI < IC, edges deferred)"),
    Claim("C14", "Figure 8", "small", _fig8_flickr,
          "on Flickr nothing is deferred and IC/DI CAP time lie within 3x + 50 ms"),
    Claim("C5", "Figure 9", "small", _fig9_wordnet,
          "deferment shrinks peak CAP size on WordNet"),
    Claim("C15", "Figure 9", "tiny", _fig9_bounded,
          "every DR/DI peak <= 1.25x IC's + 10"),
    Claim("C16", "Figure 9", "tiny", _fig9_peak_over_final,
          "every peak is >= 0 and the largest is >= the final size"),
    Claim("C6", "Figure 10", "small", _fig10_dblp_q2,
          "cost grows with the upper bound then flattens; all << BU"),
    Claim("C17", "Figure 10", "small", _fig10_every_series,
          "every IC series ends >= half its start; dblp/Q2 ends above it"),
    Claim("C18", "Figure 10", "small", _fig10_dblp_high_bounds,
          "on DBLP at upper >= 5, DR CAP time <= 1.2x IC's"),
    Claim("C19", "Figure 11", "small", _fig11_di_vs_dr,
          "DI total SRT <= 1.5x DR's + 50 ms"),
    Claim("C20", "Figure 11", "tiny", _fig11_sweep,
          "the sweep covers upper {1,3,5}, dblp + flickr, Q2/Q5/Q6"),
    Claim("C21", "Figure 13", "small", _fig13_grows,
          "peak CAP size at the top bound >= at bound 1, every series"),
    Claim("C22", "Figure 13", "tiny", _fig13_modest,
          "worst peak CAP size < 200x the dblp vertex count (fits a modern machine)"),
    Claim("C23", "§5.2 footprint", "small", _footprint_larger,
          "a static k-neighbourhood index outsizes the peak CAP at every k"),
    Claim("C24", "§5.2 footprint", "tiny", _footprint_grows,
          "the static k-neighbourhood index grows with k"),
    Claim("C7", "Figure 14", "tiny", _fig14_budget(5000),
          "lower-bound check well under the 5s budget"),
    Claim("C25", "Figure 14", "small", _fig14_budget(1000),
          "lower-bound check under 1 s per result (comfortably interactive)"),
    Claim("C26", "Figure 14", None, _fig14_filters,
          "with lower >= 2 some WordNet V_P fails the check (no rung: whether a sampled V_P is "
          "rejected depends on the label draw)"),
    Claim("C8", "Table 1", "small", _table1_tighten,
          "tighten is far cheaper than loosen"),
    Claim("C27", "Table 1", "small", _table1_wordnet_costlier,
          "loosen costs more on WordNet than on Flickr"),
    Claim("C28", "Table 1", "tiny", _table1_delete,
          "the worst delete rollback stays under 5 s"),
    Claim("C29", "Table 1", "tiny", _table1_missing,
          "edges a template lacks read '-' (Q5 has no e5)"),
    Claim("C30", "Figure 15", "small", _qfs_sensitive("Figure 15"),
          "IC's CAP construction time is QFS-sensitive; deferment's is not"),
    Claim("C9", "Figure 16", "small", _qfs_sensitive("Figure 16"),
          "IC is QFS-sensitive; deferment is not"),
    Claim("C31", "Figure 16", "tiny", _fig16_same_answers,
          "the answer does not depend on the formulation sequence"),
    Claim("C32", "Figure 17", "tiny", _fig17_worst_peak,
          "deferment's worst peak over the QFS <= 1.05x IC's worst + 10"),
    Claim("C33", "User panel", "small", _user_panel,
          "IC's SRT grows for fast users; DR's moves less than IC's"),
    Claim("C34", "Ablation A", "small", _ablation_scan,
          "the cost-model scan is within 2x + 15 ms of the better forced scan"),
    Claim("C35", "Ablation B", "tiny", _ablation_reorder,
          "reordered and drawing-order enumeration find the same matches"),
    Claim("C36", "Ablation C", "tiny", _ablation_oracle,
          "PML and BFS oracles give the same matches"),
    Claim("C37", "Ablation D", "small", _ablation_evaluators,
          "blended DI beats the distance join and BU in total SRT (or they DNF)"),
)


def evaluate_claims(tables: Tables) -> list[ClaimVerdict]:
    """Check every claim; a claim whose artifact is not in ``tables`` reads None."""
    verdicts: list[ClaimVerdict] = []
    for claim in CLAIMS:
        if claim.artifact not in tables:
            passed, detail = None, "table not in this run"
        else:
            passed, detail = claim.check(tables)
        verdicts.append(ClaimVerdict(
            claim.claim_id, claim.artifact, claim.statement, passed, detail, claim.rung
        ))
    return verdicts


def render_claims(verdicts: list[ClaimVerdict], scale: str) -> str:
    """Markdown verdict section; a FAIL expected at ``scale`` is marked so."""
    failing = [v.claim_id for v in verdicts if v.passed is False and v.expected_at(scale)]
    lines = [
        "## Claim verdicts",
        "",
        f"Expected at `{scale}` and failing: {', '.join(failing) or 'none'}.",
        "",
        "| claim | artifact | statement | expected from | verdict | evidence |",
        "|---|---|---|---|---|---|",
    ]
    for verdict in verdicts:
        mark = "—" if verdict.passed is None else ("PASS" if verdict.passed else "FAIL")
        lines.append(
            f"| {verdict.claim_id} | {verdict.artifact} | {verdict.statement} "
            f"| {verdict.rung or 'none'} | {mark} | {verdict.detail} |"
        )
    lines.append("")
    return "\n".join(lines)
