"""Tests for the claim-verdict machinery (synthetic tables)."""

from repro.experiments.claims import (
    CLAIMS,
    RUNGS,
    ClaimVerdict,
    evaluate_claims,
    render_claims,
)
from repro.experiments.harness import ExperimentTable

SWEEP = [(d, q, u) for d in ("dblp", "flickr") for q in ("Q2", "Q5", "Q6") for u in (1, 3, 5)]
QFS = [("wordnet", "Q1S1"), ("wordnet", "Q1S3")]


def _table(artifact, headers, rows):
    return ExperimentTable(
        experiment="expX", artifact=artifact, title=artifact, headers=headers, rows=rows
    )


def make_passing_tables():
    """One table per artifact, shaped so that every claim holds."""
    ic_time, dr_time, ic_size = {1: 1.0, 3: 50.0, 5: 60.0}, {1: 1.0, 3: 30.0, 5: 35.0}, {1: 10, 3: 100, 5: 200}
    tables = [
        _table(
            "Figure 5",
            ["query", "3-strategy SRT (ms)", "1-strategy SRT (ms)", "speedup",
             "3-strategy dist. queries", "1-strategy dist. queries", "|V_delta|"],
            [["Q2", 1.0, 10.0, 10.0, 0, 50, 5]],
        ),
        _table(
            "Figure 6(a)",
            ["query", "pruning SRT (ms)", "no-pruning SRT (ms)", "ratio"],
            [["Q1", 1.0, 5.0, 5.0]],
        ),
        _table(
            "Figure 6(b)",
            ["query", "pruning size", "no-pruning size", "ratio"],
            [["Q1", 10, 50, 5.0]],
        ),
        _table(
            "Figure 7",
            ["dataset", "query", "BU (ms)", "IC (ms)", "DR (ms)", "DI (ms)", "|V_delta|", "same answers"],
            [
                ["wordnet", "Q1", "DNF", 100.0, 10.0, 9.0, 5, "yes"],
                ["dblp", "Q1", 900.0, 100.0, 10.0, 9.0, 5, "yes"],
                ["flickr", "Q1", 9.0, 1.0, 1.0, 1.0, 5, "yes"],
            ],
        ),
        _table(
            "Figure 8",
            ["dataset", "query", "IC (ms)", "DR (ms)", "DI (ms)", "deferred"],
            [["wordnet", "Q1", 100.0, 10.0, 9.0, 1], ["flickr", "Q1", 2.0, 2.0, 2.0, 0]],
        ),
        _table(
            "Figure 9",
            ["dataset", "query", "IC peak", "DR peak", "DI peak", "final"],
            [["wordnet", "Q1", 1000, 100, 100, 100]],
        ),
        _table(
            "Figure 10",
            ["dataset", "query", "upper", "IC (ms)", "DR (ms)", "DI (ms)"],
            [[d, q, u, ic_time[u], dr_time[u], dr_time[u]] for d, q, u in SWEEP],
        ),
        _table(
            "Figure 11",
            ["dataset", "query", "upper", "BU (ms)", "IC (ms)", "DR (ms)", "DI (ms)"],
            [[d, q, u, "DNF", 50.0, 30.0, 30.0] for d, q, u in SWEEP],
        ),
        _table(
            "Figure 13",
            ["dataset", "query", "upper", "IC", "DR", "DI", "|V|"],
            [[d, q, u, ic_size[u], ic_size[u], ic_size[u], 1000] for d, q, u in SWEEP],
        ),
        _table(
            "§5.2 footprint",
            ["k", "static entries", "CAP peak", "ratio"],
            [[1, 100, 10, 10.0], [2, 300, 20, 15.0]],
        ),
        _table(
            "Figure 14",
            ["dataset", "query", "lower", "avg check (ms)", "V_P checked", "passed"],
            [["wordnet", "Q2", 2, 1.5, 10, 8]],
        ),
        _table(
            "Table 1",
            ["dataset", "query", "delete e1 (ms)", "tighten e3 (ms)", "tighten e5 (ms)", "loosen e3 (ms)"],
            [["wordnet", "Q5", 100.0, 1.0, "-", 500.0], ["flickr", "Q5", 10.0, 0.5, "-", 50.0]],
        ),
        _table(
            "Figure 15",
            ["dataset", "query+QFS", "IC", "DR", "DI"],
            [[d, q, ic, 5.0, 5.0] for (d, q), ic in zip(QFS, (50.0, 10.0))],
        ),
        _table(
            "Figure 16",
            ["dataset", "query+QFS", "IC", "DR", "DI", "|V_delta|", "answer sha256"],
            [[d, q, ic, 10.0, 10.0, 7, "9f86d081884c"] for (d, q), ic in zip(QFS, (100.0, 10.0))],
        ),
        _table(
            "Figure 17",
            ["dataset", "query+QFS", "IC", "DR", "DI"],
            [[d, q, ic, 100, 100] for (d, q), ic in zip(QFS, (1000, 100))],
        ),
        _table(
            "User panel",
            ["strategy", "speed", "mean SRT (ms)", "min (ms)", "max (ms)"],
            [["IC", 0.5, 9.0, 9.0, 9.0], ["IC", 2.0, 3.0, 3.0, 3.0],
             ["DR", 0.5, 2.0, 2.0, 2.0], ["DR", 2.0, 2.0, 2.0, 2.0]],
        ),
        _table(
            "Ablation A",
            ["query", "cost-model", "forced in-scan", "forced out-scan"],
            [["Q1", 2.0, 9.0, 2.0]],
        ),
        _table(
            "Ablation B",
            ["query", "reordered", "drawing order", "matches (re)", "matches (draw)"],
            [["Q1", 1.0, 5.0, 40, 40]],
        ),
        _table("Ablation C", ["oracle", "CAP time (ms)", "matches"], [["PML", 1.0, 40], ["BFS (memoized)", 90.0, 40]]),
        _table(
            "Ablation D",
            ["query", "BU", "distance join", "blended DI", "matches"],
            [["Q1", "DNF", 100.0, 1.0, 40]],
        ),
    ]
    return {table.artifact: table for table in tables}


def test_all_claims_pass_on_synthetic_tables():
    verdicts = evaluate_claims(make_passing_tables())
    assert len(verdicts) == len(CLAIMS)
    assert all(v.passed for v in verdicts), [
        (v.claim_id, v.detail) for v in verdicts if not v.passed
    ]


def test_every_claim_has_a_rung_or_says_why_not():
    assert len({claim.claim_id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.rung in RUNGS or (claim.rung is None and "no rung:" in claim.statement)


def test_expected_from_the_rung_up():
    tiny = ClaimVerdict("C", "a", "s", True, rung="tiny")
    small = ClaimVerdict("C", "a", "s", True, rung="small")
    nowhere = ClaimVerdict("C", "a", "s", True, rung=None)
    assert tiny.expected_at("tiny") and tiny.expected_at("small")
    assert not small.expected_at("tiny") and small.expected_at("small")
    assert not nowhere.expected_at("small")


def test_missing_tables_yield_none():
    verdicts = evaluate_claims({})
    assert all(v.passed is None for v in verdicts)


def test_failing_claim_detected():
    tables = make_passing_tables()
    tables["Figure 5"].rows[0][1:3] = [10.0, 1.0]
    verdicts = {v.claim_id: v for v in evaluate_claims(tables)}
    assert verdicts["C1"].passed is False
    assert verdicts["C2"].passed is True


def test_c31_compares_answers_not_counts():
    tables = make_passing_tables()
    tables["Figure 16"].rows[1][-1] = "60303ae22b99"  # the same |V_delta|, other rows
    verdicts = {v.claim_id: v for v in evaluate_claims(tables)}
    assert verdicts["C31"].passed is False


def test_render_claims_marks():
    verdicts = [
        ClaimVerdict("C1", "Figure 5", "stmt", True, "d", "small"),
        ClaimVerdict("C2", "Figure 6(a)", "stmt", False, "d", "small"),
        ClaimVerdict("C3", "Figure 7", "stmt", None, "d", "tiny"),
    ]
    text = render_claims(verdicts, "small")
    assert "PASS" in text and "FAIL" in text
    assert "Expected at `small` and failing: C2." in text
    assert "Expected at `tiny` and failing: none." in render_claims(verdicts, "tiny")
    assert text.count("|") > 10


def test_report_includes_verdicts():
    from repro.experiments.report import render_markdown

    tables = list(make_passing_tables().values())
    text = render_markdown(tables, "small")
    assert "## Claim verdicts" in text
    assert "PASS" in text
    assert "at commit\n`" in text and "CPUs" in text
