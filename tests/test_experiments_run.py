"""Experiment runs at tiny scale: the whole runner once, exp9 through the
module API.

``python -m repro.experiments all --scale tiny`` is the structure check of
the evaluation layer: every registered artifact is produced, every claim of
:mod:`repro.experiments.claims` is evaluated, and every claim expected at
``tiny`` holds.  The paper's shapes are expected at ``small``; the nightly
claims job runs that rung.
"""

import contextlib
import io
from unittest import mock

import pytest

from repro.core.cost import GUILatencyConstants
from repro.core.preprocessor import make_context, preprocess
from repro.experiments import EXPERIMENT_REGISTRY, get_experiment
from repro.experiments import __main__ as cli
from repro.experiments.claims import ClaimVerdict, evaluate_claims
from repro.graph.generators import wordnet_like
from repro.gui.session import VisualSession
from repro.workload.generator import instantiate


@pytest.fixture(scope="module")
def exp9_tables():
    return get_experiment("exp9").run(scale="tiny")


class TestExp9Run:
    def test_one_table(self, exp9_tables):
        assert len(exp9_tables) == 1
        table = exp9_tables[0]
        assert table.experiment == "exp9"
        assert table.headers[0] == "strategy"

    def test_covers_all_strategies_and_speeds(self, exp9_tables):
        rows = exp9_tables[0].rows
        strategies = {row[0] for row in rows}
        speeds = {row[1] for row in rows}
        assert strategies == {"IC", "DR", "DI"}
        assert speeds == {0.5, 1.0, 2.0}
        assert len(rows) == 9

    def test_min_le_mean_le_max(self, exp9_tables):
        for row in exp9_tables[0].rows:
            _, _, mean, low, high = row
            assert low <= mean <= high

    def test_render_and_markdown(self, exp9_tables):
        table = exp9_tables[0]
        assert "User panel" in table.render()
        assert "| strategy |" in table.to_markdown()


def test_all_at_tiny_produces_every_artifact_and_claim(tmp_path):
    out = tmp_path / "EXPERIMENTS.tiny.md"
    seen: dict = {}

    def spy(tables):
        seen["artifacts"] = set(tables)
        seen["verdicts"] = evaluate_claims(tables)
        return seen["verdicts"]

    printed = io.StringIO()
    with mock.patch.object(cli, "evaluate_claims", spy), contextlib.redirect_stdout(printed):
        code = cli.main(["all", "--scale", "tiny", "--out", str(out)])
    assert code == 0
    report = out.read_text(encoding="utf-8")
    assert "paper vs measured" in report and "## Claim verdicts" in report
    assert "User panel" in printed.getvalue()
    registered = {a for cls in EXPERIMENT_REGISTRY.values() for a in cls.artifacts}
    assert seen["artifacts"] == registered
    for artifact in registered:
        assert f"#### {artifact} —" in report, artifact
    unevaluated = [v.claim_id for v in seen["verdicts"] if v.passed is None]
    assert not unevaluated
    failing = [(v.claim_id, v.detail) for v in seen["verdicts"] if v.expected_at("tiny") and not v.passed]
    assert not failing


@pytest.mark.parametrize("rung, code", [("tiny", 1), ("small", 0), (None, 0)])
def test_exit_code_follows_the_claims_expected_at_the_scale(rung, code):
    verdict = ClaimVerdict("C0", "Figure 0", "stmt", False, "d", rung)
    with mock.patch.object(cli, "_run_ids", return_value=[]), mock.patch.object(
        cli, "evaluate_claims", return_value=[verdict]
    ), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "exp9", "--scale", "tiny"]) == code


def test_cap_and_pml_labels_scale_gently():
    """Over a 200 -> 400 vertex WordNet analog, a session's CAP stays under
    60 x |V| and the average PML label grows clearly sublinearly in |V|."""
    sizes = []
    for n in (200, 400):
        graph = wordnet_like(n, seed=5)
        pre = preprocess(graph, t_avg_samples=2000)
        latency = GUILatencyConstants().scaled(0.02)
        session = VisualSession(make_context(pre, latency=latency), latency)
        instance = instantiate("Q2", graph, seed=3, dataset=f"wn{n}")
        result = session.run(instance, strategy="DI", max_results=10_000)
        assert result.cap_size < 60 * graph.num_vertices
        sizes.append((graph.num_vertices, pre.pml.average_label_size()))
    (n0, label0), (n1, label1) = sizes
    assert label1 / max(label0, 1e-9) < (n1 / n0) * 0.75
