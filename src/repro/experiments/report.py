"""Report generation: render experiment tables into EXPERIMENTS.md.

``python -m repro.experiments all --scale small --out EXPERIMENTS.md``
regenerates every paper artifact and writes the paper-vs-measured record:
a header stamped with the commit and the machine, the claim verdicts, and
every table.
"""

from __future__ import annotations

import os
import platform
import subprocess
from collections.abc import Iterable
from pathlib import Path

from repro.experiments.harness import ExperimentTable

__all__ = ["render_markdown", "write_report"]

_HEADER = """\
# EXPERIMENTS — paper vs measured

Regenerated by `python -m repro.experiments all --scale {scale}` at commit
`{commit}` on {box}.

Substrate: emulated datasets at reduced scale (see DESIGN.md, substitution
table); absolute numbers are therefore *not* comparable with the paper's
Java/C++ testbed.  Every qualitative claim (who wins, by roughly what
factor, where the crossovers fall) is a row of the claims table
(`repro.experiments.claims`), checked against the tables below.  A claim's
*rung* is the smallest scale where it must hold: `tiny` rows hold at every
scale, `small` rows are the paper's shapes, `none` rows say why they are
expected nowhere.  The runner exits 1 when a claim expected at its scale
FAILs.

| paper artifact | claim (expected shape) | regenerated by |
|---|---|---|
| Figure 5 | 3-strategy PVS beats forced large-upper-only under IC | exp1 |
| Figure 6(a,b) | pruning shrinks SRT and CAP size | exp2 |
| Figure 7 | BU >> IC >> DR ~ DI (WordNet/DBLP); ~equal on Flickr | exp3 |
| Figure 8 | deferment shrinks CAP construction time (most on WordNet) | exp3 |
| Figure 9 | deferment shrinks peak CAP size | exp3 |
| Figure 10 | CAP time grows with upper bound, then flattens | exp4 |
| Figure 11 | SRT vs upper bound; DR/DI <= IC; all << BU | exp4 |
| Figure 13 | peak CAP size grows with upper bound, stays modest | exp4 |
| §5.2 Remark | static k-neighbourhood index >> CAP, grows with k | exp4 |
| Figure 14 | lower-bound check well under the 5 s budget | exp5 |
| Table 1 | tighten ~ free; loosen ~ delete >> tighten | exp6 |
| Figures 15-17 | IC sensitive to QFS (~2x), DR/DI insensitive | exp7 |
| (extra) | ablations: scan choice, reorder, PML-vs-BFS, evaluators | exp8 |
| (extra) | SRT robustness across simulated user speeds | exp9 |
| Figure 4 (bands) | per-template min/max result sizes | exp10 |

"""


def _provenance() -> tuple[str, str]:
    """(commit, box) stamped on a report: ``git describe`` of this checkout
    (``-dirty`` when the tree has uncommitted changes), and the machine."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    box = (
        f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}"
    )
    return commit or "unknown", box


def render_markdown(tables: Iterable[ExperimentTable], scale: str) -> str:
    """Full EXPERIMENTS.md content for ``tables``, claims verdicts included."""
    from repro.experiments.claims import evaluate_claims, render_claims

    materialized = list(tables)
    sections: dict[str, list[ExperimentTable]] = {}
    for table in materialized:
        sections.setdefault(table.experiment, []).append(table)
    commit, box = _provenance()
    parts = [_HEADER.format(scale=scale, commit=commit, box=box)]
    verdicts = evaluate_claims({t.artifact: t for t in materialized})
    parts.append(render_claims(verdicts, scale))
    for exp_id in sorted(sections):
        parts.append(f"## {exp_id}\n")
        for table in sections[exp_id]:
            parts.append(table.to_markdown())
    return "\n".join(parts)


def write_report(
    tables: Iterable[ExperimentTable], scale: str, path: str | Path
) -> Path:
    """Write the markdown report to ``path``; returns the path."""
    path = Path(path)
    path.write_text(render_markdown(tables, scale), encoding="utf-8")
    return path
