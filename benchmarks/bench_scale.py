"""Scale ladder over the storage backends — emits ``BENCH_scale.json``.

Climbs the dataset-registry presets from test scale toward the paper's
real dimensions and, at every rung, serves the same formulation over
both :mod:`repro.storage` backends, each brought up the way ``repro
serve`` brings it up (:func:`repro.service.open_host`):

* **build** — graph generation + PML + two-hop, timed (the one-time cost
  the on-disk basis amortizes away across restarts);
* **basis** — the fully-resident footprint (``EngineBasis.nbytes()``);
* **serve** — one scripted session per arm: ``resident`` over the heap
  bundle and ``mmap`` over the registry's saved basis directory opened
  in place.  Recorded are the time to bring the host up, SRT and the
  hosting process' peak RSS after the arm, asserting the matches are
  byte-identical everywhere (the conformance invariant at bench scale).
  No arm has a cache to size: a stored index reads its label columns
  where they lie (``docs/STORAGE.md``), so what the mmap arm keeps
  resident is whatever pages the kernel decides to.

The ``flickr/paper`` rung (1.8M vertices, ~23M edges) is hours of
pure-Python PML construction, so it only joins the ladder when
``REPRO_BENCH_PAPER=1`` — the ``scale-nightly`` CI job runs the largest
rung that fits its memory, and the artifact records which rungs ran so
a truncated ladder is never mistaken for a full one.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

from repro.core.actions import NewEdge, NewVertex
from repro.datasets.registry import clear_memory_cache, get_dataset
from repro.gui.recording import action_to_dict
from repro.service import ServeConfig, open_host
from repro.storage import basis_from_context

#: (dataset, scale) rungs, smallest first.  The paper rung is env-gated.
STEPS: tuple[tuple[str, str], ...] = (
    ("wordnet", "tiny"),
    ("flickr", "tiny"),
    ("flickr", "small"),
)
PAPER_STEP = ("flickr", "paper")
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"


def _steps() -> tuple[tuple[str, str], ...]:
    if os.environ.get("REPRO_BENCH_PAPER") == "1":
        return STEPS + (PAPER_STEP,)
    return STEPS


def _script(graph) -> list:
    """A tiny two-vertex formulation using the dataset's own labels."""
    labels = graph.labels()
    a = labels[0]
    b = next((lab for lab in labels if lab != a), a)
    return [
        NewVertex(0, a),
        NewVertex(1, b),
        NewEdge(0, 1, 1, 2),
    ]


def _serve_once(backend, actions) -> tuple[float, object]:
    """One session of the script; (SRT seconds, the ``matches`` block)."""
    sid = backend.dispatch({"op": "create_session", "strategy": "DI"})["session"]
    for action in actions:
        backend.dispatch(
            {"op": "action", "session": sid, "action": action_to_dict(action)}
        )
    run = backend.dispatch({"op": "run", "session": sid})
    matches = backend.dispatch({"op": "matches", "session": sid})["matches"]
    return run["srt_seconds"], matches


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench_step(name: str, scale: str, tmp_root: Path) -> dict:
    clear_memory_cache()
    t0 = time.perf_counter()
    bundle = get_dataset(name, scale)
    build_seconds = time.perf_counter() - t0

    ctx = bundle.make_context()
    basis = basis_from_context(ctx)
    actions = _script(bundle.graph)

    row: dict = {
        "dataset": name,
        "scale": scale,
        "num_vertices": bundle.graph.num_vertices,
        "num_edges": bundle.graph.num_edges,
        "build_seconds": round(build_seconds, 4),
        "basis_nbytes": basis.nbytes(),
        "arms": {},
    }

    # The registry's cache entry is the basis the mmap arm opens in place
    # (a read-only cache dir leaves none: save a private one instead).
    basis_dir = str(bundle.basis_dir or tmp_root / f"{name}-{scale}.basis")
    configs = {
        "resident": ServeConfig(),
        "mmap": ServeConfig(storage="mmap", storage_dir=basis_dir),
    }
    matches_by_arm: dict[str, object] = {}
    for arm, config in configs.items():
        t0 = time.perf_counter()
        backend = open_host(ctx, config)
        open_seconds = time.perf_counter() - t0
        try:
            srt, matches = _serve_once(backend, actions)
        finally:
            backend.close()
        matches_by_arm[arm] = matches
        row["arms"][arm] = {
            "open_seconds": round(open_seconds, 4),
            "srt_seconds": round(srt, 6),
            "num_matches": len(matches),
            "peak_rss_bytes": _peak_rss_bytes(),
        }

    reference = matches_by_arm["resident"]
    for arm, matches in matches_by_arm.items():
        assert matches == reference, (
            f"{name}/{scale}: {arm} matches diverged from resident"
        )
    row["matches_identical"] = True
    return row


def test_scale_ladder(tmp_path: Path) -> None:
    rows = [bench_step(name, scale, tmp_path) for name, scale in _steps()]
    payload = {
        "paper_rung_included": os.environ.get("REPRO_BENCH_PAPER") == "1",
        "cpu_count": os.cpu_count(),
        "steps": rows,
    }
    OUTPUT.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":  # pragma: no cover - manual runs
    import tempfile

    test_scale_ladder(Path(tempfile.mkdtemp(prefix="bench-scale-")))
