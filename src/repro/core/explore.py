"""Exploratory-search helpers over a live CAP index.

The paper argues the blended paradigm "opens up opportunities to enhance
usability of graph databases (e.g., exploratory search)" (Section 1, citing
PICASSO).  With a partially formulated query, the CAP index already knows
which candidates are alive (the live level ``cap.candidates(q)`` of every
query vertex is Fan et al.'s maximum match ``S_M``, the paper's footnote
6) — so the GUI can *guide* the user:

* :func:`suggest_extension_labels` — ranked labels for the *next* vertex
  the user might attach to query vertex ``q``: labels found among the data
  neighbors of ``q``'s live candidates.  Drawing a suggested label with a
  bound-1 edge leaves both touched CAP levels non-empty (an *unsuggested*
  label would prune the new level to nothing immediately); whether complete
  matches survive still depends on the rest of the query's constraints.
* :func:`estimate_selectivity` — how much each live level has already been
  pruned (a proxy for how "decided" each query vertex is).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable

from repro.core.blender import BlenderEngine
from repro.errors import CAPStateError

__all__ = ["suggest_extension_labels", "estimate_selectivity"]

Label = Hashable


def suggest_extension_labels(
    engine: BlenderEngine, query_vertex: int, top_k: int = 5
) -> list[tuple[Label, int]]:
    """Ranked ``(label, support)`` suggestions for extending ``query_vertex``.

    ``support`` counts live candidates of ``query_vertex`` having at least
    one data neighbor with that label; a label with support 0 would prune
    the level empty if attached with bounds [1, 1].  Data vertices already
    used as the level's own label are included — self-label extensions are
    legitimate (e.g. author-author collaboration patterns).
    """
    if not engine.cap.has_level(query_vertex):
        raise CAPStateError(f"query vertex {query_vertex} has no CAP level")
    graph = engine.ctx.graph
    support: Counter[Label] = Counter()
    for v in engine.cap.candidates(query_vertex).tolist():
        seen: set[Label] = set()
        for w in graph.neighbors(v):
            seen.add(graph.label(int(w)))
        support.update(seen)
    ranked = sorted(support.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return ranked[:top_k]


def estimate_selectivity(engine: BlenderEngine) -> dict[int, float]:
    """Per query vertex: fraction of its initial candidates still alive.

    1.0 = untouched (no incident edge processed yet); values near 0 mean
    the vertex is almost decided.  Useful for GUIs that color query
    vertices by how constrained they already are.
    """
    out: dict[int, float] = {}
    for q in engine.cap.levels():
        label = engine.query.label(q)
        initial = len(engine.ctx.candidates_for(label))
        live = engine.cap.candidate_count(q)
        out[q] = (live / initial) if initial else 0.0
    return out
