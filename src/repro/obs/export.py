"""Span post-processing: trees, summaries, and the SRT decomposition.

A tracer exports flat JSON records (:meth:`repro.obs.trace.Tracer.export`);
this module turns them into the shapes people actually read:

* :func:`spans_to_tree` — nest records into a forest by ``parent_id``;
* :func:`summarize` — per-name counts/totals plus balance diagnostics
  (open spans, errors, ring-buffer drops are visible to the caller);
* :func:`srt_decomposition` — recover the paper's Figure-7 quantities
  (formulation time, Run-phase SRT, CAP construction time, enumeration
  time) from span records *alone*, no engine object needed;
* :func:`render_tree` — an indented ASCII timeline for the
  ``repro obs`` CLI.

The canonical span names the engine emits are defined here (``SESSION``,
``PHASE_FORMULATION`` …) so the instrumentation in
:mod:`repro.core.blender` and the analysis in this module can never
drift apart.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

__all__ = [
    "SESSION",
    "PHASE_FORMULATION",
    "PHASE_RUN",
    "ACTION_PREFIX",
    "CAP_ADD_LEVEL",
    "CAP_PROCESS_EDGE",
    "POOL_PROBE",
    "POOL_DRAIN",
    "RUN_DRAIN",
    "RUN_ENUMERATE",
    "RESULT_VISUALIZE",
    "spans_to_tree",
    "summarize",
    "srt_decomposition",
    "render_tree",
]

# Canonical span names (the taxonomy — see docs/OBSERVABILITY.md).
SESSION = "session"
PHASE_FORMULATION = "phase.formulation"
PHASE_RUN = "phase.run"
ACTION_PREFIX = "action."
CAP_ADD_LEVEL = "cap.add_level"
CAP_PROCESS_EDGE = "cap.process_edge"
POOL_PROBE = "pool.probe"
#: Formulation-phase pool drain (IC catch-up); the Run-phase counterpart
#: is RUN_DRAIN.  Was emitted by the engine but missing from the taxonomy
#: until boomerlint R4 flagged the drift.
POOL_DRAIN = "pool.drain"
RUN_DRAIN = "run.drain"
RUN_ENUMERATE = "run.enumerate"
RESULT_VISUALIZE = "result.visualize"


def _duration(record: Mapping[str, Any]) -> float:
    d = record.get("duration")
    return float(d) if d is not None else 0.0


def spans_to_tree(records: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Nest flat span records into a forest ordered by start time.

    Each node is a copy of its record plus a ``children`` list.  Records
    whose parent was dropped by the ring buffer become roots (their
    subtree survives even when ancestors did not).
    """
    nodes: dict[int, dict[str, Any]] = {}
    ordered: list[dict[str, Any]] = []
    for record in sorted(records, key=lambda r: (r["start"], r["span_id"])):
        node = dict(record)
        node["children"] = []
        nodes[node["span_id"]] = node
        ordered.append(node)
    roots: list[dict[str, Any]] = []
    for node in ordered:
        parent = nodes.get(node.get("parent_id"))
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots


def summarize(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate span records into per-name totals plus health checks."""
    records = list(records)
    by_name: dict[str, dict[str, Any]] = {}
    open_spans = errors = 0
    t0, t1 = float("inf"), float("-inf")
    for r in records:
        entry = by_name.setdefault(
            r["name"], {"count": 0, "total_seconds": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["total_seconds"] += _duration(r)
        if r.get("error"):
            entry["errors"] += 1
            errors += 1
        if r.get("open"):
            open_spans += 1
        t0 = min(t0, r["start"])
        end = r.get("end")
        if end is not None:
            t1 = max(t1, end)
    return {
        "spans": len(records),
        "open": open_spans,
        "errors": errors,
        "balanced": open_spans == 0,
        "wall_seconds": (t1 - t0) if records and t1 > float("-inf") else 0.0,
        "by_name": dict(sorted(by_name.items())),
    }


def srt_decomposition(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Recover the Figure-7 time decomposition from span records alone.

    Returns totals in seconds:

    - ``session`` — root span duration (whole blended session);
    - ``formulation`` — time inside ``phase.formulation`` (CAP work
      hidden in GUI latency);
    - ``srt`` — time inside ``phase.run`` (the system response time the
      user actually waits for);
    - ``cap_construction`` — every ``cap.add_level`` and
      ``cap.process_edge`` span, whichever phase it ran in (the paper's
      total CAP build cost; pool-probe and drain spans are *parents* of
      these and are therefore reported separately, never summed in);
    - ``drain`` / ``enumeration`` — the Run phase's internal stages;
    - ``visualize`` — post-Run result materialization;
    - ``phase_coverage`` — (formulation + srt) / session, the tiling
      check: ≈1.0 means the phase children fully account for the root.
    """
    totals = {
        SESSION: 0.0,
        PHASE_FORMULATION: 0.0,
        PHASE_RUN: 0.0,
        CAP_ADD_LEVEL: 0.0,
        CAP_PROCESS_EDGE: 0.0,
        POOL_PROBE: 0.0,
        RUN_DRAIN: 0.0,
        RUN_ENUMERATE: 0.0,
        RESULT_VISUALIZE: 0.0,
    }
    counts = {name: 0 for name in totals}
    for r in records:
        name = r["name"]
        if name in totals:
            totals[name] += _duration(r)
            counts[name] += 1
    session = totals[SESSION]
    phases = totals[PHASE_FORMULATION] + totals[PHASE_RUN]
    return {
        "session": session,
        "formulation": totals[PHASE_FORMULATION],
        "srt": totals[PHASE_RUN],
        "cap_construction": totals[CAP_PROCESS_EDGE] + totals[CAP_ADD_LEVEL],
        "idle_probe": totals[POOL_PROBE],
        "drain": totals[RUN_DRAIN],
        "enumeration": totals[RUN_ENUMERATE],
        "visualize": totals[RESULT_VISUALIZE],
        "edges_processed": counts[CAP_PROCESS_EDGE],
        "pool_probes": counts[POOL_PROBE],
        "runs": counts[PHASE_RUN],
        "phase_coverage": (phases / session) if session > 0 else 0.0,
    }


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


def render_tree(
    records: Iterable[Mapping[str, Any]],
    max_depth: int | None = None,
    max_children: int = 40,
) -> str:
    """Indented ASCII timeline of a span forest (for ``repro obs dump``).

    Sibling lists longer than ``max_children`` are elided with a count
    so a thousand-edge formulation phase stays readable.
    """
    lines: list[str] = []

    def emit(node: Mapping[str, Any], depth: int) -> None:
        indent = "  " * depth
        attrs = node.get("attrs") or {}
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        flags = ""
        if node.get("error"):
            flags += f" !error={node['error']}"
        if node.get("open"):
            flags += " [open]"
        lines.append(
            f"{indent}{node['name']}  {_fmt_seconds(_duration(node))}"
            + (f"  {detail}" if detail else "")
            + flags
        )
        if max_depth is not None and depth + 1 > max_depth:
            return
        children = node.get("children", [])
        shown = children[:max_children]
        for child in shown:
            emit(child, depth + 1)
        if len(children) > len(shown):
            lines.append(
                f"{'  ' * (depth + 1)}... {len(children) - len(shown)} more "
                f"{shown[-1]['name'] if shown else 'span'} siblings elided"
            )

    for root in spans_to_tree(records):
        emit(root, 0)
    return "\n".join(lines)
