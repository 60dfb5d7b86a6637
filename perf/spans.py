"""Timing wrappers around the layers' public entry points, and their sums.

Nothing under ``src/`` knows about this file.  ``install_server`` (called
by ``launcher.py`` in the server child) and ``install_client`` (called by
``run.py`` in the load generator) replace each entry point, under the name
its caller looks it up by, with a wrapper that records one span per call:
id, parent (the span open on the same thread), layer, name, start and end
on ``time.perf_counter`` - CLOCK_MONOTONIC on Linux, so spans of the two
processes share one time line.  Spans stay in a list until the process
exits.

``stitch`` then hangs every server-side request under the client round
trip that caused it (matched by session id and v2 ``req_id``), and
``self_times`` gives each span its duration minus the part its children
cover, so the layers of one request sum to the client's wait.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = [
    "Recorder",
    "install_server",
    "install_client",
    "stitch",
    "self_times",
    "roots",
    "summarize",
    "ENGINE_LAYERS",
    "SERVICE_LAYERS",
]

ENGINE_LAYERS = ("blender", "pvs", "oracle", "cap", "enumerate", "lowerbound")
SERVICE_LAYERS = (
    "client", "server", "protocol", "dispatch", "manager", "scheduler", "session",
)


class Recorder:
    """In-memory span store plus the wrapper factory feeding it."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix  # keeps ids of the two processes apart
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        note: Callable | None = None,
        counters: Callable | None = None,
    ) -> Callable:
        """``fn`` timed as one span per call.

        ``note(span, parent, args, kwargs, result)`` runs after a call that
        returned and may tag either span.  ``counters(args, kwargs)`` reads
        cumulative counts before and after; the span keeps the differences.
        """
        spans, ids, local, prefix = self.spans, self._ids, self._local, self.prefix

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = {
                "id": f"{prefix}{next(ids)}",
                "parent": parent["id"] if parent else None,
                "layer": layer,
                "name": name,
                "thread": threading.get_ident(),
            }
            before = counters(args, kwargs) if counters else None
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["end"] = time.perf_counter()
                if note:
                    note(span, parent, args, kwargs, result)
                return result
            finally:
                span.setdefault("end", time.perf_counter())
                stack.pop()
                if before is not None:
                    after = counters(args, kwargs)
                    span["counts"] = {k: after[k] - before[k] for k in before}
                spans.append(span)

        return traced

    def patch(self, owner: Any, attr: str, layer: str, **hooks: Callable) -> None:
        """Replace ``owner.attr`` (module function or plain method) with its wrapper."""
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(owner, attr, self.wrap(getattr(owner, attr), layer, name, **hooks))


# -- what each wrapper remembers about its call ---------------------------
def _note_decoded(span, parent, args, kwargs, request) -> None:
    """Server side: the decoded request names the round trip it belongs to."""
    if parent is not None:
        parent.update(
            op=request["op"],
            req_id=request.get("req_id"),
            session=request.get("session"),
            bytes_in=len(args[0]),
        )


def _note_handled(span, parent, args, kwargs, response) -> None:
    if span.get("op") == "create_session" and response.get("ok"):
        span["session"] = response["result"]["session"]


def _note_encoded(span, parent, args, kwargs, line) -> None:
    """Both sides: ``encode_line`` sees the frame's ``req_id`` and its size."""
    span["req_id"] = args[0].get("req_id")
    span["bytes"] = len(line)
    if parent is not None and parent["layer"] == "client":
        parent["req_id"] = args[0].get("req_id")


def _note_requested(span, parent, args, kwargs, result) -> None:
    span["op"] = args[1]
    span["session"] = kwargs.get("session") or result.get("session")


def _note_applied(span, parent, args, kwargs, report) -> None:
    span["action"] = type(args[1]).__name__


def _note_filtered(span, parent, args, kwargs, subgraph) -> None:
    span["kept"] = subgraph is not None


def _blender_counters(args, kwargs) -> dict[str, int]:
    engine = args[0].engine
    return {"edges_deferred": engine.ctx.counters.edges_deferred, "pool": len(engine.pool)}


def _pvs_counters(args, kwargs) -> dict[str, int]:
    c = args[1].counters
    return {
        "distance_queries": c.distance_queries,
        "pairs_added": c.pairs_added,
        "out_scans": c.out_scans,
        "in_scans": c.in_scans,
    }


def install_server(recorder: Recorder) -> None:
    """Wrap every layer the server child runs (see README, per-layer table)."""
    mod = importlib.import_module
    server, protocol = mod("repro.service.server"), mod("repro.service.protocol")
    dispatch, manager = mod("repro.service.dispatch"), mod("repro.service.manager")
    scheduler, session = mod("repro.service.scheduler"), mod("repro.service.session")
    blender, context = mod("repro.core.blender"), mod("repro.core.context")
    cap, maintain = mod("repro.core.cap"), mod("repro.updates.maintain")
    pml, batch = mod("repro.indexing.pml"), mod("repro.indexing.batch")
    registry = mod("repro.datasets.registry")
    p = recorder.patch

    p(server.QueryServer, "handle_line", "server", note=_note_handled)
    p(protocol, "decode_request", "protocol", note=_note_decoded)
    p(protocol, "encode_line", "protocol", note=_note_encoded)
    for attr in ("wire_action", "canonical_matches", "run_payload", "subgraph_payload"):
        p(protocol, attr, "protocol")
    p(dispatch.LocalDispatcher, "dispatch", "dispatch")
    for attr in (
        "create_session", "apply_action", "run", "matches", "results",
        "close_session", "apply_update",
    ):
        p(manager.SessionManager, attr, "manager")
    p(scheduler.IdleScheduler, "donate", "scheduler")
    p(session.ManagedSession, "apply", "session")
    p(session.ManagedSession, "run", "session")
    p(blender.Boomer, "apply", "blender", note=_note_applied, counters=_blender_counters)
    # Patched where they are *used*: blender.py and manager.py bound these
    # names at import, so the defining modules are the wrong place.
    p(blender, "populate_vertex_set", "pvs", counters=_pvs_counters)
    p(blender, "partial_vertex_sets", "enumerate")
    p(blender, "filter_by_lower_bound", "lowerbound", note=_note_filtered)
    p(context.EngineContext, "within_many", "oracle")
    p(context.EngineContext, "distances_from", "oracle")
    # add_pair (singular) runs once per pair; timing it would time the timer.
    for attr in ("add_level", "begin_edge", "add_pairs", "finish_edge"):
        p(cap.CAPIndex, attr, "cap")
    p(manager, "insert_edge", "updates")
    p(manager, "delete_edge", "updates")
    p(pml.PrunedLandmarkLabeling, "apply_edge_insert", "updates")
    p(pml.PrunedLandmarkLabeling, "rebuild_inplace", "updates")
    p(maintain, "patch_two_hop_counts", "updates")
    p(batch.DistanceVectorCache, "invalidate", "updates")
    p(registry, "get_dataset", "preprocess")
    p(registry, "preprocess", "preprocess")


def install_client(recorder: Recorder) -> None:
    """Wrap the generator's side of a round trip."""
    client = importlib.import_module("repro.service.client")
    protocol = importlib.import_module("repro.service.protocol")
    recorder.patch(client.ServiceClient, "request", "client", note=_note_requested)
    recorder.patch(protocol, "encode_line", "protocol", note=_note_encoded)
    recorder.patch(protocol, "decode_response", "protocol")


# -- analysis -------------------------------------------------------------
def stitch(client_spans: list[dict], server_spans: list[dict]) -> list[dict]:
    """One forest: server request roots re-parented under their client span.

    A ``handle_line`` span and the ``encode_line`` of its response (written
    by the connection handler after ``handle_line`` returned, so a root of
    its own on that thread) both hang under the ``ServiceClient.request``
    span with the same ``(session, req_id)``.  Requests that carry no
    session are keyed by their op; only one connection sends those.
    """
    by_key = {
        (s.get("session") or s["op"], s["req_id"]): s["id"]
        for s in client_spans
        if s["layer"] == "client" and "req_id" in s
    }
    current: dict[int, str | None] = {}
    for span in sorted(server_spans, key=lambda s: s["start"]):
        if span["parent"] is not None:
            continue
        if span["layer"] == "server":
            key = (span.get("session") or span.get("op"), span.get("req_id"))
            current[span["thread"]] = span["parent"] = by_key.get(key)
        elif span["name"].endswith("encode_line"):
            span["parent"] = current.get(span["thread"])
    return client_spans + server_spans


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of each span not covered by its children.

    Children are clipped to the parent's interval and overlaps between
    siblings are counted once, so self times of a tree sum to its root.
    """
    children: dict[str | None, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


#: Ops whose round trips the ledger accounts for; pings and the metrics and
#: stats snapshots the harness takes between rounds are not the workload.
SESSION_OPS = (
    "create_session", "action", "run", "matches", "results", "close_session", "update",
)


def roots(spans: list[dict]) -> dict[str, dict]:
    """Span id -> the root span of its tree."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for span in spans:
        root = span
        while root["parent"] is not None:
            root = by_id[root["parent"]]
        out[span["id"]] = root
    return out


def summarize(spans: list[dict]) -> dict[str, Any]:
    """Self seconds and calls per layer, in total and per wire op.

    Only spans under a client round trip of ``SESSION_OPS`` count; boot-time
    spans (``preprocess``) are summed apart.
    """
    root_of = roots(spans)
    selfs = self_times(spans)
    layers: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
    by_op: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    preprocess = 0.0
    round_trips = 0.0
    served: set[str] = set()
    for span in spans:
        root = root_of[span["id"]]
        if root["layer"] == "preprocess":
            preprocess += selfs[span["id"]]
        if root["layer"] != "client" or root.get("op") not in SESSION_OPS:
            continue
        layers[span["layer"]][0] += selfs[span["id"]]
        layers[span["layer"]][1] += 1
        by_op[root["op"]][span["layer"]] += selfs[span["id"]]
        if span is root:
            round_trips += span["end"] - span["start"]
        elif span["layer"] == "server":
            served.add(root["id"])
    asked = {r["id"] for r in root_of.values() if r.get("op") in SESSION_OPS and r["layer"] == "client"}
    return {
        "layers": {k: {"self_s": v[0], "calls": v[1]} for k, v in layers.items()},
        "by_op": {op: dict(v) for op, v in by_op.items()},
        "preprocess_s": preprocess,
        "round_trip_s": round_trips,
        #: Round trips no ``handle_line`` span was matched to: their server
        #: time would sit in ``client`` unnoticed.
        "unstitched": len(asked - served),
    }
