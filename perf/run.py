"""The repo's one benchmark: drive the TCP service from outside, per workload.

    python perf/run.py                                   # all four workloads
    python perf/run.py --workload wire_crowd --seed 3 --seconds 12 --trace 0
    python perf/run.py --trace                           # per-layer pass
    python perf/run.py --smoke                           # seconds, not minutes

One run of one workload: boot the server child from scratch (``setup_s``),
run the reference pass, play one untimed warm-up round with every match set
checked by digest, then the workload's ``R`` measured rounds in a closed
loop, each in an order drawn from ``--seed``.  Times are divided by how much
slower than at its best the box ran meanwhile (yardstick.py).  The last line
of stdout is the result as JSON: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from typing import Any

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

from repro.service.client import ServiceClient  # noqa: E402

import spans  # noqa: E402
from yardstick import Speed  # noqa: E402
from workloads import NOMINAL_SECONDS, PAGE, SMOKE_ROUNDS, WORKLOADS, Workload, digest  # noqa: E402

clock = time.perf_counter
#: Seconds the generator idles before and after a boot, for the server
#: core's probe to say how fast the core was around it.
BRACKET_S = 0.3


# -- the estimator --------------------------------------------------------
def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def parts(ms: list[float]) -> dict[str, float]:
    """One session's round trips, by what the user was waiting for."""
    _create, *actions, srt, fetch, page, _close = ms
    return {"formulation": sum(actions), "srt": srt, "fetch": fetch, "page": page, "session": sum(ms)}


def per_script(sessions: list[dict]) -> dict[str, dict[str, float]]:
    """What each script costs: per part, the median over the script's rounds.

    Workload percentiles are taken over these per-script values, never over
    pooled samples: the scripts form clusters, and a pooled percentile lands
    in the gap between two of them and jumps from run to run.
    """
    rounds: dict[str, list[dict[str, float]]] = defaultdict(list)
    for s in sessions:
        if s["error"] is None:
            rounds[s["script"]].append(parts([ms / s["slowdown"] for ms in s["ms"]]))
    return {
        script: {part: statistics.median(r[part] for r in samples) for part in samples[0]}
        for script, samples in rounds.items()
    }


def p50(scripts: dict[str, dict[str, float]], part: str) -> float:
    return statistics.median(v[part] for v in scripts.values())


def p90(scripts: dict[str, dict[str, float]], part: str) -> float:
    return nearest_rank([v[part] for v in scripts.values()], 0.9)


def update_p50(updates: list[dict], kind: str) -> float:
    """Median over edges of the edge's median ``update`` round trip (0 if none)."""
    by_edge: dict[tuple, list[float]] = defaultdict(list)
    for u in updates:
        if u["error"] is None and u["kind"] == kind:
            by_edge[tuple(u["edge"])].append(u["ms"] / u["slowdown"])
    return statistics.median(statistics.median(v) for v in by_edge.values()) if by_edge else 0.0


# -- the server child -----------------------------------------------------
class Server:
    """One server child and a control connection to it."""

    def __init__(self, workload: Workload, core: int, span_file: Path | None = None) -> None:
        command = [sys.executable, str(PERF / "launcher.py"), workload.dataset, workload.scale]
        if span_file is not None:
            command.append(str(span_file))
        time.sleep(BRACKET_S)  # the probe sees the core just before the boot ...
        started = clock()
        self.proc = spawn(command, {core})
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server child exited before it bound a port")
            self.address = ("127.0.0.1", json.loads(line)["port"])
            self.control = ServiceClient(*self.address, timeout=120.0)
            self.control.ping()
        except BaseException:
            self.kill()
            raise
        #: Start of the child -> first ping reply: interpreter start, imports,
        #: graph generation, preprocess, bind.
        self.setup_s = clock() - started
        #: The probe starves during a boot; these intervals stand in for it.
        self.around_boot = (
            (started - BRACKET_S, started), (started + self.setup_s, started + self.setup_s + BRACKET_S),
        )
        time.sleep(BRACKET_S)  # ... and just after it

    def stop(self) -> None:
        """Graceful: the wire ``shutdown`` op, then wait for the exit."""
        try:
            self.control.shutdown()
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        """Reap the child (and with it the port) whatever state it is in."""
        reap(self.proc)
        if hasattr(self, "control"):
            self.control.close()

    def cpu_seconds(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


class Probe:
    """The yardstick child of one core (see yardstick.py)."""

    def __init__(self, core: int) -> None:
        self.core = core
        self.proc = spawn([sys.executable, str(PERF / "yardstick.py"), str(core)], {core})

    def stop(self) -> Speed:
        self.proc.terminate()
        try:
            return Speed(**json.loads(self.proc.communicate(timeout=60)[0]))
        finally:
            self.kill()

    def kill(self) -> None:
        reap(self.proc)


# -- one session, one update ----------------------------------------------
def play(client: ServiceClient, script: dict, strategy: str | None, full: bool) -> dict:
    """One session, every round trip timed; checked after the last reply."""
    stamps = [clock()]
    sid = client.create_session(strategy=strategy)
    stamps.append(clock())
    deferred = []
    for action in script["actions"]:
        deferred.append(not client.action(sid, action)["processed_now"])
        stamps.append(clock())
    run = client.run(sid)
    stamps.append(clock())
    matches = client.matches(sid)
    stamps.append(clock())
    page = client.results(sid, limit=PAGE)
    stamps.append(clock())
    client.close_session(sid)
    stamps.append(clock())

    error = None
    if not run["num_matches"] == len(matches) == script["num_matches"]:
        error = f"{len(matches)} matches, reference has {script['num_matches']}"
    elif any(matches[i] != m for i, m in script["probes"]):
        error = "first/middle/last match differs from the reference"
    elif page != script["page"]:
        error = "results page differs from the reference"
    elif full and digest(matches) != script["digest"]:
        error = "match digest differs from the reference"
    reply = {k: run[k] for k in ("num_matches", "truncated", "cap_size", "cap_peak_size")}
    return {
        "script": script["name"],
        "session": sid,
        "error": error,
        #: create_session, each action, run, matches, results, close_session.
        "ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])],
        "reply": reply,
        #: What must not change from round to round (determinism guard).
        "signature": [*reply.values(), deferred, len(page)],
    }


def send_update(client: ServiceClient, kind: str, u: int, v: int) -> dict:
    record: dict[str, Any] = {"kind": kind, "edge": [u, v], "error": None}
    try:
        t0 = clock()
        report = client.update(kind, u, v)
        record["ms"] = (clock() - t0) * 1e3
    except Exception as exc:  # an error reply is a failed operation
        record["error"] = repr(exc)
        return record
    record["labels_added"] = report["labels_added"]
    record["cache_dropped"] = report["cache_dropped"]
    record["signature"] = [
        report[k] for k in ("strategy", "labels_added", "labels_updated", "two_hop_recomputed")
    ]
    return record


# -- rounds ---------------------------------------------------------------
def round_order(scripts: list[dict], rng: random.Random) -> list[dict]:
    """A fresh order for every round; scripts that bring an edge alternate
    with scripts that do not, so every session follows a graph update."""
    with_edge = [s for s in scripts if s["edge"]]
    without = [s for s in scripts if not s["edge"]]
    rng.shuffle(with_edge)
    rng.shuffle(without)
    return [s for pair in zip(with_edge, without) for s in pair] if with_edge else without


def drive(address, scripts, strategy, seed, rounds, full, out) -> None:
    """One closed-loop user: the next request waits for the previous reply.

    GUI think time is the virtual ``latency_after`` inside each action; it
    is never slept.  A script that brings an edge has it inserted before
    its session and deleted after it.
    """
    with ServiceClient(*address, timeout=120.0) as client:
        for r in rounds:
            started = clock()
            # One stream of orders per seed, user (named by its first script) and round.
            for script in round_order(scripts, random.Random(f"{seed}/{scripts[0]['name']}/{r}")):
                edge = script["edge"]
                if edge:
                    out["updates"].append({"round": r, **send_update(client, "insert", *edge)})
                try:
                    out["sessions"].append({"round": r, **play(client, script, strategy, full)})
                except Exception as exc:
                    out["sessions"].append({"round": r, "script": script["name"], "error": repr(exc)})
                if edge:
                    out["updates"].append({"round": r, **send_update(client, "delete", *edge)})
            out["spans"][r] = (started, clock())


COUNTERS = (
    "repro_oracle_calls_total",
    "repro_cap_pairs_added_total",
    "repro_cap_edges_processed_total",
    "repro_cap_edges_deferred_total",
)


def run_phase(server: Server, ref: dict, clients: int, seed: int, rounds: range, full: bool) -> dict:
    """The rounds ``rounds`` over every script, ``clients`` connections."""
    scripts = ref["scripts"]
    share = math.ceil(len(scripts) / clients)  # contiguous: every template in each
    users = [{"sessions": [], "updates": [], "spans": {}} for _ in range(clients)]
    threads = [
        threading.Thread(
            target=drive,
            args=(
                server.address, scripts[k * share : (k + 1) * share], ref["strategy"], seed,
                rounds, full, users[k],
            ),
        )
        for k in range(clients)
    ]
    before, stats0 = server.control.metrics()["metrics"], server.control.stats()
    gc.collect()
    gc.disable()  # no collector pause of the generator inside a round trip
    try:
        cpu0, t0 = server.cpu_seconds(), clock()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall, cpu = clock() - t0, server.cpu_seconds() - cpu0
    finally:
        gc.enable()
    after, stats1 = server.control.metrics()["metrics"], server.control.stats()
    return {
        "rounds": len(rounds),
        "start": t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "sessions": [s for u in users for s in u["sessions"]],
        "updates": [x for u in users for x in u["updates"]],
        #: Per round, when each user played it.
        "spans": {r: [u["spans"][r] for u in users] for r in rounds},
        "counters": {k: after.get(k, 0) - before.get(k, 0) for k in COUNTERS},
        "distcache": [
            after.get(f"repro_distcache_{k}_total", 0) - before.get(f"repro_distcache_{k}_total", 0)
            for k in ("hits", "misses")
        ],
        "scheduler": {
            k: stats1["scheduler"][k] - stats0["scheduler"][k]
            for k in ("donations", "cross_session_edges")
        },
    }


def check_determinism(warm: dict, window: dict) -> list[str]:
    """Scripts (or counters) whose engine work changed between rounds."""
    broken = []
    seen: dict[tuple, Any] = {}
    for phase in (warm, window):
        for kind in ("sessions", "updates"):
            for record in phase[kind]:
                if record["error"] is not None:
                    continue
                key = (kind, record.get("script") or (record["kind"], *record["edge"]))
                if seen.setdefault(key, record["signature"]) != record["signature"]:
                    broken.append(f"{key[1]}: {seen[key]} became {record['signature']}")
    for name, per_round in warm["counters"].items():
        if window["counters"][name] != per_round * window["rounds"]:
            broken.append(
                f"{name}: {per_round} in the warm-up round, "
                f"{window['counters'][name]} over {window['rounds']} measured rounds"
            )
    return sorted(set(broken))


def settle(phases: list[dict], speeds: list[Speed]) -> None:
    """Give every record the slowdown of the round it was measured in.

    ``speeds[0]`` is the server core's: that is where a round trip spends
    most of its time, so that is the factor the times are divided by.
    """
    for phase in phases:
        phase["slowdown_by_round"] = {
            r: [speed.slowdown(*spans) for speed in speeds] for r, spans in phase["spans"].items()
        }
        whole = [span for spans in phase["spans"].values() for span in spans]
        phase["slowdown"] = [speed.slowdown(*whole) for speed in speeds]
        for record in phase["sessions"] + phase["updates"]:
            record["slowdown"] = phase["slowdown_by_round"][record["round"]][0]


# -- metrics --------------------------------------------------------------
def end_to_end(window: dict, setup_s: float, rss: float) -> dict:
    good = sum(s["error"] is None for s in window["sessions"])
    scripts = per_script(window["sessions"])
    slowdown = window["slowdown"][0]
    return {
        "setup_s": (setup_s, "s"),
        "srt_p50_ms": (p50(scripts, "srt"), "ms"),
        "srt_p90_ms": (p90(scripts, "srt"), "ms"),
        "formulation_p50_ms": (p50(scripts, "formulation"), "ms"),
        "fetch_p50_ms": (p50(scripts, "fetch"), "ms"),
        "page_p50_ms": (p50(scripts, "page"), "ms"),
        "session_p50_ms": (p50(scripts, "session"), "ms"),
        "sessions_per_s": (good / window["wall_s"] * slowdown, "1/s"),
        "cpu_ms_per_session": (window["cpu_s"] * 1e3 / good / slowdown, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(
    window: dict, base: dict, summary: dict, traced: list[dict], root_of: dict, boot_slowdown: float
) -> dict:
    sessions = [s for s in window["sessions"] if s["error"] is None]
    n = len(sessions)
    under_session_op = []
    for span in traced:
        root = root_of[span["id"]]
        if root["layer"] == "client" and root.get("op") in spans.SESSION_OPS:
            under_session_op.append((span, root))

    metrics: dict[str, tuple[float, str]] = {}
    layers = summary["layers"]
    slowdown = window["slowdown"][0]  # like every time: as on the core at its best
    for layer in (*spans.SERVICE_LAYERS, *spans.ENGINE_LAYERS, "updates"):
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_ms_per_session"] = (entry["self_s"] * 1e3 / n / slowdown, "ms")
        metrics[f"{layer}.calls_per_session"] = (entry["calls"] / n, "count")
    handled = sum(s["end"] - s["start"] for s, _ in under_session_op if s["layer"] == "server")
    metrics["wire.transit_ms_per_session"] = (
        (summary["round_trip_s"] - handled) * 1e3 / n / slowdown, "ms",
    )
    metrics["preprocess.self_ms"] = (summary["preprocess_s"] * 1e3 / boot_slowdown, "ms")

    def total(layer: str, count: str) -> float:
        return sum(
            s["counts"][count] for s, _ in under_session_op
            if s["layer"] == layer and "counts" in s
        )

    for count in ("distance_queries", "pairs_added", "out_scans", "in_scans"):
        metrics[f"pvs.{count}_per_session"] = (total("pvs", count) / n, "count")
    metrics["blender.edges_deferred_per_session"] = (total("blender", "edges_deferred") / n, "count")
    metrics["blender.pooled_at_run_per_session"] = (
        -sum(s["counts"]["pool"] for s, _ in under_session_op if s.get("action") == "Run") / n,
        "count",
    )
    metrics["cap.entries_at_run"] = (statistics.mean(s["reply"]["cap_size"] for s in sessions), "count")
    metrics["cap.peak_entries"] = (statistics.mean(s["reply"]["cap_peak_size"] for s in sessions), "count")
    metrics["enumerate.matches_per_session"] = (
        statistics.mean(s["reply"]["num_matches"] for s in sessions), "count",
    )
    metrics["enumerate.truncated_share"] = (
        statistics.mean(bool(s["reply"]["truncated"]) for s in sessions), "ratio",
    )
    verdicts = [s["kept"] for s, _ in under_session_op if "kept" in s]
    metrics["lowerbound.kept_share"] = (statistics.mean(verdicts) if verdicts else 0.0, "ratio")
    hits, misses = window["distcache"]
    metrics["oracle.distcache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["protocol.bytes_in_per_session"] = (
        sum(s.get("bytes_in", 0) for s, _ in under_session_op) / n, "bytes",
    )
    metrics["protocol.bytes_out_per_session"] = (
        sum(
            s["bytes"] for s, _ in under_session_op
            if s["name"] == "protocol.encode_line" and s["id"].startswith("s")
        ) / n,
        "bytes",
    )
    metrics["scheduler.donations_per_session"] = (window["scheduler"]["donations"] / n, "count")
    metrics["scheduler.cross_session_edges"] = (window["scheduler"]["cross_session_edges"], "count")
    # Round trips of `update`, like every latency, from the untraced rounds.
    for kind in ("insert", "delete"):
        metrics[f"updates.{kind}_p50_ms"] = (update_p50(base["updates"], kind), "ms")
    inserts = [u for u in window["updates"] if u["error"] is None and u["kind"] == "insert"]
    good_updates = [u for u in window["updates"] if u["error"] is None]
    metrics["updates.labels_added_per_insert"] = (
        statistics.mean(u["labels_added"] for u in inserts) if inserts else 0.0, "count",
    )
    metrics["updates.cache_dropped_per_update"] = (
        statistics.mean(u["cache_dropped"] for u in good_updates) if good_updates else 0.0, "count",
    )
    # Against the generator's own stopwatch, not against the spans' sum.
    waited = sum(sum(s["ms"]) for s in sessions) + sum(u["ms"] for u in good_updates)
    self_total = sum(entry["self_s"] for entry in layers.values())
    metrics["trace.coverage_pct"] = (100.0 * self_total * 1e3 / waited, "%")
    plain = p50(per_script(base["sessions"]), "session")
    with_spans = p50(per_script(window["sessions"]), "session")
    metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
    return metrics


def span_determinism(window: dict, traced: list[dict], root_of: dict) -> list[str]:
    """Per script: distance queries, pool at Run and reply bytes, every round."""
    per_session: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for span in traced:
        root = root_of[span["id"]]
        acc = per_session[root.get("session")]
        if span["layer"] == "pvs":
            acc[0] += span["counts"]["distance_queries"]
        if span.get("action") == "Run":
            acc[1] -= span["counts"]["pool"]
        # `run` and `action` replies carry measured seconds, whose digits vary;
        # every frame carries its req_id, whose digits grow.
        if (
            span["name"] == "protocol.encode_line"
            and span["id"].startswith("s")  # the reply, not the request
            and root.get("op") in ("matches", "results")
        ):
            acc[2] += span["bytes"] - len(str(span["req_id"]))
    seen: dict[str, list[int]] = {}
    return sorted({
        f"{s['script']}: [distance queries, pooled at Run, reply bytes] "
        f"{seen[s['script']]} became {per_session[s['session']]}"
        for s in window["sessions"]
        if s["error"] is None
        and seen.setdefault(s["script"], per_session[s["session"]]) != per_session[s["session"]]
    })


# -- one run --------------------------------------------------------------
def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def spawn(command: list[str], cores: set[int]) -> subprocess.Popen:
    """Start a child that runs on ``cores`` from its first instruction."""
    ours = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)  # inherited across fork and exec
    try:
        return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    finally:
        os.sched_setaffinity(0, ours)


def reap(proc: subprocess.Popen) -> None:
    """End a child whatever state it is in, and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def reference(workload: Workload, args: argparse.Namespace) -> dict:
    """Scripts and the answers of a serial in-process ``Boomer`` (own process)."""
    proc = spawn(
        [sys.executable, str(PERF / "reference.py"), workload.name, str(int(args.smoke))],
        args.cores,
    )
    try:
        out, _ = proc.communicate()
    finally:
        reap(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"reference pass exited with {proc.returncode}")
    return json.loads(out)


def measure(workload: Workload, args: argparse.Namespace) -> dict:
    """Boot, reference pass, warm-up round, measured rounds; then the same traced."""
    clients = min(workload.clients, len(args.cores))  # one user per core at most
    rounds = SMOKE_ROUNDS if args.smoke else workload.rounds_for(args.seconds)
    if args.trace and not args.smoke:
        rounds = max(1, rounds // 2)  # two windows in the time of one
    span_file = OUT / f"spans-{workload.name}-{os.getpid()}.json"
    with ExitStack() as stack:
        probes = [Probe(core) for core in dict.fromkeys((args.server_core, args.generator_core))]
        for probe in probes:
            stack.callback(probe.kill)
        server = plain = Server(workload, args.server_core)
        stack.callback(server.kill)
        started = clock()
        ref = reference(workload, args)
        ready = clock()
        warm = run_phase(server, ref, clients, args.seed, range(1), full=True)
        window = run_phase(server, ref, clients, args.seed, range(1, rounds + 1), full=False)
        rss = server.peak_rss_mb()
        server.stop()
        phases = [warm, window]
        if args.trace:
            # The same again on a child with the timing wrappers installed.
            recorder = spans.Recorder("c")
            spans.install_client(recorder)
            server = Server(workload, args.server_core, span_file)
            stack.callback(server.kill)
            stack.callback(span_file.unlink, missing_ok=True)
            warm_traced = run_phase(server, ref, clients, args.seed, range(1), full=True)
            traced = run_phase(server, ref, clients, args.seed, range(1, rounds + 1), full=False)
            server.stop()
            server_spans = json.loads(span_file.read_text())
            phases += [warm_traced, traced]
        speeds = [probe.stop() for probe in probes]

    settle(phases, speeds)
    boot_slowdown = speeds[0].slowdown(*plain.around_boot)
    broken = check_determinism(warm, window)
    result: dict[str, Any] = {
        "phases": (
            f"boot {plain.setup_s:.1f} s, reference pass {ready - started:.1f} s, "
            f"warm-up round {warm['wall_s']:.1f} s, measured window {window['wall_s']:.1f} s"
        ),
        "slowdowns": (
            f"boot {boot_slowdown:.3f}, window {window['slowdown'][0]:.3f} (server core), "
            f"{window['slowdown'][-1]:.3f} (generator core)"
        ),
        "raw": {
            "setup_s": plain.setup_s,
            "boot_slowdown": boot_slowdown,
            "quiet_ms": [speed.quiet and speed.quiet * 1e3 for speed in speeds],
            "warmup": warm,
            "window": window,
        },
    }
    if args.trace:
        # Boot spans and the traced window; the traced warm-up round is dropped.
        boot = [s for s in server_spans if s["end"] < warm_traced["start"]]
        forest = boot + spans.stitch(
            [s for s in recorder.spans if s["start"] >= traced["start"]],
            [s for s in server_spans if s["start"] >= traced["start"]],
        )
        summary = spans.summarize(forest)
        root_of = spans.roots(forest)
        (OUT / f"trace-{workload.name}.json").write_text(
            json.dumps({"workload": workload.name, "summary": summary, "spans": forest})
        )
        broken += check_determinism(warm_traced, traced) + span_determinism(traced, forest, root_of)
        if summary["unstitched"]:
            broken.append(f"trace: {summary['unstitched']} round trips without a server span")
        result["metrics"] = per_layer(
            traced, window, summary, forest, root_of, speeds[0].slowdown(*server.around_boot)
        )
        result["summary"] = summary
        result["raw"]["traced"] = traced
    else:
        result["metrics"] = end_to_end(window, plain.setup_s / boot_slowdown, rss)
    records = [r for phase in phases for r in phase["sessions"] + phase["updates"]]
    return {
        **result,
        "attempted": len(records),
        "failures": [r for r in records if r["error"] is not None],
        "broken": broken,
        "clients": clients,
        "rounds": rounds,
    }


def report(workload: Workload, args: argparse.Namespace, result: dict) -> int:
    window = result["raw"]["window"]
    scripts = len({s["script"] for s in window["sessions"]})
    print(f"== {workload.name}: {workload.why}")
    print(
        f"   {workload.dataset}/{workload.scale}, strategy {workload.strategy or 'service default'}, "
        f"{result['clients']} client(s), closed loop, {scripts} scripts x {result['rounds']} rounds"
    )
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:40s} {value:14.4f} {unit}")
    if workload.updates and not args.trace:
        # Not in the result line: the driver wants the same metrics from every workload.
        for kind in ("insert", "delete"):
            print(f"   {f'update_{kind}_p50_ms':40s} {update_p50(window['updates'], kind):14.4f} ms")
    if "summary" in result:
        print("   self ms by wire op and layer (traced rounds):")
        for op, layers in sorted(result["summary"]["by_op"].items()):
            shares = ", ".join(
                f"{layer} {s * 1e3:.1f}" for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])
            )
            print(f"     {op:15s} {shares}")
    print(f"   {result['phases']}")
    print(f"   slowdown of the box: {result['slowdowns']}")
    failures = result["failures"]
    print(f"   ops {result['attempted']}  failed_ops {len(failures)}")
    for failure in failures[:5]:
        print(f"   FAILED {failure.get('script') or failure.get('kind')}: {failure['error']}")
    for line in result["broken"]:
        print(f"   CHECK FAILED {line}")

    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    suffix = "-trace" if args.trace else ""
    (OUT / f"{workload.name}{suffix}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "env": {
                    "cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__,
                    "git_sha": git_sha(),
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "clients": result["clients"],
                    "rounds": result["rounds"],
                    "server_core": args.server_core,
                    "generator_core": args.generator_core,
                },
                "metrics": metrics,
                "failed": failures,
                "checks_failed": result["broken"],
                "raw": result["raw"],
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": not failures and not result["broken"],
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 1 if result["broken"] else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, one after the other")
    parser.add_argument("--seed", type=int, default=0, help="draws the order of the scripts in every round")
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS, help="scales the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true", help="4 scripts, 2 rounds per workload")
    args = parser.parse_args()

    if args.workload is None:
        # One process per workload: no state (patched classes, heap) carries over.
        return max(
            subprocess.run([sys.executable, __file__, "--workload", name, *sys.argv[1:]]).returncode
            for name in WORKLOADS
        )
    workload = WORKLOADS[args.workload]
    # Children inherit it; with use_disk_cache=False nothing reads or
    # writes there, and nothing can fall back to ~/.cache/repro-boomer.
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "no-disk-cache")
    OUT.mkdir(exist_ok=True)
    # The server child gets the last core, the generator with all its users
    # the one before it, so that decoding and checking never take time from
    # the server (README, "Cores").  With one core they share it.
    args.cores = os.sched_getaffinity(0)
    *_, args.generator_core, args.server_core = sorted(args.cores) * 2
    os.sched_setaffinity(0, {args.generator_core})
    return report(workload, args, measure(workload, args))


if __name__ == "__main__":
    sys.exit(main())
