"""Command-line interface.

Subcommands::

    python -m repro generate --dataset wordnet --n 500 --out graph.txt
    python -m repro stats --graph graph.txt
    python -m repro query --graph graph.txt --query query.txt \
        [--strategy DI] [--limit 10] [--rank compactness] [--dot out.dot]
    python -m repro serve --graph graph.txt [--port 7474] \
        [--max-sessions 64] [--cap-budget 1000000]
    python -m repro soak --dataset dblp [--sessions 20] [--chaos] \
        [--out BENCH_soak.json]
    python -m repro obs summarize --trace trace.json
    python -m repro obs tree --trace trace.json [--max-depth 3]
    python -m repro obs metrics --port 7474 [--format json]
    python -m repro update-check [--seed 7] [--rounds 3] [--steps 12]
    python -m repro lint src/repro [--rules R1,R2] [--format json]

``serve`` hosts the multi-session query service (see docs/SERVICE.md): a
JSON-lines-over-TCP protocol multiplexing many concurrent visual sessions
over one shared graph + PML oracle.  It prints ``serving on HOST:PORT``
once ready (``--port 0`` picks a free port) and exits cleanly on SIGINT
or a client ``shutdown`` op.

``soak`` stands up that same service with *deliberately tight* budgets,
floods it with a seeded heavy-tailed traffic schedule
(:mod:`repro.workload.traffic`) — optionally under a chaos
:class:`repro.faults.FaultPlan` — then drains, restores checkpointed
sessions, and gates the run on an SLO (:mod:`repro.soak`).  Exits 0 on
pass, 1 on any SLO violation; ``--out BENCH_soak.json`` archives the
full report.

The query file mirrors the visual formulation stream, one action per line
(``#`` comments allowed)::

    v 0 A          # vertex id 0 labeled A
    v 1 B
    e 0 1 1 2      # edge (0, 1) with bounds [1, 2]

Lines are replayed through the blender in file order, so the file *is* the
formulation sequence (vertex ids may be any integers; edges may only
reference already-declared vertices).

``query`` and ``replay`` accept resilience options: ``--resilience``
(off/default/strict/paranoid), ``--deadline`` (Run-phase budget, seconds),
and ``--fault-plan`` (a :class:`repro.faults.FaultPlan` JSON file or
inline JSON, for reproducing failure scenarios).  Both also take
``--trace FILE``: the session runs with a live :mod:`repro.obs` tracer and
the span timeline (spans + summary + SRT decomposition) lands in ``FILE``
as JSON, ready for ``repro obs summarize`` / ``repro obs tree``.

``obs`` inspects observability artifacts: ``summarize`` and ``tree`` read
a ``--trace`` JSON file offline; ``metrics`` pulls the process-wide
registry from a *running* ``repro serve`` instance over the wire
(Prometheus-style text by default, ``--format json`` for the snapshot).

``lint`` runs **boomerlint**, the codebase-aware static analyzer of
:mod:`repro.analysis`: AST rules R1–R7 enforce this repo's determinism,
error-taxonomy, oracle-contract, metrics/span-naming, public-API,
lock-discipline, and storage-seam invariants (see docs/ANALYSIS.md).
Exits 0 when clean, 1 with ``file:line:col: RULE message`` diagnostics
otherwise.

Exit codes are distinct so scripts can branch on the outcome::

    0  success (CAP path)
    1  error (bad input, protocol violation, unhandled failure)
    2  success but *degraded* — matches came from the BU fallback ladder
    3  deadline exceeded
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.core.actions import Action, NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.core.preprocessor import make_context, preprocess
from repro.core.ranking import RANKINGS, rank_results
from repro.errors import DeadlineExceededError, QueryFileError, ReproError
from repro.faults import FaultPlan
from repro.graph.generators import dblp_like, flickr_like, wordnet_like
from repro.graph.io import load_edge_list, save_edge_list
from repro.graph.stats import compute_stats
from repro.gui.render import to_dot, to_text
from repro.resilience import POSTURES, ResilienceConfig

__all__ = [
    "main",
    "parse_query_file",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_DEGRADED",
    "EXIT_DEADLINE",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEGRADED = 2
EXIT_DEADLINE = 3

_GENERATORS = {
    "wordnet": wordnet_like,
    "dblp": dblp_like,
    "flickr": flickr_like,
}


def parse_query_file(path: str | Path) -> list[Action]:
    """Parse the query-file format into an action list ending with Run."""
    actions: list[Action] = []
    declared: set[int] = set()
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "v":
                    vid = int(parts[1])
                    label = " ".join(parts[2:])
                    if not label:
                        raise QueryFileError("vertex missing label")
                    actions.append(NewVertex(vid, label))
                    declared.add(vid)
                elif parts[0] == "e":
                    u, v = int(parts[1]), int(parts[2])
                    lower = int(parts[3]) if len(parts) > 3 else 1
                    upper = int(parts[4]) if len(parts) > 4 else lower
                    if u not in declared or v not in declared:
                        raise QueryFileError("edge references undeclared vertex")
                    actions.append(NewEdge(u, v, lower, upper))
                else:
                    raise QueryFileError(f"unknown record {parts[0]!r}")
            except (ValueError, IndexError) as exc:
                # int() raises bare ValueError and short lines IndexError;
                # both re-wrap so callers see one typed error with location.
                raise QueryFileError(f"{path}:{lineno}: {exc}") from exc
    if not actions:
        raise QueryFileError(f"{path}: empty query file")
    actions.append(Run())
    return actions


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.dataset]
    graph = generator(args.n, seed=args.seed)
    save_edge_list(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    print(compute_stats(graph).describe())
    return 0


def _load_fault_plan(args: argparse.Namespace) -> FaultPlan | None:
    raw = getattr(args, "fault_plan", None)
    return FaultPlan.from_json(raw) if raw else None


def _make_tracer(args: argparse.Namespace):
    """A live tracer when ``--trace`` was given, the no-op one otherwise."""
    from repro.obs.trace import NULL_TRACER, Tracer

    return Tracer() if getattr(args, "trace", None) else NULL_TRACER


def _write_trace(tracer, path: str) -> None:
    """Finish ``tracer`` and dump its timeline as ``repro obs`` input."""
    import json

    from repro.obs import export as obs_export

    tracer.finish()
    spans = tracer.export()
    payload = {
        "spans": spans,
        "summary": obs_export.summarize(spans),
        "decomposition": obs_export.srt_decomposition(spans),
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"trace ({len(spans)} spans) written to {path}", file=sys.stderr)


def _resilience_config(
    args: argparse.Namespace, plan: FaultPlan | None
) -> ResilienceConfig | None:
    """Assemble the resilience posture the flags describe (None = off)."""
    config = ResilienceConfig.from_posture(args.resilience, args.deadline)
    if config is None:
        return None
    if plan is not None and plan.cap is not None and not config.verify_cap_on_run:
        # Injected storage rot without an audit could silently change
        # answers; storage is known untrusted here, so verification is on.
        config = replace(config, verify_cap_on_run=True)
    return config


def _cmd_query(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.graph)
    print(f"loaded {graph}", file=sys.stderr)
    actions = parse_query_file(args.query)
    pre = preprocess(graph, t_avg_samples=args.t_avg_samples)
    print(pre.summary(), file=sys.stderr)

    plan = _load_fault_plan(args)
    config = _resilience_config(args, plan)
    ctx = make_context(pre)
    if plan is not None:
        ctx = plan.wrap_context(ctx)
    tracer = _make_tracer(args)
    boomer = Boomer(
        ctx,
        strategy=args.strategy,
        max_results=args.max_matches,
        resilience=config,
        tracer=tracer,
    )
    for action in actions[:-1]:
        boomer.apply(action)
    if plan is not None:
        # Storage rot lands after formulation, right before the Run click.
        plan.corrupt_cap(boomer.cap)
    boomer.apply(actions[-1])
    run = boomer.run_result
    print(
        f"V_delta: {run.num_matches} upper-bound matches"
        f"{' (truncated)' if run.matches.truncated else ''}, "
        f"SRT {run.srt_seconds * 1e3:.2f} ms, "
        f"CAP size {run.cap_size.total}",
        file=sys.stderr,
    )
    if run.degraded:
        print(
            f"DEGRADED: {run.degradation_reason} -> fallback {run.fallback}",
            file=sys.stderr,
        )

    results = boomer.results(limit=args.limit)
    if args.rank:
        results = rank_results(
            results, boomer.query, boomer.engine.ctx, scheme=args.rank
        )
    for result in results:
        print()
        print(to_text(result, graph, boomer.query))
    if args.dot and results:
        Path(args.dot).write_text(
            to_dot(results[0], graph, boomer.query), encoding="utf-8"
        )
        print(f"\nDOT of top match written to {args.dot}", file=sys.stderr)
    if args.trace:
        _write_trace(tracer, args.trace)
    return EXIT_DEGRADED if run.degraded else EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.gui.recording import load_actions
    from repro.gui.session import VisualSession

    graph = load_edge_list(args.graph)
    actions = load_actions(args.recording)
    pre = preprocess(graph, t_avg_samples=args.t_avg_samples)
    print(pre.summary(), file=sys.stderr)
    plan = _load_fault_plan(args)
    tracer = _make_tracer(args)
    session = VisualSession(
        make_context(pre),
        resilience=_resilience_config(args, plan),
        fault_plan=plan,
        tracer=tracer,
    )
    result = session.run_actions(
        actions,
        instance_name=str(args.recording),
        strategy=args.strategy,
        max_results=args.max_matches,
    )
    print(
        f"replayed {len(actions)} actions ({args.strategy}): "
        f"{result.num_matches} matches, SRT {result.srt_seconds * 1e3:.2f} ms, "
        f"backlog {result.backlog_seconds * 1e3:.2f} ms, "
        f"CAP time {result.cap_construction_seconds * 1e3:.2f} ms",
        file=sys.stderr,
    )
    if result.degraded:
        print(
            f"DEGRADED: {result.run.degradation_reason} -> fallback {result.fallback}",
            file=sys.stderr,
        )
    for subgraph in result.boomer.results(limit=args.limit):
        print()
        print(to_text(subgraph, graph, result.boomer.query))
    if args.trace:
        _write_trace(tracer, args.trace)
    return EXIT_DEGRADED if result.degraded else EXIT_OK


def _load_served_context(args: argparse.Namespace):
    """``(context, basis_dir)`` for ``serve``/``soak``: the ``--graph``
    file preprocessed now (no saved basis), or the registry's
    ``--dataset`` bundle and the directory its basis is cached in."""
    if args.graph:
        graph = load_edge_list(args.graph)
        print(f"loaded {graph}", file=sys.stderr)
        pre = preprocess(graph, t_avg_samples=args.t_avg_samples)
        print(pre.summary(), file=sys.stderr)
        return make_context(pre), None
    from repro.datasets.registry import get_dataset

    bundle = get_dataset(args.dataset, args.scale)
    print(bundle.pre.summary(), file=sys.stderr)
    return bundle.make_context(), bundle.basis_dir


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import BasisFormatError
    from repro.service import QueryServer, ServeConfig, open_host
    from repro.service.session import SessionLimits
    from repro.storage import context_from_basis, load_basis

    config = ServeConfig(
        workers=args.workers,
        max_sessions=args.max_sessions,
        cap_entry_budget=args.cap_budget,
        default_limits=SessionLimits(
            resilience=ResilienceConfig.from_posture(args.resilience, args.deadline)
        ),
        checkpoint_dir=args.checkpoint_dir,
        storage=args.storage,
        storage_dir=args.storage_dir,
    )
    base_ctx = None
    if config.storage_dir:
        # A named dir already holding a valid saved basis serves as-is —
        # no graph build, no PML construction.  This is how a paper-scale
        # basis (or a previous run's --storage-dir) comes back up in
        # milliseconds.
        try:
            base_ctx = context_from_basis(load_basis(config.storage_dir))
        except BasisFormatError:
            pass  # nothing saved there yet: build below, save into it
        else:
            print(
                f"opened saved basis '{base_ctx.graph.name}' "
                f"from {config.storage_dir}",
                file=sys.stderr,
            )
    if base_ctx is None:
        base_ctx, basis_dir = _load_served_context(args)
        if config.basis_kind == "mmap" and not config.storage_dir and basis_dir:
            # The registry's cache entry is this very basis: open it in
            # place (a pool's workers included) and write nothing.
            config = replace(config, storage_dir=str(basis_dir))

    server = QueryServer(open_host(base_ctx, config), host=args.host, port=args.port)
    host, port = server.address
    mode = (
        f"{args.workers} workers" if args.workers > 0 else "threaded"
    ) + f", {config.basis_kind} basis"
    # The banner line is a parsing contract (smoke tests, scripts): keep
    # it exactly `serving on host:port`; the mode goes to stderr.
    print(f"serving on {host}:{port}", flush=True)
    print(f"backend: {mode}", file=sys.stderr, flush=True)
    stats: dict[str, object] = {}
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        try:
            stats = server.backend.dispatch({"op": "stats"})
        except Exception:
            stats = {}
        server.stop()
        print(
            f"served {stats.get('sessions_created', 0)} sessions "
            f"({stats.get('runs_completed', 0)} runs, "
            f"{stats.get('sessions_evicted', 0)} evicted); bye",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_soak(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServeConfig
    from repro.service.overload import OverloadPolicy
    from repro.soak import SLO, run_soak
    from repro.workload import SoakWorkloadConfig

    base_ctx, _ = _load_served_context(args)

    if args.workers > 0:
        # Fault wrappers cannot cross the process boundary; the pool
        # soak's chaos is the worker SIGKILL.
        plan = None
    elif args.fault_plan:
        plan = FaultPlan.from_json(args.fault_plan)
    elif args.chaos:
        # Default chaos mix: transient oracle faults and GUI latency
        # turbulence, seeded from the workload seed so one --seed pins
        # the entire experiment.
        from repro.faults import GUIFaultSpec, OracleFaultSpec

        plan = FaultPlan(
            seed=args.seed,
            oracle=OracleFaultSpec(transient_rate=0.02, transient_burst=2),
            gui=GUIFaultSpec(drop_rate=0.05, spike_rate=0.05),
        )
    else:
        plan = None

    workload = SoakWorkloadConfig(
        seed=args.seed,
        sessions=args.sessions,
        mean_interarrival_seconds=args.mean_interarrival,
        modify_rate=args.modify_rate,
        abandon_rate=args.abandon_rate,
        postures=tuple(args.postures.split(",")),
    )
    config = ServeConfig(
        workers=args.workers,
        max_sessions=args.max_sessions,
        cap_entry_budget=args.cap_budget,
        overload=OverloadPolicy(
            session_watermark=args.session_watermark,
            cap_watermark=args.cap_watermark,
            max_inflight=args.max_inflight,
        ),
    )
    report = run_soak(
        base_ctx,
        workload,
        config,
        fault_plan=plan,
        slo=SLO(max_memory_growth_mib=args.max_memory_growth),
        time_scale=args.time_scale,
        lock_monitor=not args.no_lock_monitor,
        kill_worker_after=args.kill_worker_after,
    )
    payload = report.to_dict()
    payload["workload"] = {
        "seed": workload.seed,
        "sessions": workload.sessions,
        "postures": list(workload.postures),
    }
    payload["fault_plan"] = plan.to_dict() if plan else None
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"soak {verdict}: {report.runs_completed} runs, "
        f"{report.requests_shed} shed, {report.sessions_restored} restored, "
        f"{report.leaked_sessions} leaked, "
        f"p95={report.run_latency.get('p95', 0.0):.3f}s",
        file=sys.stderr,
    )
    for violation in report.violations:
        print(f"SLO violation: {violation}", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_ERROR


def _load_trace_file(path: str) -> list[dict]:
    """Span records from a ``--trace`` dump (envelope dict or bare list)."""
    import json

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read trace file {path}: {exc}") from exc
    spans = payload.get("spans") if isinstance(payload, dict) else payload
    if not isinstance(spans, list):
        raise ReproError(f"{path}: expected a span list or a 'spans' key")
    return spans


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs import export as obs_export

    if args.obs_command == "metrics":
        from repro.service import ServiceClient

        try:
            with ServiceClient(args.host, args.port) as client:
                if args.format == "json":
                    snapshot = client.metrics()["metrics"]
                    print(json.dumps(snapshot, indent=2, sort_keys=True))
                else:
                    print(client.metrics(format="text")["text"], end="")
        except OSError as exc:
            raise ReproError(
                f"cannot reach repro serve at {args.host}:{args.port}: {exc}"
            ) from exc
        return EXIT_OK

    spans = _load_trace_file(args.trace)
    if args.obs_command == "tree":
        print(obs_export.render_tree(spans, max_depth=args.max_depth))
        return EXIT_OK
    # summarize
    report = {
        "summary": obs_export.summarize(spans),
        "decomposition": obs_export.srt_decomposition(spans),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_update_check(args: argparse.Namespace) -> int:
    """Seeded mini-conformance run for incremental graph updates.

    Generates seeded synthetic graphs, applies a random insert/delete
    schedule through :mod:`repro.updates`, and asserts that the
    maintained index answers every distance byte-identically to a fresh
    PML build on the mutated graph (plus two-hop count parity).  This is
    the fast CI gate next to the full hypothesis suite in
    ``tests/test_updates_conformance.py``.
    """
    import numpy as np

    from repro.errors import GraphMutationError
    from repro.indexing.pml import PrunedLandmarkLabeling
    from repro.indexing.twohop import two_hop_counts
    from repro.updates import delete_edge, insert_edge
    from repro.utils.rng import seeded_rng

    rng = seeded_rng(args.seed)
    updates_applied = 0
    for round_no in range(args.rounds):
        graph = _GENERATORS[args.dataset](args.n, seed=rng.randrange(1 << 30))
        pre = preprocess(graph, t_avg_samples=64)
        ctx = make_context(pre)
        n = graph.num_vertices
        for _ in range(args.steps):
            kind = rng.choice(("insert", "delete"))
            if kind == "insert":
                for _attempt in range(32):
                    u, v = rng.randrange(n), rng.randrange(n)
                    if u != v and not graph.has_edge(u, v):
                        insert_edge(ctx, u, v)
                        updates_applied += 1
                        break
            else:
                edges = list(graph.iter_edges())
                if not edges:
                    continue
                u, v = rng.choice(edges)
                try:
                    delete_edge(ctx, u, v)
                except GraphMutationError:
                    continue
                updates_applied += 1
        fresh = PrunedLandmarkLabeling.build(graph)
        targets = np.arange(n, dtype=np.int64)
        for source in range(n):
            got = np.asarray(ctx.oracle.distances_from(source, targets))
            want = np.asarray(fresh.distances_from(source, targets))
            if not np.array_equal(got, want):
                bad = int(np.nonzero(got != want)[0][0])
                print(
                    f"update-check FAIL (round {round_no}, seed {args.seed}): "
                    f"dist({source}, {bad}) = {int(got[bad])} incremental "
                    f"vs {int(want[bad])} fresh at epoch {graph.epoch}",
                    file=sys.stderr,
                )
                return EXIT_ERROR
        if not np.array_equal(np.asarray(ctx.two_hop), two_hop_counts(graph)):
            print(
                f"update-check FAIL (round {round_no}, seed {args.seed}): "
                "two-hop counts diverged from a fresh recount",
                file=sys.stderr,
            )
            return EXIT_ERROR
        print(
            f"round {round_no}: {graph.num_vertices} vertices, "
            f"epoch {graph.epoch}, answers identical to fresh build",
            file=sys.stderr,
        )
    print(
        f"update-check PASS: {args.rounds} round(s), "
        f"{updates_applied} update(s), incremental == fresh everywhere"
    )
    return EXIT_OK


def _cmd_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import (
        LintEngine,
        apply_baseline,
        load_baseline,
        rule_ids,
        to_sarif,
        write_baseline,
    )
    from repro.errors import LintUsageError

    if args.list_rules:
        for rule in LintEngine().rules:
            print(f"{rule.id}  {rule.title}")
        return EXIT_OK
    if args.rules:
        wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
        engine = LintEngine.for_rule_ids(wanted)
    else:
        engine = LintEngine()
    cache = engine.open_cache(Path(args.cache)) if args.cache else None
    report = engine.lint_paths(args.paths, cache=cache)

    if args.update_baseline:
        write_baseline(Path(args.update_baseline), report.violations)
        print(
            f"baseline written: {len(report.violations)} violation(s) "
            f"accepted in {args.update_baseline}",
            file=sys.stderr,
        )
        return EXIT_OK
    if args.baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            raise LintUsageError(
                f"baseline file not found: {baseline_path} "
                "(create one with --update-baseline)"
            )
        fresh, tolerated = apply_baseline(
            report.violations, load_baseline(baseline_path)
        )
        report.violations = fresh
        report.baselined = tolerated

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(to_sarif(report, engine.rules), indent=2))
    else:
        for violation in report.violations:
            print(violation.format())
        extras = f" ({report.suppressed} suppressed)"
        if report.baselined:
            extras += f" ({report.baselined} baselined)"
        summary = (
            f"{len(report.violations)} violation(s) in "
            f"{report.files_checked} file(s)" + extras
        )
        print(summary if report.violations or report.suppressed else
              f"clean: {report.files_checked} file(s), "
              f"rules {', '.join(rule_ids())}", file=sys.stderr)
        if cache is not None:
            print(
                f"cache: {cache.hits} hit(s), {cache.misses} miss(es)",
                file=sys.stderr,
            )
    return EXIT_OK if report.ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="BOOMER BPH query engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="emit a synthetic dataset")
    generate.add_argument("--dataset", choices=sorted(_GENERATORS), required=True)
    generate.add_argument("--n", type=int, default=1000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True)
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="describe a graph file")
    stats.add_argument("--graph", required=True)
    stats.set_defaults(func=_cmd_stats)

    query = sub.add_parser("query", help="evaluate a BPH query")
    query.add_argument("--graph", required=True)
    query.add_argument("--query", required=True)
    query.add_argument("--strategy", default="DI", choices=("IC", "DR", "DI"))
    query.add_argument("--limit", type=int, default=10, help="results to print")
    query.add_argument(
        "--max-matches", type=int, default=100_000, help="V_delta enumeration cap"
    )
    query.add_argument("--rank", choices=sorted(RANKINGS), default=None)
    query.add_argument("--dot", default=None, help="write top match as DOT here")
    query.add_argument("--t-avg-samples", type=int, default=5000)
    _add_resilience_flags(query)
    _add_trace_flag(query)
    query.set_defaults(func=_cmd_query)

    replay = sub.add_parser(
        "replay", help="replay a recorded formulation session (JSON)"
    )
    replay.add_argument("--graph", required=True)
    replay.add_argument("--recording", required=True)
    replay.add_argument("--strategy", default="DI", choices=("IC", "DR", "DI"))
    replay.add_argument("--limit", type=int, default=10)
    replay.add_argument("--max-matches", type=int, default=100_000)
    replay.add_argument("--t-avg-samples", type=int, default=5000)
    _add_resilience_flags(replay)
    _add_trace_flag(replay)
    replay.set_defaults(func=_cmd_replay)

    serve = sub.add_parser(
        "serve", help="host the multi-session query service (JSON lines/TCP)"
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", default=None, help="edge-list graph file")
    source.add_argument(
        "--dataset", choices=sorted(_GENERATORS), default=None,
        help="serve a registry dataset instead of a graph file",
    )
    serve.add_argument(
        "--scale", default="tiny", metavar="SCALE",
        help="dataset scale preset; validated by the registry, whose error "
        "lists every registered preset (paper scale: docs/STORAGE.md)",
    )
    serve.add_argument(
        "--storage",
        choices=("resident", "mmap"),
        default="resident",
        help="engine-basis storage: resident arrays (default, bit-for-bit "
        "today's behavior) or a demand-paged on-disk mmap basis; with "
        "--workers N the basis is always the mmap files, which every "
        "worker opens read-only (see docs/STORAGE.md)",
    )
    serve.add_argument(
        "--storage-dir",
        default=None,
        metavar="DIR",
        help="where the mmap basis lives (default: the dataset cache's "
        "own directory for --dataset, else a private temp dir deleted on "
        "exit; a named dir is reused across restarts)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7474, help="0 picks a free port"
    )
    serve.add_argument("--max-sessions", type=int, default=64)
    serve.add_argument(
        "--cap-budget",
        type=int,
        default=1_000_000,
        metavar="ENTRIES",
        help="total CAP entries across sessions before LRU eviction",
    )
    serve.add_argument("--t-avg-samples", type=int, default=5000)
    serve.add_argument(
        "--resilience",
        choices=POSTURES,
        default="off",
        help="default resilience posture for hosted sessions",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-session Run-phase budget",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="worker processes sharing one saved basis through the page "
        "cache (0 = today's in-process threaded path)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="persist session checkpoints here (restores survive process "
        "restarts; the pool defaults to a private temp dir)",
    )
    serve.set_defaults(func=_cmd_serve)

    soak = sub.add_parser(
        "soak",
        help="chaos-soak a live service against an SLO (see docs/SERVICE.md)",
    )
    soak_source = soak.add_mutually_exclusive_group(required=True)
    soak_source.add_argument("--graph", default=None, help="edge-list graph file")
    soak_source.add_argument(
        "--dataset", choices=sorted(_GENERATORS), default=None,
        help="soak a registry dataset instead of a graph file",
    )
    soak.add_argument(
        "--scale", default="tiny", metavar="SCALE",
        help="dataset scale preset (validated by the dataset registry)",
    )
    soak.add_argument("--t-avg-samples", type=int, default=5000)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--sessions", type=int, default=20)
    soak.add_argument(
        "--mean-interarrival", type=float, default=0.5, metavar="SECONDS",
        help="mean Pareto interarrival gap in virtual seconds",
    )
    soak.add_argument("--modify-rate", type=float, default=0.3)
    soak.add_argument("--abandon-rate", type=float, default=0.1)
    soak.add_argument(
        "--postures", default="default,strict",
        help="comma-separated resilience postures to rotate through",
    )
    soak.add_argument(
        "--max-sessions", type=int, default=8,
        help="deliberately tight session budget so backpressure fires",
    )
    soak.add_argument("--cap-budget", type=int, default=100_000)
    soak.add_argument("--session-watermark", type=float, default=0.75)
    soak.add_argument("--cap-watermark", type=float, default=0.85)
    soak.add_argument("--max-inflight", type=int, default=32)
    soak.add_argument(
        "--time-scale", type=float, default=0.02,
        help="wall seconds per virtual second of think/arrival time",
    )
    soak.add_argument(
        "--chaos", action="store_true",
        help="enable the default seeded fault plan (oracle + GUI faults)",
    )
    soak.add_argument(
        "--fault-plan", default=None, metavar="FILE|JSON",
        help="explicit FaultPlan (overrides --chaos)",
    )
    soak.add_argument(
        "--no-lock-monitor", action="store_true",
        help="skip lock-order monitoring (slightly faster)",
    )
    soak.add_argument(
        "--max-memory-growth", type=float, default=256.0, metavar="MIB",
    )
    soak.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report JSON here (e.g. BENCH_soak.json)",
    )
    soak.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="soak the worker-pool backend instead of the threaded manager",
    )
    soak.add_argument(
        "--kill-worker-after", type=float, default=None, metavar="SECONDS",
        help="SIGKILL one seeded-random worker this long into the soak "
        "(requires --workers)",
    )
    soak.set_defaults(func=_cmd_soak)

    obs = sub.add_parser(
        "obs", help="inspect observability artifacts (traces, metrics)"
    )
    obs.set_defaults(func=_cmd_obs)
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help="span-tree summary + SRT decomposition of a trace"
    )
    summarize.add_argument("--trace", required=True, help="trace JSON file")
    tree = obs_sub.add_parser("tree", help="render a trace as an ASCII tree")
    tree.add_argument("--trace", required=True, help="trace JSON file")
    tree.add_argument(
        "--max-depth", type=int, default=None, help="clip nesting below this"
    )
    metrics_cmd = obs_sub.add_parser(
        "metrics", help="fetch the metrics registry from a running server"
    )
    metrics_cmd.add_argument("--host", default="127.0.0.1")
    metrics_cmd.add_argument("--port", type=int, default=7474)
    metrics_cmd.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    update_check = sub.add_parser(
        "update-check",
        help="seeded incremental-vs-fresh conformance check for graph updates",
    )
    update_check.add_argument("--seed", type=int, default=7)
    update_check.add_argument(
        "--rounds", type=int, default=3, help="independent graphs to exercise"
    )
    update_check.add_argument(
        "--n", type=int, default=60, help="vertices per synthetic graph"
    )
    update_check.add_argument(
        "--steps", type=int, default=12, help="edge updates per round"
    )
    update_check.add_argument(
        "--dataset", choices=sorted(_GENERATORS), default="wordnet"
    )
    update_check.set_defaults(func=_cmd_update_check)

    lint = sub.add_parser(
        "lint", help="run boomerlint invariant checks over Python sources"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="tolerate violations recorded in FILE; fail only on new ones",
    )
    lint.add_argument(
        "--update-baseline", default=None, metavar="FILE",
        help="record the current violations as the accepted baseline and exit",
    )
    lint.add_argument(
        "--cache", default=None, metavar="FILE",
        help="content-hash incremental cache (created if absent)",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def _add_trace_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="trace the session and write its span timeline here (JSON)",
    )


def _add_resilience_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--resilience",
        choices=POSTURES,
        default="off",
        help="resilience posture (retries, degradation, CAP verification)",
    )
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="Run-phase wall-clock budget (implies --resilience default)",
    )
    sub.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help="fault-injection plan: a JSON file path or inline JSON",
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns an exit code (see module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DeadlineExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEADLINE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
