"""Script generation and the in-process reference pass (own process).

Run by ``run.py`` as ``python perf/reference.py <workload> <smoke>`` once
the server child is up, so the load generator itself never imports the
engine: it receives, as one JSON line on stdout, the wire-ready actions of
every script and what a serial in-process ``Boomer`` answered for each - the
answers the service's replies are checked against.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.actions import Run  # noqa: E402
from repro.core.blender import Boomer  # noqa: E402
from repro.datasets.registry import get_dataset  # noqa: E402
from repro.gui.latency import LatencyModel  # noqa: E402
from repro.gui.simulator import SimulatedUser  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.updates import delete_edge, insert_edge  # noqa: E402
from repro.workload.generator import instantiate  # noqa: E402

from workloads import PAGE, SMOKE_SCRIPTS, WORKLOADS, Workload, digest  # noqa: E402

#: ``SessionLimits.max_results`` - hosted sessions truncate V_delta here.
MAX_RESULTS = 10_000
#: The edges ``mutate_mix`` inserts come from a fixed stream, not from
#: ``--seed``: an insert costs 4-16 ms depending on the edge, so re-drawing
#: them would re-draw the update metrics.
EDGE_STREAM_SEED = 1


def build(workload: Workload, smoke: bool) -> dict:
    bundle = get_dataset(workload.dataset, workload.scale, use_disk_cache=False)
    graph = bundle.graph
    specs = [(t, s) for s in workload.label_seeds for t in workload.templates]
    if smoke:  # two from either end, without the slow Q1 the list starts with
        specs = specs[1 : 1 + SMOKE_SCRIPTS // 2] + specs[-SMOKE_SCRIPTS // 2 :]
    # With updates, the second half of the scripts each get an edge of their
    # own: it is inserted before the session and deleted after it, so the
    # script always runs on the same graph, wherever the round puts it.
    edges: list[tuple[int, int] | None] = [None] * len(specs)
    if workload.updates:
        rng = random.Random(EDGE_STREAM_SEED)
        for i in range(len(specs) // 2, len(specs)):
            while edges[i] is None:
                u, v = rng.randrange(graph.num_vertices), rng.randrange(graph.num_vertices)
                if u != v and not graph.has_edge(u, v) and (u, v) not in edges:
                    edges[i] = (u, v)

    ctx = bundle.make_context()
    scripts = []
    for (template, label_seed), edge in zip(specs, edges):
        instance = instantiate(template, graph, seed=label_seed, dataset=bundle.name)
        if workload.upper3:
            overrides = {instance.template.num_edges: 3}
            if label_seed % 2:
                overrides[1] = 3
            instance = instance.with_upper(overrides)
        user = SimulatedUser(LatencyModel(bundle.latency, jitter=0.0, seed=label_seed))
        actions = user.formulate(instance)[:-1]  # the wire `run` op is the click

        if edge:
            insert_edge(ctx, *edge)
        boomer = Boomer(
            ctx,
            strategy=workload.strategy or "DI",
            auto_idle=False,
            max_results=MAX_RESULTS,
        )
        for action in actions:
            boomer.apply(action)
        boomer.apply(Run())
        matches = protocol.canonical_matches(boomer.run_result.matches)
        probes = sorted({0, len(matches) // 2, len(matches) - 1}) if matches else []
        scripts.append(
            {
                "name": f"{template}#{label_seed}",
                "actions": [protocol.action_payload(a) for a in actions],
                "edge": edge,
                "num_matches": len(matches),
                "digest": digest(matches),
                "probes": [[i, matches[i]] for i in probes],
                "page": [
                    protocol.subgraph_payload(s) for s in boomer.results(limit=PAGE)
                ],
            }
        )
        if edge:
            delete_edge(ctx, *edge)

    return {
        "strategy": workload.strategy,
        "scripts": scripts,
        "graph": {"vertices": graph.num_vertices, "edges": graph.num_edges},
    }


if __name__ == "__main__":
    name, smoke = sys.argv[1], sys.argv[2] == "1"
    sys.stdout.write(json.dumps(build(WORKLOADS[name], smoke)) + "\n")
