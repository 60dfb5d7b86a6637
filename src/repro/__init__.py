"""BOOMER (SIGMOD'18) reproduction.

Blending visual formulation and processing of bounded 1-1 p-homomorphic
(BPH) queries on large networks, built from scratch in Python:

* :mod:`repro.graph` — labeled-graph substrate (CSR, generators, IO);
* :mod:`repro.indexing` — Pruned Landmark Labeling distance index;
* :mod:`repro.core` — BPH queries, the CAP index, IC/DR/DI construction
  strategies, result enumeration and just-in-time lower-bound checking;
* :mod:`repro.baseline` — the BOOMER-unaware (BU) baseline;
* :mod:`repro.gui` — the simulated visual interface (latency model,
  simulated users, measured sessions);
* :mod:`repro.workload` — template queries Q1–Q6 and instantiation;
* :mod:`repro.datasets` — emulated WordNet/DBLP/Flickr datasets;
* :mod:`repro.experiments` — the harness regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro.datasets import get_dataset
    from repro.gui import VisualSession
    from repro.workload import instantiate

    bundle = get_dataset("wordnet", scale="tiny")
    session = VisualSession(bundle.make_context(), bundle.latency)
    result = session.run(instantiate("Q1", bundle.graph), strategy="DI")
    print(result.num_matches, result.srt_seconds)
"""

from repro import obs
from repro.core import (
    BlenderEngine,
    Boomer,
    BPHQuery,
    Bounds,
    CAPIndex,
    GUILatencyConstants,
    NewEdge,
    NewVertex,
    ModifyBounds,
    DeleteEdge,
    Run,
    RunResult,
    make_context,
    preprocess,
)
from repro.baseline import BoomerUnaware
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ResilienceError,
    RetryExhaustedError,
)
from repro.graph import Graph
from repro.gui import SessionResult, VisualSession
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    metrics,
)
from repro.service import QueryServer, ServiceClient, SessionManager
from repro.service.client import RetryPolicy
from repro.utils.timing import Deadline

__version__ = "1.0.0"

#: The supported public surface.  ``tests/test_public_api.py`` pins this
#: list — additions and removals are API decisions, made deliberately
#: there, never as an import side effect.
__all__ = [
    # engine
    "Boomer",
    "BlenderEngine",
    "BPHQuery",
    "Bounds",
    "CAPIndex",
    "Graph",
    "GUILatencyConstants",
    "NewEdge",
    "NewVertex",
    "ModifyBounds",
    "DeleteEdge",
    "Run",
    "RunResult",
    "make_context",
    "preprocess",
    "BoomerUnaware",
    # harness
    "VisualSession",
    "SessionResult",
    # service
    "QueryServer",
    "ServiceClient",
    "SessionManager",
    # observability
    "obs",
    "Tracer",
    "NullTracer",
    "MetricsRegistry",
    "metrics",
    # errors & resilience
    "ReproError",
    "ResilienceError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "Deadline",
    "RetryPolicy",
    "__version__",
]
