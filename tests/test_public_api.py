"""The frozen public API surface of the :mod:`repro` package.

``repro.__all__`` is a contract: programs written against the facade
(``from repro import Boomer, Graph, ServiceClient, metrics``) must not
break because a refactor re-exported something by accident or dropped a
name.  This test pins the exact list — growing or shrinking the public
surface requires editing EXPECTED here, deliberately, in the same PR.
"""

import pytest

import repro

#: The one and only list of public names.  Keep sorted per section to
#: match ``repro/__init__.py``.
EXPECTED = [
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


def test_public_surface_is_exactly_the_frozen_list():
    added = set(repro.__all__) - set(EXPECTED)
    removed = set(EXPECTED) - set(repro.__all__)
    assert not added, (
        f"names added to repro.__all__ without updating the API freeze: "
        f"{sorted(added)}"
    )
    assert not removed, (
        f"names removed from repro.__all__ — breaking change: {sorted(removed)}"
    )


def test_no_duplicates_in_all():
    assert len(repro.__all__) == len(set(repro.__all__))


@pytest.mark.parametrize("name", EXPECTED)
def test_every_public_name_is_importable(name):
    assert hasattr(repro, name), f"repro.{name} listed in __all__ but missing"
    assert getattr(repro, name) is not None


def test_star_import_exports_only_the_public_surface():
    namespace: dict = {}
    exec("from repro import *", namespace)
    imported = {k for k in namespace if not k.startswith("__")}
    assert imported == {n for n in EXPECTED if not n.startswith("__")}


def test_version_is_a_semver_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_facade_names_are_the_canonical_objects():
    """The facade re-exports, never wraps: identity with the home module."""
    from repro.core.blender import Boomer
    from repro.graph.graph import Graph
    from repro.gui.session import VisualSession
    from repro.obs.metrics import MetricsRegistry, metrics
    from repro.obs.trace import Tracer
    from repro.service.client import ServiceClient
    from repro.service.server import QueryServer

    assert repro.Boomer is Boomer
    assert repro.Graph is Graph
    assert repro.VisualSession is VisualSession
    assert repro.QueryServer is QueryServer
    assert repro.ServiceClient is ServiceClient
    assert repro.Tracer is Tracer
    assert repro.MetricsRegistry is MetricsRegistry
    assert repro.metrics is metrics
    assert isinstance(repro.metrics, MetricsRegistry)


def test_obs_submodule_is_publicly_reachable():
    assert repro.obs.Tracer is repro.Tracer
    assert repro.obs.metrics is repro.metrics
    assert callable(repro.obs.clock.now)
