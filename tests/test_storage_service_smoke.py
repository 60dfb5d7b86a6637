"""Service smoke over every storage backend (CI ``storage-matrix`` job).

Each parametrization serves a real ``QueryServer`` over a context opened
through one storage backend and checks the wire answers against a direct
in-process Boomer run on the original context.  CI runs this file once
per backend with ``REPRO_STORAGE_BACKEND`` set, so a regression pins the
failing backend in the job name; locally (env unset) all backends run.
"""

from __future__ import annotations

import os

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.service import QueryServer, ServiceClient, SessionManager, canonical_matches
from repro.storage import BACKEND_NAMES, basis_from_context, open_backend

ACTIONS = [
    NewVertex(0, "A"),
    NewVertex(1, "B"),
    NewEdge(0, 1, 1, 2),
    NewVertex(2, "C"),
    NewEdge(1, 2, 1, 2),
]

_ENV_BACKEND = os.environ.get("REPRO_STORAGE_BACKEND", "")
BACKENDS = [_ENV_BACKEND] if _ENV_BACKEND else list(BACKEND_NAMES)


def _reference_matches(ctx):
    boomer = Boomer(ctx, strategy="DI", auto_idle=False)
    for action in ACTIONS:
        boomer.apply(action)
    boomer.apply(Run())
    return canonical_matches(boomer.run_result.matches)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_serve_over_backend_matches_resident(backend_name, fig2_ctx, tmp_path):
    """The wire answers are backend-invariant."""
    reference = _reference_matches(fig2_ctx)
    backend = open_backend(
        backend_name, basis=basis_from_context(fig2_ctx), directory=tmp_path / "basis"
    )
    try:
        srv = QueryServer(
            SessionManager(backend.context()), host="127.0.0.1", port=0
        ).start()
        try:
            with ServiceClient(*srv.address) as client:
                pong = client.ping()
                assert pong["graph"] == fig2_ctx.graph.name
                outcome = client.scripted_session(ACTIONS, strategy="DI")
                assert outcome["matches"] == reference
        finally:
            srv.stop()
    finally:
        backend.close()
