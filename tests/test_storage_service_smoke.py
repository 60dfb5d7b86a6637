"""Service smoke over every storage backend (CI ``storage-matrix`` job).

Every case comes up through the one door, ``open_host(ctx, ServeConfig)``,
and checks the wire answers against a direct in-process Boomer run on the
original context.  CI runs this file once per backend with
``REPRO_STORAGE_BACKEND`` set, so a regression pins the failing backend
in the job name; locally (env unset) all backends run.
"""

from __future__ import annotations

import os
import tempfile
from multiprocessing import shared_memory

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.gui.recording import action_to_dict
from repro.service import (
    QueryServer,
    ServeConfig,
    ServiceClient,
    canonical_matches,
    open_host,
    protocol,
)
from repro.storage import BACKEND_NAMES

ACTIONS = [
    NewVertex(0, "A"),
    NewVertex(1, "B"),
    NewEdge(0, 1, 1, 2),
    NewVertex(2, "C"),
    NewEdge(1, 2, 1, 2),
]

_ENV_BACKEND = os.environ.get("REPRO_STORAGE_BACKEND", "")
BACKENDS = [_ENV_BACKEND] if _ENV_BACKEND else list(BACKEND_NAMES)


def _reference(ctx) -> Boomer:
    boomer = Boomer(ctx, strategy="DI", auto_idle=False)
    for action in ACTIONS:
        boomer.apply(action)
    boomer.apply(Run())
    return boomer


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_serve_over_backend_matches_resident(backend_name, fig2_ctx, tmp_path):
    """The wire answers are backend-invariant (shm only exists across
    processes, so that arm serves through one worker)."""
    reference = canonical_matches(_reference(fig2_ctx).run_result.matches)
    config = ServeConfig(
        workers=1 if backend_name == "shm" else 0,
        storage=backend_name,
        storage_dir=str(tmp_path / "basis") if backend_name == "mmap" else None,
    )
    srv = QueryServer(open_host(fig2_ctx, config), host="127.0.0.1", port=0).start()
    try:
        with ServiceClient(*srv.address) as client:
            pong = client.ping()
            assert pong["graph"] == fig2_ctx.graph.name
            outcome = client.scripted_session(ACTIONS, strategy="DI")
            assert outcome["matches"] == reference
    finally:
        srv.stop()


@pytest.mark.parametrize("storage", BACKENDS)
@pytest.mark.parametrize("workers", [0, 2])
def test_boot_matrix(workers, storage, fig2_ctx, tmp_path, monkeypatch):
    """Every way up answers one fixed script with the in-process engine's
    bytes, and ``stop()`` leaves nothing behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # temp dirs land here
    config = ServeConfig(workers=workers, storage=storage)
    # What `repro serve` resolved at the parent: a pool cannot share heap
    # arrays, and shm needs a worker to attach it.
    assert config.basis_kind == {
        (0, "resident"): "resident", (0, "shm"): "resident", (0, "mmap"): "mmap",
        (2, "resident"): "shm", (2, "shm"): "shm", (2, "mmap"): "mmap",
    }[workers, storage]
    boomer = _reference(fig2_ctx)
    block = protocol.match_block(boomer.run_result.matches)
    want_matches = protocol.encode_line(protocol.ok_response(7, {"matches": block}))
    want_page = [protocol.subgraph_payload(s) for s in boomer.results(limit=10)]
    assert want_page  # the comparison below must be non-vacuous

    server = QueryServer(open_host(fig2_ctx, config), host="127.0.0.1", port=0)
    backend = server.backend
    try:
        segments = backend.segment_names() if workers else []
        assert bool(segments) == (config.basis_kind == "shm")
        # A pool makes itself a checkpoint dir, mmap a basis dir: both temp.
        assert any(tmp_path.iterdir()) == (workers > 0 or storage == "mmap")
        sid = backend.dispatch({"op": "create_session", "strategy": "DI"})["session"]
        for action in ACTIONS:
            backend.dispatch(
                {"op": "action", "session": sid, "action": action_to_dict(action)}
            )
        backend.dispatch({"op": "run", "session": sid})
        matches = backend.dispatch({"op": "matches", "session": sid})
        page = backend.dispatch({"op": "results", "session": sid, "limit": 10})
        assert protocol.encode_line(protocol.ok_response(7, matches)) == want_matches
        assert page["results"] == want_page
    finally:
        server.stop()
    for name in segments:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert list(tmp_path.iterdir()) == []  # no temp basis, no temp checkpoints
