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

import pytest

from repro.core.actions import NewEdge, NewVertex, Run
from repro.core.blender import Boomer
from repro.errors import StorageError
from repro.gui.recording import action_to_dict
from repro.service import (
    QueryServer,
    ServeConfig,
    ServiceClient,
    canonical_matches,
    open_host,
    protocol,
)
from repro.storage import BACKEND_NAMES, basis_from_context, save_basis

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
    """The wire answers are backend-invariant."""
    reference = canonical_matches(_reference(fig2_ctx).run_result.matches)
    config = ServeConfig(
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


def _serve_script(backend) -> tuple[bytes, list]:
    """The fixed script over ``backend``: its ``matches`` frame, first page."""
    sid = backend.dispatch({"op": "create_session", "strategy": "DI"})["session"]
    for action in ACTIONS:
        backend.dispatch(
            {"op": "action", "session": sid, "action": action_to_dict(action)}
        )
    backend.dispatch({"op": "run", "session": sid})
    matches = backend.dispatch({"op": "matches", "session": sid})
    page = backend.dispatch({"op": "results", "session": sid, "limit": 10})
    return protocol.encode_line(protocol.ok_response(7, matches)), page["results"]


def _engine_answers(ctx) -> tuple[bytes, list]:
    """What :func:`_serve_script` must return: the in-process engine's bytes."""
    boomer = _reference(ctx)
    block = protocol.match_block(boomer.run_result.matches)
    page = [protocol.subgraph_payload(s) for s in boomer.results(limit=10)]
    assert page  # comparisons against it must be non-vacuous
    return protocol.encode_line(protocol.ok_response(7, {"matches": block})), page


@pytest.mark.parametrize("storage", BACKENDS)
def test_boot_matrix(storage, fig2_ctx, tmp_path, monkeypatch):
    """Every way up answers one fixed script with the in-process engine's
    bytes, and ``stop()`` leaves nothing behind."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # temp dirs land here
    config = ServeConfig(storage=storage)
    assert config.basis_kind == storage
    want = _engine_answers(fig2_ctx)

    server = QueryServer(open_host(fig2_ctx, config), host="127.0.0.1", port=0)
    try:
        # An mmap basis with no directory to open is saved into a temp dir.
        assert any(tmp_path.iterdir()) == (config.basis_kind == "mmap")
        assert _serve_script(server.backend) == want
    finally:
        server.stop()
    assert list(tmp_path.iterdir()) == []  # no temp basis left behind


def test_mmap_host_opens_a_saved_basis_in_place(fig2_ctx, tmp_path, monkeypatch):
    """An mmap host handed a directory that already holds its basis
    (``repro serve --dataset ... --storage mmap`` hands over the registry's
    cache entry) reads it where it lies: no file in it is rewritten or
    added, and no temp basis is saved beside it."""
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    directory = save_basis(basis_from_context(fig2_ctx), tmp_path / "basis")

    def listing():
        stats = ((path.name, path.stat()) for path in directory.iterdir())
        return sorted((name, st.st_size, st.st_mtime_ns) for name, st in stats)

    before = listing()
    host = open_host(
        fig2_ctx, ServeConfig(storage="mmap", storage_dir=str(directory))
    )
    try:
        assert list(temp.iterdir()) == []
        assert _serve_script(host) == _engine_answers(fig2_ctx)
    finally:
        host.close()
    assert listing() == before
    assert list(temp.iterdir()) == []


def test_serve_config_names_the_two_backends():
    """``shm`` was a backend once; it is refused like any unknown name, and
    a storage dir is legal exactly when the basis is files."""
    with pytest.raises(StorageError, match=r"shm.*\('resident', 'mmap'\)"):
        ServeConfig(storage="shm")
    assert ServeConfig(storage="mmap", storage_dir="d").basis_kind == "mmap"
    with pytest.raises(StorageError, match="storage-dir"):
        ServeConfig(storage_dir="d")
