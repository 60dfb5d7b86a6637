"""Tests for repro.utils.files: an atomic write is also a durable one."""

import os
import stat

from repro.utils import files
from repro.utils.files import write_atomic


def test_write_atomic_replaces_content(tmp_path):
    path = tmp_path / "meta.json"
    write_atomic(path, "old")
    write_atomic(path, "new")
    assert path.read_text(encoding="utf-8") == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]


def test_write_atomic_fsyncs_the_parent_directory(tmp_path, monkeypatch):
    """The rename is an entry of the parent directory: until that directory
    reaches the disk, a write reported done can vanish on power loss."""
    synced: list[tuple[bool, int]] = []
    real_fsync = os.fsync

    def spy(fd):
        mode = os.fstat(fd).st_mode
        synced.append((stat.S_ISDIR(mode), os.fstat(fd).st_ino))
        real_fsync(fd)

    monkeypatch.setattr(files.os, "fsync", spy)
    write_atomic(tmp_path / "ck.json", "{}")
    directories = [ino for is_dir, ino in synced if is_dir]
    assert directories == [os.stat(tmp_path).st_ino]
    # The file's own bytes were synced before the rename.
    assert synced[0][0] is False
