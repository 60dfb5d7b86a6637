"""Durable file writes: the flush + fsync + rename sequence, stated once."""

from __future__ import annotations

import os
from pathlib import Path
from typing import IO, Any

__all__ = ["flush_to_disk", "write_atomic"]


def flush_to_disk(handle: IO[Any]) -> None:
    """Push ``handle``'s buffered bytes through the OS cache to the device."""
    handle.flush()
    os.fsync(handle.fileno())


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old file or the new one.

    The bytes land in a sibling temp file, reach the disk, and only then
    take the final name (``os.replace`` is atomic within a filesystem):
    a crash at any point leaves no torn file under ``path``.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        flush_to_disk(handle)
    os.replace(tmp, path)
