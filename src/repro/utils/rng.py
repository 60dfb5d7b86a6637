"""Seeded randomness helpers.

Everything stochastic in this reproduction — synthetic graph generation,
label assignment, query instantiation, random distance-query sampling for
``t_avg`` — flows through explicitly seeded generators so that experiments
are reproducible run to run.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["seeded_rng", "spawn_rng"]


def seeded_rng(seed: int | None) -> random.Random:
    """Return a private :class:`random.Random` seeded with ``seed``.

    ``None`` yields an OS-seeded generator (only appropriate for ad-hoc
    exploration; all library entry points default to a fixed seed).
    """
    return random.Random(seed)


def spawn_rng(parent: random.Random, stream: str) -> random.Random:
    """Derive an independent child generator from ``parent``.

    ``stream`` names the purpose (e.g. ``"labels"``, ``"edges"``) so that
    adding a new consumer of randomness does not perturb the draws of
    existing consumers — the child seed mixes the parent's state with the
    stream name rather than consuming draws positionally.  The name is
    mixed in by CRC-32, not :func:`hash`: string hashes are salted per
    process, and a child must draw the same in every process.
    """
    base = parent.getrandbits(64)
    return random.Random((base << 32) | zlib.crc32(stream.encode()))
