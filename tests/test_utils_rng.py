"""Tests for repro.utils.rng."""

import os
import subprocess
import sys
from pathlib import Path

from repro.utils.rng import seeded_rng, spawn_rng

SRC = Path(__file__).resolve().parent.parent / "src"


def test_seeded_rng_reproducible():
    a = seeded_rng(7)
    b = seeded_rng(7)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = seeded_rng(1)
    b = seeded_rng(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_spawn_rng_deterministic():
    parent1 = seeded_rng(3)
    parent2 = seeded_rng(3)
    child1 = spawn_rng(parent1, "labels")
    child2 = spawn_rng(parent2, "labels")
    assert [child1.random() for _ in range(5)] == [child2.random() for _ in range(5)]


def test_spawn_rng_streams_independent():
    parent = seeded_rng(3)
    labels = spawn_rng(parent, "labels")
    edges = spawn_rng(parent, "edges")
    assert [labels.random() for _ in range(5)] != [edges.random() for _ in range(5)]


def test_spawned_child_independent_of_parent_consumption():
    # Drawing from the child must not disturb a sibling spawned later from
    # an identically-seeded parent that also spawned the first stream.
    p1 = seeded_rng(9)
    c1a = spawn_rng(p1, "a")
    _ = [c1a.random() for _ in range(100)]
    c1b = spawn_rng(p1, "b")

    p2 = seeded_rng(9)
    _ = spawn_rng(p2, "a")  # spawned but never drawn from
    c2b = spawn_rng(p2, "b")
    assert c1b.random() == c2b.random()


def test_spawn_rng_draws_the_same_in_every_process():
    """String hashing is salted per process; a child's draws must not be."""
    script = (
        "from repro.utils.rng import seeded_rng, spawn_rng\n"
        "print(spawn_rng(seeded_rng(2024), 'arrivals').random())"
    )
    draws = set()
    for salt in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        draws.add(out.stdout)
    assert len(draws) == 1
