"""Synthetic graph generators and dataset emulators.

The paper evaluates on WordNet (82K vertices / 125K edges / 5 labels),
DBLP (317K / 1.1M / 100 random labels) and Flickr (1.8M / 23M / 3000 random
labels).  A pure-Python path-indexing stack cannot hold those scales in an
interactive loop (reproduction band repro=3), so this module provides
dataset *emulators* (:func:`wordnet_like`, :func:`dblp_like`,
:func:`flickr_like`) that reproduce, at a configurable reduced scale, the
properties the BOOMER algorithms are actually sensitive to:

- the edge/vertex density ratio of each dataset (1.5 / 3.5 / ~13),
- the label-alphabet size (5 / 100 / 3000) and, for WordNet, the skewed
  label frequencies (nouns dominate) that create the huge candidate sets
  |V_q| which make edges "expensive",
- heavy-tailed degrees and ultra-small-world distances (preferential
  attachment), which drive both PML label sizes and path-search costs.

All emulators take an explicit seed and return the largest connected
component so that distance queries are meaningful.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.errors import GraphBuildError
from repro.graph.algorithms import largest_component
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph
from repro.utils.rng import seeded_rng

__all__ = [
    "assign_labels_uniform",
    "assign_labels_zipf",
    "wordnet_like",
    "dblp_like",
    "flickr_like",
]

Label = Hashable

#: Share of WordNet synsets per part-of-speech (nouns dominate), taken from
#: the published WordNet 3.0 statistics; the paper labels vertices with the
#: part-of-speech character codes n/v/a/s/r.
WORDNET_LABELS: tuple[str, ...] = ("n", "v", "a", "s", "r")
WORDNET_LABEL_WEIGHTS: tuple[float, ...] = (0.70, 0.12, 0.06, 0.09, 0.03)


# ---------------------------------------------------------------------------
# Label assignment
# ---------------------------------------------------------------------------
def assign_labels_uniform(n: int, num_labels: int, seed: int = 0) -> list[int]:
    """``n`` labels drawn uniformly from ``0..num_labels-1``.

    This is exactly how the paper labels DBLP (100 labels) and Flickr
    (3000 labels): "randomly assign each vertex to a label".
    """
    rng = seeded_rng(seed)
    return [rng.randrange(num_labels) for _ in range(n)]


def assign_labels_zipf(
    n: int,
    labels: Sequence[Label],
    weights: Sequence[float],
    seed: int = 0,
) -> list[Label]:
    """``n`` labels drawn from ``labels`` with the given relative weights."""
    if len(labels) != len(weights):
        raise GraphBuildError("labels and weights must align")
    rng = seeded_rng(seed)
    return rng.choices(list(labels), weights=list(weights), k=n)


# ---------------------------------------------------------------------------
# Dataset emulators
# ---------------------------------------------------------------------------
def wordnet_like(n: int = 4000, seed: int = 7) -> Graph:
    """WordNet-analog: sparse (|E| ≈ 1.5|V|), 5 part-of-speech labels, skewed.

    The dominant ``"n"`` label creates very large candidate sets, which is
    what makes WordNet the dataset where deferment pays off most in the
    paper (Exp 3).
    """
    labels = assign_labels_zipf(n, WORDNET_LABELS, WORDNET_LABEL_WEIGHTS, seed=seed)
    # |E|/|V| = 1.5: attach alternately with m=1 and m=2.  A BA process with
    # mixed attachment keeps the heavy tail while hitting the target density.
    graph = _mixed_attachment(n, ratio=1.5, seed=seed, labels=labels, name="wordnet-like")
    graph = largest_component(graph)
    graph.name = "wordnet-like"
    return graph


def dblp_like(n: int = 8000, seed: int = 11, num_labels: int = 100) -> Graph:
    """DBLP-analog: |E| ≈ 3.5|V|, uniformly random integer labels.

    ``num_labels`` defaults to the paper's 100; the dataset registry scales
    it down with ``n`` so the *per-label candidate-set size* — the quantity
    the expensive-edge predicate (Def. 5.8) actually depends on — keeps its
    paper-relative magnitude at reduced graph scale.
    """
    labels = assign_labels_uniform(n, num_labels, seed=seed)
    graph = _mixed_attachment(n, ratio=3.5, seed=seed, labels=labels, name="dblp-like")
    graph = largest_component(graph)
    graph.name = "dblp-like"
    return graph


def flickr_like(
    n: int = 15000,
    seed: int = 13,
    num_labels: int = 3000,
    edge_ratio: float | None = None,
) -> Graph:
    """Flickr-analog: dense (|E| ≈ 8|V| at our scale), many random labels.

    The full Flickr ratio is ~12.8; the default caps the emulated density
    at 8 to keep pure-Python PML construction interactive, which preserves
    the property the experiments rely on: tiny per-label candidate sets,
    so *no* edge is expensive and IC ≈ DR ≈ DI (Fig. 8, Flickr panel).
    The registry's ``paper`` preset overrides ``edge_ratio`` to the full
    ~12.8 (those builds go through the mmap storage backend, not an
    interactive loop).  ``num_labels`` is registry-scaled like in
    :func:`dblp_like`.
    """
    labels = assign_labels_uniform(n, num_labels, seed=seed)
    ratio = 8.0 if edge_ratio is None else float(edge_ratio)
    graph = _mixed_attachment(n, ratio=ratio, seed=seed, labels=labels, name="flickr-like")
    graph = largest_component(graph)
    graph.name = "flickr-like"
    return graph


def _mixed_attachment(
    n: int,
    ratio: float,
    seed: int,
    labels: Sequence[Label],
    name: str,
) -> Graph:
    """BA-style growth hitting an average edge density of ``ratio`` edges/vertex.

    Each arriving vertex attaches to ``floor(ratio)`` or ``ceil(ratio)``
    existing vertices, chosen stochastically so the expectation is ``ratio``.
    """
    if n < 4:
        raise GraphBuildError("dataset emulators need n >= 4")
    lo = max(1, int(ratio))
    hi = lo + 1
    frac = ratio - lo
    rng = seeded_rng(seed ^ 0x5EED)
    builder = GraphBuilder(name=name)
    builder.add_vertices(labels)

    endpoints: list[int] = []
    core = min(max(lo + 1, 3), n)
    for v in range(1, core):
        builder.add_edge(v - 1, v)
        endpoints.extend((v - 1, v))

    for v in range(core, n):
        m_attach = hi if rng.random() < frac else lo
        m_attach = min(m_attach, v)  # cannot attach to more vertices than exist
        targets: set[int] = set()
        attempts = 0
        while len(targets) < m_attach and attempts < 50 * m_attach:
            targets.add(endpoints[rng.randrange(len(endpoints))])
            attempts += 1
        for t in targets:
            builder.add_edge(v, t)
            endpoints.extend((v, t))
    return builder.build()
