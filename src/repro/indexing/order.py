"""Vertex orderings for landmark selection.

PML's pruning power depends almost entirely on processing "central" vertices
first; degree order is the simple, robust choice recommended by Akiba et al.
and is the default everywhere in this reproduction.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph

__all__ = ["degree_order"]


def degree_order(graph: Graph) -> np.ndarray:
    """Vertex ids sorted by decreasing degree (ties broken by id).

    Position in the returned array is the vertex's landmark *rank*: rank 0
    is the highest-degree hub, which prunes most subsequent BFS trees.
    """
    degrees = graph.degree_array()
    # argsort of (-degree, id): lexsort keys are applied last-key-major.
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    return np.lexsort((ids, -degrees)).astype(np.int32)
