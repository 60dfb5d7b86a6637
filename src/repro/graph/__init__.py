"""Graph substrate: labeled undirected simple graphs in CSR form.

This package is the data-graph layer everything else sits on.  The paper
assumes "an undirected, simple graph G = (V, E, L)" (Section 2); here that is
:class:`repro.graph.Graph`, an immutable CSR (compressed sparse row)
structure with sorted adjacency (for O(log deg) edge tests, as assumed by
the in-scan cost model of Lemma 5.3) and a label -> vertices inverted index
(for O(1) retrieval of the candidate set V_q of a query vertex).
"""

from repro.graph.graph import Graph
from repro.graph.builder import GraphBuilder
from repro.graph.io import load_edge_list, save_edge_list
from repro.graph.generators import (
    assign_labels_uniform,
    assign_labels_zipf,
    wordnet_like,
    dblp_like,
    flickr_like,
)
from repro.graph.algorithms import (
    bfs_distances,
    distance,
    connected_components,
    largest_component,
    region_around,
)
from repro.graph.paths import bounded_paths, iter_bounded_paths
from repro.graph.stats import GraphStats, compute_stats

__all__ = [
    "Graph",
    "GraphBuilder",
    "load_edge_list",
    "save_edge_list",
    "assign_labels_uniform",
    "assign_labels_zipf",
    "wordnet_like",
    "dblp_like",
    "flickr_like",
    "bfs_distances",
    "distance",
    "connected_components",
    "largest_component",
    "region_around",
    "bounded_paths",
    "iter_bounded_paths",
    "GraphStats",
    "compute_stats",
]
