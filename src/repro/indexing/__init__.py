"""Distance-index substrate.

The BOOMER preprocessor builds a **Pruned Landmark Labeling** (PML) index
(Akiba, Iwata, Yoshida — SIGMOD'13) over the data graph: a distance-aware
2-hop cover enabling exact shortest-path distance queries via a merge join
over per-vertex label lists.  BOOMER is orthogonal to the specific oracle
(paper, footnote 5), so the package also ships a plain-BFS oracle used for
testing and for the PML-vs-BFS ablation bench.

An oracle answers the scalar ``distance``/``within`` and the kernels
``distances_from``/``within_many``; :mod:`repro.indexing.batch` holds the
pieces the kernels share and the process-wide distance-vector cache
shared across service sessions.
"""

from repro.indexing.batch import DistanceVectorCache, shared_distance_cache
from repro.indexing.kneighborhood import KNeighborhoodIndex
from repro.indexing.order import degree_order
from repro.indexing.pml import PrunedLandmarkLabeling
from repro.indexing.oracle import BFSOracle, DistanceOracle
from repro.indexing.twohop import two_hop_counts, two_hop_neighbors

__all__ = [
    "KNeighborhoodIndex",
    "degree_order",
    "PrunedLandmarkLabeling",
    "DistanceOracle",
    "BFSOracle",
    "DistanceVectorCache",
    "shared_distance_cache",
    "two_hop_counts",
    "two_hop_neighbors",
]
