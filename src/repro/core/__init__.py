"""BOOMER core: the paper's primary contribution.

Public surface:

* :class:`BPHQuery` / :class:`Bounds` — the bounded 1-1 p-hom query model;
* GUI actions (:class:`NewVertex` ... :class:`Run`) and
  :class:`ActionStream`;
* :class:`Boomer` — the query blender facade (Algorithm 1);
* :class:`CAPIndex` — the online Compact Adaptive Path index;
* the three construction strategies (IC / DR / DI);
* enumeration (``partial_vertex_sets``) and just-in-time lower-bound
  filtering (``filter_by_lower_bound`` / ``detect_path``);
* the offline :func:`preprocess` step producing the :class:`EngineContext`.
"""

from repro.core.actions import (
    Action,
    ActionStream,
    DeleteEdge,
    ModifyBounds,
    NewEdge,
    NewVertex,
    Run,
)
from repro.core.blender import ActionReport, BlenderEngine, Boomer, RunResult
from repro.core.cap import CAPIndex, CAPSizeReport
from repro.core.context import EngineContext, EngineCounters
from repro.core.cost import CostModel, GUILatencyConstants
from repro.core.edge_pool import EdgePool
from repro.core.enumerate import (
    PartialMatches,
    iter_partial_vertex_sets,
    partial_vertex_sets,
    reorder_matching_order,
)
from repro.core.explore import (
    estimate_selectivity,
    suggest_extension_labels,
)
from repro.core.lowerbound import ResultSubgraph, detect_path, filter_by_lower_bound
from repro.core.matcher import (
    LabelEqualityMatcher,
    SimilarityMatcher,
    VertexMatcher,
    jaccard_label_similarity,
)
from repro.core.modification import ModificationReport, delete_edge, modify_bounds
from repro.core.preprocessor import (
    PreprocessResult,
    make_context,
    measure_t_avg,
    preprocess,
)
from repro.core.pvs import (
    large_upper_search,
    neighbor_search,
    populate_vertex_set,
    two_hop_search,
)
from repro.core.query import BPHQuery, Bounds, QueryEdge, QueryVertex, canonical_edge
from repro.core.ranking import RANKINGS, rank_results
from repro.core.strategies import (
    STRATEGY_NAMES,
    ConstructionStrategy,
    DeferToIdleStrategy,
    DeferToRunStrategy,
    ImmediateStrategy,
    make_strategy,
)

__all__ = [
    "Action",
    "ActionStream",
    "DeleteEdge",
    "ModifyBounds",
    "NewEdge",
    "NewVertex",
    "Run",
    "ActionReport",
    "BlenderEngine",
    "Boomer",
    "RunResult",
    "CAPIndex",
    "CAPSizeReport",
    "EngineContext",
    "EngineCounters",
    "CostModel",
    "GUILatencyConstants",
    "EdgePool",
    "PartialMatches",
    "iter_partial_vertex_sets",
    "partial_vertex_sets",
    "reorder_matching_order",
    "ResultSubgraph",
    "detect_path",
    "filter_by_lower_bound",
    "LabelEqualityMatcher",
    "SimilarityMatcher",
    "VertexMatcher",
    "jaccard_label_similarity",
    "estimate_selectivity",
    "suggest_extension_labels",
    "RANKINGS",
    "rank_results",
    "ModificationReport",
    "delete_edge",
    "modify_bounds",
    "PreprocessResult",
    "make_context",
    "measure_t_avg",
    "preprocess",
    "large_upper_search",
    "neighbor_search",
    "populate_vertex_set",
    "two_hop_search",
    "BPHQuery",
    "Bounds",
    "QueryEdge",
    "QueryVertex",
    "canonical_edge",
    "STRATEGY_NAMES",
    "ConstructionStrategy",
    "DeferToIdleStrategy",
    "DeferToRunStrategy",
    "ImmediateStrategy",
    "make_strategy",
]
