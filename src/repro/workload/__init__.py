"""Query workload: the paper's template queries, instantiation, and QFS.

Figure 4 of the paper defines six small template queries — cycles
(Q1, Q2, Q4), a star (Q5) and flowers (Q3, Q6) — matching the topology
statistics of real-life graph-pattern query logs.  Experiments instantiate
these templates on each dataset (choosing vertex labels), override edge
bounds per experiment, and optionally reorder edge formulation (the QFS
sequences of Table 2).
"""

from repro.workload.templates import (
    QueryTemplate,
    TEMPLATES,
    get_template,
    template_names,
)
from repro.workload.generator import (
    QueryInstance,
    instantiate,
    instantiate_from_region,
)
from repro.workload.qfs import QFS_SEQUENCES, qfs_edge_order
from repro.workload.traffic import (
    SessionScript,
    SoakWorkloadConfig,
    generate_soak_schedule,
)

__all__ = [
    "SessionScript",
    "SoakWorkloadConfig",
    "generate_soak_schedule",
    "QueryTemplate",
    "TEMPLATES",
    "get_template",
    "template_names",
    "QueryInstance",
    "instantiate",
    "instantiate_from_region",
    "QFS_SEQUENCES",
    "qfs_edge_order",
]
