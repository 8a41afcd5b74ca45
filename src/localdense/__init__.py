"""Dense subgraph discovery on weighted bipartite graphs.

The package centers on a growth process that repeatedly multiplies a sparse
vector by the adjacency, rounds entries up to powers of two, and prunes the
small ones.  Grouping the vector by powers of two yields candidate
subgraphs; the densest one comes with provable quality:

- local_density explores outward from a single seed vertex, doing work
  independent of the graph size, and competes with any dense subgraph the
  seed sits well inside.
- global_density starts from the all-ones vector on each side and lands
  within a logarithmic factor of the top adjacency eigenvalue.
- The oracle routines (exact_densest, top_eigenvalue, good_seed_set) supply
  ground truth and certify which seeds are worth growing from.

Directed graphs are handled by the standard doubling trick: from_directed
puts every vertex on both sides and turns arcs into crossing edges.
"""

from .errors import (
    DomainError,
    EmptyGraph,
    EmptySide,
    LocalDenseError,
    NegativeEntry,
    NegativeWeight,
    NoCandidate,
    ParseError,
    PreconditionFailed,
    SideViolation,
    TooLarge,
    UnknownVertex,
)
from .generate import generate_planted
from .globalopt import GlobalSchedule, global_density, global_guarantee_bound
from .graph import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    GraphStats,
    Subgraph,
    build_bipartite,
    degree_stats,
    density,
    edge_weight_between,
    from_directed,
    ratio_density,
    restrict,
)
from .growth import (
    GrowthTrace,
    LevelVector,
    ProcessOutcome,
    StepRecord,
    run_pruned_growth,
)
from .io import (
    load_edge_list,
    parse_records,
    result_record,
    save_edge_list,
    trace_records,
    write_records,
)
from .local import (
    DensityResult,
    LocalSchedule,
    ScanOutcome,
    SeedFailure,
    local_density,
    local_guarantee_bound,
    seed_scan,
)
from .oracle import (
    Certificate,
    EigenEstimate,
    GoodSeedReport,
    exact_densest,
    good_seed_set,
    top_eigenvalue,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "Certificate",
    "DensityResult",
    "DomainError",
    "EigenEstimate",
    "EmptyGraph",
    "EmptySide",
    "GlobalSchedule",
    "GoodSeedReport",
    "GraphStats",
    "GrowthTrace",
    "LEFT",
    "LevelVector",
    "LocalDenseError",
    "LocalSchedule",
    "NegativeEntry",
    "NegativeWeight",
    "NoCandidate",
    "ParseError",
    "PreconditionFailed",
    "ProcessOutcome",
    "RIGHT",
    "ScanOutcome",
    "SeedFailure",
    "SideViolation",
    "StepRecord",
    "Subgraph",
    "TooLarge",
    "UnknownVertex",
    "build_bipartite",
    "degree_stats",
    "density",
    "edge_weight_between",
    "exact_densest",
    "from_directed",
    "generate_planted",
    "global_density",
    "global_guarantee_bound",
    "good_seed_set",
    "load_edge_list",
    "local_density",
    "local_guarantee_bound",
    "parse_records",
    "ratio_density",
    "restrict",
    "result_record",
    "run_pruned_growth",
    "save_edge_list",
    "seed_scan",
    "top_eigenvalue",
    "trace_records",
    "write_records",
]
