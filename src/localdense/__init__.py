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

The names exported here are the API.  The engine behind it (the growth
process run_pruned_growth and its ProcessOutcome, the LocalSchedule and
GlobalSchedule pruning schedules) is importable from localdense.growth,
localdense.local and localdense.globalopt.
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
from .globalopt import global_density, global_guarantee_bound
from .graph import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    Subgraph,
    build_bipartite,
    density,
    edge_weight_between,
    from_directed,
    ratio_density,
    restrict,
)
from .growth import LevelVector, StepRecord
from .io import (
    load_edge_list,
    result_record,
    save_edge_list,
    trace_records,
    write_records,
)
from .local import (
    DensityResult,
    GrowthTrace,
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
    "GoodSeedReport",
    "GrowthTrace",
    "LEFT",
    "LevelVector",
    "LocalDenseError",
    "NegativeEntry",
    "NegativeWeight",
    "NoCandidate",
    "ParseError",
    "PreconditionFailed",
    "RIGHT",
    "ScanOutcome",
    "SeedFailure",
    "SideViolation",
    "StepRecord",
    "Subgraph",
    "TooLarge",
    "UnknownVertex",
    "build_bipartite",
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
    "ratio_density",
    "restrict",
    "result_record",
    "save_edge_list",
    "seed_scan",
    "top_eigenvalue",
    "trace_records",
    "write_records",
]
