"""Whole-graph dense subgraph discovery via the growth process.

Runs the same multiply-round-truncate process as the local search, but
starting from the all-ones vector on each side with pruning fractions that
grow over time.  The densest level pair found is within a logarithmic factor
of the top adjacency eigenvalue, which itself dominates every subgraph
density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .graph import LEFT, RIGHT, BipartiteGraph, is_int
from .growth import LevelVector, run_pruned_growth
from .local import DensityResult, GrowthTrace

__all__ = ["GlobalSchedule", "global_density", "global_guarantee_bound"]


@dataclass(frozen=True)
class GlobalSchedule:
    """Horizon and pruning fractions for a whole-graph run on n vertices.

    The horizon is the smallest integer h with 4**h >= 4n, and the pruning
    fraction doubles each step from 1 / (8 * sqrt(n)).  The final fraction
    always lands in [1/4, 1/2), safely inside the legal range.
    """

    vertex_count: int
    horizon: int
    epsilons: tuple

    @classmethod
    def for_size(cls, vertex_count: int) -> "GlobalSchedule":
        if not is_int(vertex_count) or vertex_count < 1:
            raise DomainError(f"vertex count must be a positive integer, got {vertex_count!r}")
        vertex_count = int(vertex_count)
        horizon = 1
        while 4**horizon < 4 * vertex_count:
            horizon += 1
        base = 1.0 / (8.0 * math.sqrt(vertex_count))
        epsilons = tuple(base * 2.0**t for t in range(horizon + 1))
        return cls(vertex_count, horizon, epsilons)


def global_guarantee_bound(eigenvalue: float, vertex_count: int) -> float:
    """Density guaranteed for the whole-graph run: eigenvalue / (8 + 4 * log2 n)."""
    if not eigenvalue > 0:
        raise DomainError("eigenvalue must be positive")
    if not vertex_count >= 2:
        raise DomainError("bound requires at least two vertices")
    return eigenvalue / (8.0 + 4.0 * math.log2(vertex_count))


def global_density(g: BipartiteGraph, keep_trace: bool = False) -> DensityResult:
    """Run the process from the all-ones vector on each side; keep the denser find.

    Ties prefer the left-start run.  The bound field holds the guarantee
    factor 1 / (8 + 4 * log2 n): the returned density is at least that factor
    times the top adjacency eigenvalue.
    """
    sched = GlobalSchedule.for_size(g.vertex_count)
    starts = [LevelVector.ones(LEFT, g.left_count), LevelVector.ones(RIGHT, g.right_count)]
    batch = run_pruned_growth(g, starts, sched.epsilons, keep_trace)
    out_l, out_r = batch.outcomes

    # construction demands an edge, so each side has a vertex with a
    # neighbor, and each all-ones start takes its first step
    winner, label = out_l, "ones:L"
    if out_r.density > out_l.density:
        winner, label = out_r, "ones:R"

    traces = None
    if keep_trace:
        traces = (GrowthTrace("ones:L", out_l.trace), GrowthTrace("ones:R", out_r.trace))
    return DensityResult(
        subgraph=winner.best,
        found_at=winner.best_at,
        start=label,
        bound=global_guarantee_bound(1.0, g.vertex_count),
        bound_eps=None,
        target_size=None,
        edges_touched=batch.edges_touched,
        steps=batch.steps_executed,
        traces=traces,
    )
