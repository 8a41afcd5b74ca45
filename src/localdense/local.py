"""Locally discover a dense subgraph around a single seed vertex.

The run touches only edges incident to the working vector's support, so its
cost depends on the seed's neighborhood and the requested subgraph size, not
on the size of the whole graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

from .errors import DomainError, NoCandidate, UnknownVertex
from .graph import BipartiteGraph, Subgraph, is_int
from .growth import LevelVector, run_pruned_growth

__all__ = [
    "LocalSchedule",
    "DensityResult",
    "ScanOutcome",
    "SeedFailure",
    "local_density",
    "local_guarantee_bound",
    "seed_scan",
]


@dataclass(frozen=True)
class LocalSchedule:
    """Horizon and pruning fractions for a local run targeting sets of size
    up to target_size per side.

    The horizon is the smallest integer h with 4**h >= 2 * target_size, and
    the pruning fraction halves each step starting from 1 / (8 * target_size).
    """

    target_size: int
    horizon: int
    epsilons: tuple

    @classmethod
    def for_target(cls, target_size: int) -> "LocalSchedule":
        if not is_int(target_size) or target_size < 1:
            raise DomainError(f"target size must be a positive integer, got {target_size!r}")
        target_size = int(target_size)
        horizon = 1
        while 4**horizon < 2 * target_size:
            horizon += 1
        base = 1.0 / (8.0 * target_size)
        epsilons = tuple(base * 2.0**-t for t in range(horizon + 1))
        if epsilons[0] > 1.0:
            raise DomainError("pruning fraction above one")
        return cls(target_size, horizon, epsilons)


@dataclass
class DensityResult:
    """Output of a local or whole-graph run.

    found_at is (step, exponent of the working vector's level, exponent of
    the rounded product's level) for the winning pair.  bound is the
    guarantee factor: for a local run the output density is at least bound
    times half the density of any subgraph of the target size containing the
    seed in a good position; for a whole-graph run it is at least bound times
    the top adjacency eigenvalue.  bound_eps is the same factor computed from
    the schedule's initial pruning fraction instead of the closed form; it is
    the tighter of the two when the maximum degree is large.  Either may be
    None when the graph falls outside the bound's domain.
    """

    subgraph: Subgraph
    found_at: tuple
    start: str
    bound: float | None
    bound_eps: float | None
    target_size: int | None
    edges_touched: int
    steps: int
    traces: tuple | None

    @property
    def density(self) -> float:
        return self.subgraph.density


@dataclass(frozen=True)
class SeedFailure:
    seed: object
    kind: str
    message: str


@dataclass
class ScanOutcome:
    results: list
    failures: list


def local_guarantee_bound(density_threshold: float, max_degree: float, target_size: int) -> float:
    """Density guaranteed for a good seed: threshold over 8 * log2(16 * degree * size)."""
    if not density_threshold > 0:
        raise DomainError("density threshold must be positive")
    if not max_degree >= 1:
        raise DomainError("bound requires max degree at least one")
    if not target_size >= 1:
        raise DomainError("bound requires target size at least one")
    return density_threshold / (8.0 * math.log2(16.0 * max_degree * target_size))


def _bound_factors(g: BipartiteGraph, schedule: LocalSchedule):
    delta = g.max_degree
    factor = None
    if delta >= 1:
        factor = 1.0 / (8.0 * math.log2(16.0 * delta * schedule.target_size))
    factor_eps = None
    arg = 2.0 * delta / schedule.epsilons[0]
    if arg > 1.0:
        factor_eps = 1.0 / (8.0 * math.log2(arg))
    return factor, factor_eps


def local_density(
    g: BipartiteGraph,
    seed: Hashable,
    target_size: int,
    side: str | None = None,
    keep_trace: bool = False,
) -> DensityResult:
    """Grow from one seed vertex and return the densest level pair seen.

    seed is an external vertex id; with side=None it resolves to the left
    copy when the token exists on both sides.  target_size caps the sizes of
    the subgraphs the guarantee speaks about.

    Raises UnknownVertex for a missing seed and NoCandidate for an isolated
    one.
    """
    sched = LocalSchedule.for_target(target_size)
    seed_side, idx = g.find_vertex(seed, side)
    start = LevelVector.unit(seed_side, idx)
    label = f"seed:{seed_side}:{seed}"
    outcome = run_pruned_growth(g, start, sched.epsilons, keep_trace, label)
    if outcome.best is None:
        raise NoCandidate(f"seed {seed!r} has no incident edges")
    bound, bound_eps = _bound_factors(g, sched)
    return DensityResult(
        subgraph=outcome.best.subgraph,
        found_at=outcome.best_at,
        start=label,
        bound=bound,
        bound_eps=bound_eps,
        target_size=sched.target_size,
        edges_touched=outcome.edges_touched,
        steps=outcome.steps_executed,
        traces=(outcome.trace,) if keep_trace else None,
    )


def seed_scan(
    g: BipartiteGraph,
    seeds: Sequence,
    target_size: int,
    top_n: int = 10,
    parallel: int = 1,
    keep_trace: bool = False,
) -> ScanOutcome:
    """Run local_density over many seeds and keep the densest distinct results.

    Seeds are external ids, optionally as (id, side) pairs, and run one
    after another in the given order.  Results that name the same vertex
    pair are deduplicated keeping the earliest seed, and the survivors are
    ordered by density with ties broken by seed order.  A seed that fails
    (unknown or isolated) is recorded, not fatal.  parallel is accepted for
    compatibility and ignored: threads gave no speedup on this pure-Python
    and small-array work.
    """
    if top_n < 1:
        raise DomainError("top_n must be at least one")
    failures: list = []
    seen: set = set()
    ordered: list = []
    for order, seed in enumerate(seeds):
        pinned = isinstance(seed, tuple) and len(seed) == 2 and seed[1] in ("L", "R")
        token, side = seed if pinned else (seed, None)
        try:
            res = local_density(g, token, target_size, side, keep_trace)
        except (UnknownVertex, NoCandidate) as exc:
            failures.append(SeedFailure(seed, type(exc).__name__, str(exc)))
            continue
        key = (res.subgraph.left, res.subgraph.right)
        if key not in seen:
            seen.add(key)
            ordered.append((order, res))
    ordered.sort(key=lambda pair: (-pair[1].density, pair[0]))
    return ScanOutcome([res for _, res in ordered[:top_n]], failures)
