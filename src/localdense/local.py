"""Locally discover a dense subgraph around a single seed vertex.

The run touches only edges incident to the working vector's support, so its
cost depends on the seed's neighborhood and the requested subgraph size, not
on the size of the whole graph.

The bounds the pruning schedule gives stand next to the paper's abstract,
which promises O(Delta * k**2) time and output vertices for target size k
and maximum degree Delta.  Step t grows from a vector truncated at fraction
eps_t (or the seed alone), so its support holds at most 1 / eps_t**2
vertices, and the step gathers at most x_support * max_fanout edges.
edges_touched counts each gathered edge twice, so it is at most
2 * max_fanout * sum_t min(1 / eps_t**2, side size).  Under LocalSchedule,
sum_t 1 / eps_t**2 = 64 * k**2 * (4**h - 1) / 3, and 2k <= 4**h < 8k makes
that Theta(k**3), a factor k above the abstract.  The output is one level of
a step's vector and one level of its rounded product, so at most
1 / eps_t**2 + max_fanout / eps_t**2 vertices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Hashable, Iterable, Sequence

from .errors import DomainError, NoCandidate, UnknownVertex
from .graph import BipartiteGraph, Subgraph, is_int
from .growth import LevelVector, run_pruned_growth

__all__ = [
    "LocalSchedule",
    "GrowthTrace",
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
    the pruning fraction halves each step starting from 1 / (8 * target_size):
    eps_t = 2**-t / (8k) for k = target_size and t = 0 .. h.  A run takes h
    steps, and step t's vector holds at most 1 / eps_t**2 vertices, so the
    schedule allows sum_t 1 / eps_t**2 = 64 * k**2 * (4**h - 1) / 3 of them
    over a run, Theta(k**3) against the abstract's O(Delta * k**2) (see the
    module docstring for the edge and output bounds this gives).
    for_target raises DomainError unless target_size is a positive integer
    whose last fraction squared is a normal float, which holds up to about
    5.6e101.
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
        try:
            base = 1.0 / (8.0 * target_size)
        except OverflowError:  # 8 * target_size is past the float range
            base = 0.0
        epsilons = tuple(base * 2.0**-t for t in range(horizon + 1))
        # the step checks square the pruning fractions, so the last one's
        # square must be a normal float; from about 5.6e101 on it is not
        if epsilons[-1] ** 2 < sys.float_info.min:
            raise DomainError(f"target size {target_size} is too large for the float range")
        return cls(target_size, horizon, epsilons)


@dataclass
class GrowthTrace:
    """The StepRecords of one growth run, named by its start."""

    start: str
    steps: list


@dataclass
class DensityResult:
    """Output of a local or whole-graph run.

    found_at is (step, exponent of the working vector's level, exponent of
    the rounded product's level) for the winning pair.  bound is the
    guarantee factor: for a local run the output density is at least bound
    times half the density of any subgraph of the target size containing the
    seed in a good position; for a whole-graph run it is at least bound times
    the top adjacency eigenvalue.  bound_eps is a local run's factor computed
    from the schedule's initial pruning fraction 1/(8k), k the target size,
    instead of the closed form.  As 2 * delta / (1/(8k)) = 16 * delta * k, it
    equals bound up to rounding whenever the maximum degree delta is at least
    one; it is defined on its own only for 1/(16k) < delta < 1.  Only a
    local run's factors may be None, outside the bound's domain.  traces
    holds a GrowthTrace per growth run when the run kept them, else None.
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
    factor = local_guarantee_bound(1.0, delta, schedule.target_size) if delta >= 1 else None
    factor_eps = None
    arg = 2.0 * delta / schedule.epsilons[0]
    if arg > 1.0:
        factor_eps = 1.0 / (8.0 * math.log2(arg))
    return factor, factor_eps


# Lanes per growth call.  Scanning 800 random seeds, half on each side, at
# target size 32 on a 1e6-edge graph cost 631 / 106 / 93 / 89 / 86 us per
# seed at 1 / 32 / 64 / 128 / 400 lanes per call, while one call's peak
# memory grew with its lanes: 0.12 / 2.8 / 5.3 / 10.9 / 35.7 MB (one core
# of a 2-vCPU Xeon VM, numpy 2.4).  The time curve is nearly flat from 64
# lanes on; 128 lets a scan of about a hundred seeds grow in one call.
_LANES = 128


def _grow_seeds(g: BipartiteGraph, seeds: Iterable, sched: LocalSchedule, keep_trace: bool):
    """Grow from each (token, side) seed; side None resolves as in local_density.

    Yields one entry per seed, in order: its start label and ProcessOutcome,
    or the UnknownVertex or NoCandidate error local_density would raise for
    it.  An outcome holds its pair as index arrays and builds its vertex
    sets on first read, so a caller that keeps few of many runs builds
    sets, and through _results DensityResults, for those alone.  A chunk is
    _LANES seed positions: its seeds that resolve grow as the lanes of one
    run_pruned_growth call, each with the outcome it would have alone.  Its
    callers are local_density (one seed), seed_scan and
    verify.run_verification (the traced local runs and the good-seed runs).
    """
    seeds = iter(seeds)
    while chunk := list(islice(seeds, _LANES)):
        found: list = []  # (token, side, index), or the error, per seed
        for token, side in chunk:
            try:
                found.append((token, *g.find_vertex(token, side)))
            except UnknownVertex as exc:
                found.append(exc)
        starts = [LevelVector.unit(*item[1:]) for item in found if isinstance(item, tuple)]
        outcomes = iter(run_pruned_growth(g, starts, sched.epsilons, keep_trace).outcomes)
        for item in found:
            if isinstance(item, Exception):
                yield item
                continue
            outcome = next(outcomes)
            token, side, _ = item
            if outcome.best_at is None:
                yield NoCandidate(f"seed {token!r} has no incident edges")
            else:
                yield f"seed:{side}:{token}", outcome
        # keep no outcome while the next chunk grows
        outcomes = outcome = None


def _results(g: BipartiteGraph, sched: LocalSchedule):
    """The function that makes a DensityResult of a (start, outcome) entry
    of _grow_seeds; every result it makes shares one pair of bound factors."""
    bound, bound_eps = _bound_factors(g, sched)

    def result(start: str, outcome) -> DensityResult:
        trace = outcome.trace
        return DensityResult(
            subgraph=outcome.best,
            found_at=outcome.best_at,
            start=start,
            bound=bound,
            bound_eps=bound_eps,
            target_size=sched.target_size,
            edges_touched=outcome.edges_touched,
            steps=outcome.steps_executed,
            traces=None if trace is None else (GrowthTrace(start, trace),),
        )

    return result


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

    Raises UnknownVertex for a missing seed, NoCandidate for an isolated one
    and DomainError for a side other than "L", "R" or None.
    """
    sched = LocalSchedule.for_target(target_size)
    (run,) = _grow_seeds(g, [(seed, side)], sched, keep_trace)
    if isinstance(run, Exception):
        raise run
    return _results(g, sched)(*run)


def seed_scan(
    g: BipartiteGraph,
    seeds: Sequence,
    target_size: int,
    top_n: int = 10,
    parallel: int = 1,
) -> ScanOutcome:
    """Run local_density over many seeds and keep the densest distinct results.

    Seeds are external ids, optionally as (id, side) pairs.  They grow in
    order, up to 128 at a time as the lanes of one growth call (see
    run_pruned_growth), and each seed's result or failure equals that of
    local_density on its seed alone: one growth call per chunk, whatever
    its seeds do.  Results that name the same vertex pair are deduplicated
    keeping the earliest seed, and the survivors are ordered by density with
    ties broken by seed order.  Deduplication compares each run's pair as
    sorted index arrays, and only the top_n results kept build vertex sets
    and DensityResults.  A seed that fails (unknown or isolated) is recorded,
    in seed order, not fatal.  top_n and target_size are checked before any
    seed grows.  No traces are kept; local_density keeps one seed's.
    parallel is ignored, and kept only because the benchmark's local-scan
    workload passes it positionally: threads gave no speedup on this
    pure-Python and small-array work.
    """
    if not is_int(top_n) or top_n < 1:
        raise DomainError(f"top_n must be a positive integer, got {top_n!r}")
    sched = LocalSchedule.for_target(target_size)
    seeds = list(seeds)

    def pair(seed):
        pinned = isinstance(seed, tuple) and len(seed) == 2 and seed[1] in ("L", "R")
        return seed if pinned else (seed, None)

    failures: list = []
    seen: set = set()
    ordered: list = []  # (-density, seed position, start, outcome) per distinct pair
    runs = _grow_seeds(g, map(pair, seeds), sched, keep_trace=False)
    for order, (seed, run) in enumerate(zip(seeds, runs)):
        if isinstance(run, Exception):
            failures.append(SeedFailure(seed, type(run).__name__, str(run)))
            continue
        start, outcome = run
        # equal sorted int64 index arrays name equal vertex sets
        key = (outcome.left.tobytes(), outcome.right.tobytes())
        if key not in seen:
            seen.add(key)
            ordered.append((-outcome.density, order, start, outcome))
    ordered.sort(key=lambda kept: kept[:2])
    result = _results(g, sched)
    kept = ordered[: int(top_n)]
    return ScanOutcome([result(start, outcome) for *_, start, outcome in kept], failures)
