"""The pruned growth process.

The process walks a sparse nonnegative vector back and forth across the
bipartition: multiply by the adjacency, round every entry up to a power of
two, then drop entries that are small relative to the vector norm.  Because
entries are always exact powers of two, a vector is stored as its sorted
support plus one integer exponent per entry.

Grouping a vector's support by exponent gives its level sets, and each step's
candidate subgraphs are the pairs (level of the current vector, level of the
rounded product).  The densest pair over all steps is the process output.
A step gathers the edges incident to the support once; the same edges give
both the product and the weight of every level pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, NegativeEntry
from .graph import LEFT, BipartiteGraph, Subgraph, opposite

__all__ = [
    "LevelVector",
    "Candidate",
    "StepRecord",
    "GrowthTrace",
    "ProcessOutcome",
    "growth_bound_check",
    "run_pruned_growth",
]


@dataclass(frozen=True, eq=False)
class LevelVector:
    """Sparse vector whose entries are exact powers of two.

    index holds the support (vertex indices on `side`) in ascending order as
    int64, and exps the integer i of each entry's value 2**i.  The Euclidean
    norm is carried alongside.  Two vectors are equal when their sides,
    norms and arrays are.
    """

    side: str
    index: np.ndarray
    exps: np.ndarray
    norm: float

    @classmethod
    def unit(cls, side: str, vertex: int) -> "LevelVector":
        return cls(side, np.array([vertex], dtype=np.int64), np.zeros(1, dtype=np.int64), 1.0)

    @classmethod
    def ones(cls, side: str, count: int) -> "LevelVector":
        index = np.arange(count, dtype=np.int64)
        return cls(side, index, np.zeros_like(index), math.sqrt(count))

    @property
    def support_size(self) -> int:
        return len(self.index)

    @property
    def level_count(self) -> int:
        """Number of distinct exponents, i.e. of nonempty level sets."""
        return len(np.unique(self.exps))

    def __eq__(self, other):
        if not isinstance(other, LevelVector):
            return NotImplemented
        return (
            self.side == other.side
            and self.norm == other.norm
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.exps, other.exps)
        )


@dataclass(frozen=True)
class Candidate:
    """Best level pair of one step: the subgraph plus its level exponents.

    i is the exponent of the current vector's level, j the exponent of the
    rounded product's level.  The subgraph is reported with its left set on
    the graph's left side regardless of which direction the step ran.
    """

    subgraph: Subgraph
    i: int
    j: int

    @property
    def density(self) -> float:
        return self.subgraph.density


def _round_up_pow2(values: np.ndarray) -> np.ndarray:
    """Exponent i of the smallest power of two 2**i >= z, for each positive z.

    frexp gives z = m * 2**e with 0.5 <= m < 1, so 2**e covers z and
    2**(e-1) suffices exactly when m == 0.5.
    """
    m, e = np.frexp(values)
    return e.astype(np.int64) - (m == 0.5)


def _norm(levels: np.ndarray, counts: np.ndarray) -> float:
    """Euclidean norm of counts[k] entries equal to 2**levels[k], levels ascending.

    The top level is factored out of the sum of squares, so the result equals
    sqrt(fsum of the squared entries) whenever each square is a normal float,
    and stays finite and nonzero where those squares would overflow or
    underflow.  A norm beyond the float range raises NegativeEntry.
    """
    if not len(levels):
        return 0.0
    top = int(levels[-1])
    total = math.fsum(
        math.ldexp(c, 2 * (k - top)) for k, c in zip(levels.tolist(), counts.tolist())
    )
    try:
        return math.ldexp(math.sqrt(total), top)
    except OverflowError:
        raise NegativeEntry(f"vector norm overflows at level 2**{top}") from None


def growth_bound_check(
    density_threshold: float,
    max_degree: float,
    eps: float,
    vec_norm: float,
    rounded_norm: float,
    max_pair_density: float,
) -> bool:
    """Check the one-step norm growth cap.

    When every level pair of the step has density at most density_threshold,
    the rounded product's norm must stay within
    2 * density_threshold * vec_norm * log2(2 * max_degree / eps).
    Vacuously true when some pair exceeds the threshold or the step involved
    a zero vector.
    """
    if vec_norm == 0.0 or rounded_norm == 0.0:
        return True
    if max_pair_density > density_threshold:
        return True
    cap = 2.0 * density_threshold * vec_norm * math.log2(2.0 * max_degree / eps)
    return rounded_norm <= cap


@dataclass(frozen=True)
class StepRecord:
    """Everything observed while moving from the step's source vector.

    eps_t is the schedule value indexed with the source vector (used by the
    growth and level-count checks); eps_prune is the next schedule value,
    applied by the truncation that produced the following vector.  x_levels
    is the source vector and post_levels the rounded product before
    truncation.
    """

    t: int
    eps_t: float
    eps_prune: float
    x_side: str
    x_norm: float
    x_support: int
    x_levels: LevelVector
    pre_norm: float
    post_levels: LevelVector
    max_pair_density: float
    pruned_mass: float
    pruned_count: int
    next_support: int
    next_norm: float
    best_so_far: tuple


@dataclass
class GrowthTrace:
    start: str
    steps: list = field(default_factory=list)


@dataclass
class ProcessOutcome:
    best: Candidate | None
    best_at: tuple | None
    steps_executed: int
    edges_touched: int
    stopped_early: bool
    trace: GrowthTrace | None


def run_pruned_growth(
    g: BipartiteGraph,
    start: LevelVector,
    epsilons: Sequence[float],
    keep_trace: bool = False,
    label: str = "",
) -> ProcessOutcome:
    """Drive the process for len(epsilons) - 1 steps from `start`.

    epsilons[t + 1] prunes the step taken from the t-th vector, keeping the
    entries strictly above that fraction of the rounded product's norm;
    epsilons[0] is never applied (the start vector is used as given) but is
    recorded with the first step for bound checking.  Candidates are
    evaluated from the rounded product before each truncation, so a step
    that prunes to zero still contributes its level pairs.  The run stops
    early, without taking the step, when the vector has no incident edges or
    every product entry underflows to zero.  Ties between level pairs prefer
    the smallest (i, j).

    Raises DomainError for a pruning fraction outside [0, 1] and
    NegativeEntry when a product entry or a norm overflows.
    """
    x = start
    best: Candidate | None = None
    best_at: tuple | None = None
    edges_touched = 0
    executed = 0
    stopped = False
    trace = GrowthTrace(label) if keep_trace else None

    for t in range(len(epsilons) - 1):
        # gather the edges incident to the support in (vertex, neighbor) order
        indptr, nbrs, wts = g.csr_arrays(x.side)
        lo = indptr[x.index]
        fan = indptr[x.index + 1] - lo
        rows = np.repeat(np.arange(len(fan)), fan)
        if not len(rows):
            stopped = True
            break
        pos = np.arange(len(rows)) + np.repeat(lo - (np.cumsum(fan) - fan), fan)
        nbr, wt = nbrs[pos], wts[pos]
        # bincount adds in array order, so each product entry sums its terms
        # in ascending source-vertex order
        with np.errstate(over="ignore"):
            terms = np.ldexp(1.0, x.exps)[rows] * wt
        y_all, y_of_edge = np.unique(nbr, return_inverse=True)
        prod = np.bincount(y_of_edge, weights=terms, minlength=len(y_all))
        if np.isinf(prod).any():
            raise NegativeEntry("a product entry overflows to inf")
        live = prod > 0.0  # entries that underflowed to zero are dropped
        if not live.any():
            stopped = True
            break
        y_index = y_all[live]
        y_exps = _round_up_pow2(prod[live])
        y_levels, y_level_of, y_counts = np.unique(
            y_exps, return_inverse=True, return_counts=True
        )
        pre_norm = _norm(y_levels, y_counts)
        executed += 1
        edges_touched += 2 * len(rows)

        # weight of every (x level, y level) pair over the same edges; each
        # pair's sum runs in (vertex, neighbor) order, the order a walk level
        # by level visits that pair's edges in, so no sort by level is needed
        x_levels, x_level_of, x_counts = np.unique(
            x.exps, return_inverse=True, return_counts=True
        )
        on_live = live[y_of_edge]
        live_pos = np.cumsum(live) - 1  # position of each live entry in y_index
        ylev = y_level_of[live_pos[y_of_edge[on_live]]]
        keys = x_level_of[rows[on_live]] * len(y_levels) + ylev
        pairs, pair_of_edge = np.unique(keys, return_inverse=True)
        pair_weight = np.bincount(pair_of_edge, weights=wt[on_live])
        pi, pj = np.divmod(pairs, len(y_levels))
        dens = pair_weight / np.sqrt(x_counts[pi] * y_counts[pj])
        k = int(np.argmax(dens))  # first maximum in (i, j) order
        d = float(dens[k])
        if best is None or d > best.density:
            i, j = int(x_levels[pi[k]]), int(y_levels[pj[k]])
            xs = frozenset(x.index[x_level_of == pi[k]].tolist())
            ys = frozenset(y_index[y_level_of == pj[k]].tolist())
            e = float(pair_weight[k])
            sub = Subgraph(xs, ys, e, d) if x.side == LEFT else Subgraph(ys, xs, e, d)
            best = Candidate(sub, i, j)
            best_at = (t, i, j)

        eps = epsilons[t + 1]
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"truncation fraction {eps!r} outside [0, 1]")
        # a level's entries share one value, so truncation keeps whole levels
        keep = np.ldexp(1.0, y_levels) > eps * pre_norm
        kept = keep[y_level_of]
        y_side = opposite(x.side)
        x_next = LevelVector(
            y_side, y_index[kept], y_exps[kept], _norm(y_levels[keep], y_counts[keep])
        )

        if keep_trace:
            trace.steps.append(
                StepRecord(
                    t=t,
                    eps_t=epsilons[t],
                    eps_prune=eps,
                    x_side=x.side,
                    x_norm=x.norm,
                    x_support=x.support_size,
                    x_levels=x,
                    pre_norm=pre_norm,
                    post_levels=LevelVector(y_side, y_index, y_exps, pre_norm),
                    max_pair_density=d,
                    pruned_mass=_norm(y_levels[~keep], y_counts[~keep]),
                    pruned_count=int(y_counts[~keep].sum()),
                    next_support=x_next.support_size,
                    next_norm=x_next.norm,
                    best_so_far=best_at + (best.density,),
                )
            )

        if not x_next.support_size:
            stopped = True
            break
        x = x_next

    return ProcessOutcome(best, best_at, executed, edges_touched, stopped, trace)
