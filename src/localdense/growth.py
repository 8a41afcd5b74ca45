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

run_pruned_growth grows many start vectors at once, one lane per start, and
returns a GrowthBatch.  The lanes that start on one side advance together:
their vectors are held as one set of (lane, index, exponent) arrays sorted by
(lane, index), and each step is one array pass over all of them.  Product
entries are keyed by (lane, neighbor), and level and level-pair ids are lane
local and come from bincounts over small ranges, so nothing of graph size is
allocated.  A lane never sees another: each of its sums runs over its own
terms in the order a batch of one would use, so every lane's outcome equals
that of its start run alone, to the bit.  A lane leaves the batch when its
run stops, or when it overflows: one result per start, errors included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NegativeEntry
from .graph import LEFT, RIGHT, BipartiteGraph, Subgraph, opposite

__all__ = [
    "LevelVector",
    "StepRecord",
    "ProcessOutcome",
    "GrowthBatch",
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


def _round_up_pow2(values: np.ndarray) -> np.ndarray:
    """Exponent i of the smallest power of two 2**i >= z, for each positive z.

    frexp gives z = m * 2**e with 0.5 <= m < 1, so 2**e covers z and
    2**(e-1) suffices exactly when m == 0.5.
    """
    m, e = np.frexp(values)
    return e.astype(np.int64) - (m == 0.5)


def _levels(slot: np.ndarray, exps: np.ndarray, slots: int):
    """Level sets of every lane's vector, numbered in (slot, exponent) order.

    slot and exps give each entry's lane slot (0 <= slot < slots) and
    exponent.  Returns the level of each entry and the slot, exponent and
    entry count of each level.  The numbering comes from one bincount over
    slots times the exponent span, not from a sort.
    """
    if not len(exps):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    low = int(exps.min())
    span = int(exps.max()) - low + 1
    key = slot * span + (exps - low)
    counts = np.bincount(key, minlength=slots * span)
    present = np.flatnonzero(counts)
    level_slot, level_exp = np.divmod(present, span)
    return (np.cumsum(counts > 0) - 1)[key], level_slot, level_exp + low, counts[present]


def _norms(level_slot: np.ndarray, level_exp: np.ndarray, counts: np.ndarray, slots: int):
    """Euclidean norm of each slot's vector of counts[k] entries equal to
    2**level_exp[k], levels ascending within a slot; 0 for a slot without.

    Each slot's top level is factored out of its sum of squares, so a norm
    equals sqrt(fsum of the squared entries) whenever each square is a
    normal float, and stays finite and nonzero where those squares would
    overflow or underflow.  A norm beyond the float range is inf.
    """
    norms = np.zeros(slots)
    if not len(level_slot):
        return norms
    last = np.flatnonzero(np.append(level_slot[1:] != level_slot[:-1], True))
    first = np.append(0, last[:-1] + 1)
    top = level_exp[last]
    terms = np.ldexp(
        counts.astype(np.float64), 2 * (level_exp - np.repeat(top, last - first + 1))
    ).tolist()
    runs = zip(level_slot[last].tolist(), first.tolist(), (last + 1).tolist(), top.tolist())
    for s, a, b, k in runs:
        try:
            norms[s] = math.ldexp(math.sqrt(math.fsum(terms[a:b])), k)
        except OverflowError:
            norms[s] = math.inf
    return norms


def _product(g, side, slot, index, exps, slots):
    """The edges of one step for every lane at once, and their product.

    Gathers the edges incident to the supports in (slot, vertex, neighbor)
    order.  Returns each edge's source entry and weight, each slot's edge
    count, the sorted slot * width + neighbor key of each product entry,
    each edge's product entry and the product values.  bincount adds in
    array order, so each product entry sums its terms in ascending
    source-vertex order.
    """
    indptr, nbrs, wts = g.csr_arrays(side)
    lo = indptr[index]
    fan = indptr[index + 1] - lo
    rows = np.repeat(np.arange(len(fan)), fan)
    pos = np.arange(len(rows)) + np.repeat(lo - (np.cumsum(fan) - fan), fan)
    wt = wts[pos]
    key = slot[rows] * g.side_count(opposite(side)) + nbrs[pos]
    del pos  # np.unique takes about five more arrays of this length
    keys, y_of_edge = np.unique(key, return_inverse=True)
    del key
    with np.errstate(over="ignore"):
        terms = np.ldexp(1.0, exps)[rows] * wt
    prod = np.bincount(y_of_edge, weights=terms, minlength=len(keys))
    edges = np.bincount(slot, weights=fan, minlength=slots).astype(np.int64)
    return rows, wt, edges, keys, y_of_edge, prod


def _pair_weights(slot, rows, wt, y_slot, y_of_edge, live, x_levels, y_levels, slots):
    """Weight of every (x level, y level) pair of each lane that has edges.

    Each pair's sum runs over its edges in (vertex, neighbor) order, the
    order a walk level by level visits them in.  Slot s owns the ids
    pair_base[s] + i * ny[s] + j for its i-th x level and j-th y level, so
    a bincount over them lists the pairs in (slot, i, j) order.  Returns
    the slot, x level, y level and weight of each pair, levels as numbered
    by _levels.
    """
    x_level_of, x_level_slot = x_levels[:2]
    y_level_of, y_level_slot = y_levels[:2]
    nx = np.bincount(x_level_slot, minlength=slots)
    ny = np.bincount(y_level_slot, minlength=slots)
    x_first, y_first = np.cumsum(nx) - nx, np.cumsum(ny) - ny
    pair_end = np.cumsum(nx * ny)
    pair_base = pair_end - nx * ny
    total = int(pair_end[-1])
    # an edge's id is its source entry's part plus its product entry's;
    # edges into entries that underflowed land past the last id and are
    # cut off
    x_part = pair_base[slot] + (x_level_of - x_first[slot]) * ny[slot]
    y_part = np.full(len(live), total)
    y_part[live] = y_level_of - y_first[y_slot]
    ids = x_part[rows] + y_part[y_of_edge]
    weight = np.bincount(ids, weights=wt, minlength=total)[:total]
    # edge weights are positive, so a pair has edges exactly when its
    # weight does
    pairs = np.flatnonzero(weight)
    p_slot = np.searchsorted(pair_end, pairs, side="right")
    pi, pj = np.divmod(pairs - pair_base[p_slot], ny[p_slot])
    return p_slot, pi + x_first[p_slot], pj + y_first[p_slot], weight[pairs]


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
class ProcessOutcome:
    """One start's run.  best is the densest level pair's subgraph, its left
    set on the graph's left side, and best_at its (step, i, j) as in
    DensityResult.found_at; both are None when no step was taken.  trace
    lists the run's StepRecords when kept, else None.
    """

    best: Subgraph | None
    best_at: tuple | None
    steps_executed: int
    edges_touched: int
    stopped_early: bool
    trace: list | None


@dataclass
class GrowthBatch:
    """Result of one run_pruned_growth call.

    outcomes holds one ProcessOutcome, or NegativeEntry, per start in start
    order; edges_touched and steps_executed total the ProcessOutcomes.
    """

    outcomes: list
    edges_touched: int
    steps_executed: int


def run_pruned_growth(
    g: BipartiteGraph,
    starts: Sequence[LevelVector],
    epsilons: Sequence[float],
    keep_trace: bool = False,
) -> GrowthBatch:
    """Drive the process for len(epsilons) - 1 steps from each start.

    Every start is an independent lane, and every lane gets the outcome a
    batch holding only that start would give, to the bit: its product
    entries and level-pair weights sum their terms in the same order, and it
    keeps the same first maximum.  Lanes from one side advance together, one
    array pass per step, and leave the batch when their run stops; the left
    starts run before the right ones.

    epsilons[t + 1] prunes the step taken from the t-th vector, keeping the
    entries strictly above that fraction of the rounded product's norm;
    epsilons[0] is never applied (the start vector is used as given) but is
    recorded with the first step for bound checking.  Candidates are
    evaluated from the rounded product before each truncation, so a step
    that prunes to zero still contributes its level pairs.  A run stops
    early, without taking the step, when the vector has no incident edges or
    every product entry underflows to zero.  Ties between level pairs prefer
    the smallest (i, j).

    One result per start, errors included: a lane whose product entry or
    norm overflows leaves the batch, and its outcome is that NegativeEntry.
    Raises DomainError for a start entry that is not a positive float (an
    exponent outside [-1074, 1023]), and before any lane grows for a
    pruning fraction epsilons[1:] outside [0, 1].
    """
    starts = list(starts)
    for eps in epsilons[1:]:
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"truncation fraction {eps!r} outside [0, 1]")
    outcomes: list = [None] * len(starts)
    for side in (LEFT, RIGHT):
        lanes = [k for k, start in enumerate(starts) if start.side == side]
        if lanes:
            grown = _grow_lanes(g, side, [starts[k] for k in lanes], epsilons, keep_trace)
            for k, out in zip(lanes, grown):
                outcomes[k] = out
    runs = [out for out in outcomes if isinstance(out, ProcessOutcome)]
    return GrowthBatch(
        outcomes,
        sum(out.edges_touched for out in runs),
        sum(out.steps_executed for out in runs),
    )


def _grow_lanes(g, side, starts, epsilons, keep_trace) -> list:
    """run_pruned_growth for starts that all lie on `side`.

    The working vectors of the lanes still running are held as one
    (slot, index, exps) triple of arrays sorted by (slot, index), where slot
    k is lane active[k]; each lane's norm is norm[slot].
    """
    lanes = len(starts)
    best: list = [None] * lanes  # (t, i, j, x set, y set, weight, density, x side)
    best_d = np.full(lanes, -np.inf)
    executed = np.zeros(lanes, dtype=np.int64)
    touched = np.zeros(lanes, dtype=np.int64)
    stopped = np.zeros(lanes, dtype=bool)
    failed: list = [None] * lanes
    traces = [[] for _ in starts] if keep_trace else None

    active = np.arange(lanes)
    slot = np.repeat(active, [start.support_size for start in starts])
    index = np.concatenate([start.index for start in starts]).astype(np.int64)
    exps = np.concatenate([start.exps for start in starts]).astype(np.int64)
    norm = np.array([start.norm for start in starts], dtype=np.float64)
    x_side = side
    # every level id below comes from a bincount over the exponent span,
    # which the float range keeps under 2100
    if len(exps) and not (-1074 <= exps.min() and exps.max() <= 1023):
        raise DomainError("a start entry 2**i lies outside the float range")

    t = 0
    while t < len(epsilons) - 1 and len(active):
        slots = len(active)
        y_side = opposite(x_side)
        width = g.side_count(y_side)
        rows, wt, edges, keys, y_of_edge, prod = _product(g, x_side, slot, index, exps, slots)
        # entries that underflowed to zero are dropped, and those that
        # overflowed fail their lane below
        live = (prod > 0.0) & (prod < np.inf)
        y_slot, y_index = np.divmod(keys[live], width)
        y_exps = _round_up_pow2(prod[live])
        y_levels = _levels(y_slot, y_exps, slots)
        y_level_of, y_level_slot, y_level_exp, y_counts = y_levels
        pre_norm = _norms(y_level_slot, y_level_exp, y_counts, slots)

        # a lane whose product entry or norm overflows leaves the batch with
        # its error, and the others take the step again without it
        over = keys[np.isinf(prod)] // width
        fail = np.isinf(pre_norm)
        fail[over] = True
        if fail.any():
            for s in np.flatnonzero(fail).tolist():
                if s in over:
                    failed[active[s]] = NegativeEntry("a product entry overflows to inf")
                else:
                    top = y_level_exp[np.searchsorted(y_level_slot, s, side="right") - 1]
                    failed[active[s]] = NegativeEntry(f"vector norm overflows at level 2**{top}")
            ok = ~fail
            x_ok = ok[slot]
            slot = (np.cumsum(ok) - 1)[slot[x_ok]]
            index, exps = index[x_ok], exps[x_ok]
            norm, active = norm[ok], active[ok]
            continue

        # a lane with no edges, or whose products all underflowed, stops
        # without taking the step
        go = np.bincount(y_slot, minlength=slots) > 0
        stopped[active[~go]] = True
        if not go.any():
            break
        stepping = active[go]
        executed[stepping] += 1
        touched[stepping] += 2 * edges[go]

        x_levels = _levels(slot, exps, slots)
        x_level_of, _, x_level_exp, x_counts = x_levels
        p_slot, pi, pj, pair_weight = _pair_weights(
            slot, rows, wt, y_slot, y_of_edge, live, x_levels, y_levels, slots
        )
        # the per-edge arrays go before the next step gathers its own
        del rows, wt, keys, y_of_edge, prod, live
        dens = pair_weight / np.sqrt(x_counts[pi] * y_counts[pj])
        # each stepping lane's first maximum in (i, j) order: a stable sort
        # by (slot, -density) puts it first among the lane's pairs
        win = np.lexsort((-dens, p_slot))[np.searchsorted(p_slot, np.flatnonzero(go))]

        better = dens[win] > best_d[stepping]
        if better.any():
            up, lanes_up = win[better], stepping[better]
            best_d[lanes_up] = dens[up]
            # the winning levels of each improving slot, -1 elsewhere
            x_win = np.full(slots, -1)
            y_win = np.full(slots, -1)
            x_win[p_slot[up]] = pi[up]
            y_win[p_slot[up]] = pj[up]
            # the entries of those levels, slot by slot, and where each
            # slot's run of them ends
            xs = index[x_level_of == x_win[slot]]
            ys = y_index[y_level_of == y_win[y_slot]]
            x_end = np.cumsum(x_counts[pi[up]])
            y_end = np.cumsum(y_counts[pj[up]])
            for lane, i, j, xa, xb, ya, yb, e, d in zip(
                lanes_up.tolist(),
                x_level_exp[pi[up]].tolist(),
                y_level_exp[pj[up]].tolist(),
                (x_end - x_counts[pi[up]]).tolist(),
                x_end.tolist(),
                (y_end - y_counts[pj[up]]).tolist(),
                y_end.tolist(),
                pair_weight[up].tolist(),
                dens[up].tolist(),
            ):
                best[lane] = (t, i, j, xs[xa:xb], ys[ya:yb], e, d, x_side)

        eps = epsilons[t + 1]
        # a level's entries share one value, so truncation keeps whole levels
        keep = np.ldexp(1.0, y_level_exp) > eps * pre_norm[y_level_slot]
        kept = keep[y_level_of]
        next_norm = _norms(y_level_slot[keep], y_level_exp[keep], y_counts[keep], slots)
        next_support = np.bincount(y_slot[kept], minlength=slots)

        if keep_trace:
            pruned_mass = _norms(y_level_slot[~keep], y_level_exp[~keep], y_counts[~keep], slots)
            max_density = np.zeros(slots)
            max_density[go] = dens[win]
            x_bounds = np.searchsorted(slot, np.arange(slots + 1))
            y_bounds = np.searchsorted(y_slot, np.arange(slots + 1))
            for s in np.flatnonzero(go).tolist():
                lane = int(active[s])
                xa, xb = x_bounds[s], x_bounds[s + 1]
                ya, yb = y_bounds[s], y_bounds[s + 1]
                at = best[lane]
                traces[lane].append(
                    StepRecord(
                        t=t,
                        eps_t=epsilons[t],
                        eps_prune=eps,
                        x_side=x_side,
                        x_norm=float(norm[s]),
                        x_support=int(xb - xa),
                        x_levels=LevelVector(x_side, index[xa:xb], exps[xa:xb], float(norm[s])),
                        pre_norm=float(pre_norm[s]),
                        post_levels=LevelVector(
                            y_side, y_index[ya:yb], y_exps[ya:yb], float(pre_norm[s])
                        ),
                        max_pair_density=float(max_density[s]),
                        pruned_mass=float(pruned_mass[s]),
                        pruned_count=int(yb - ya) - int(next_support[s]),
                        next_support=int(next_support[s]),
                        next_norm=float(next_norm[s]),
                        best_so_far=(at[0], at[1], at[2], at[6]),
                    )
                )

        cont = next_support > 0
        stopped[active[go & ~cont]] = True
        if not cont.any():
            break
        slot = (np.cumsum(cont) - 1)[y_slot[kept]]
        index, exps = y_index[kept], y_exps[kept]
        norm = next_norm[cont]
        active = active[cont]
        x_side = y_side
        t += 1

    outcomes = []
    for lane, error in enumerate(failed):
        if error is not None:
            outcomes.append(error)
            continue
        sub = at = None
        if best[lane] is not None:
            t, i, j, xs, ys, e, d, on = best[lane]
            xs, ys = frozenset(xs.tolist()), frozenset(ys.tolist())
            sub = Subgraph(xs, ys, e, d) if on == LEFT else Subgraph(ys, xs, e, d)
            at = (t, i, j)
        outcomes.append(
            ProcessOutcome(
                sub, at, int(executed[lane]), int(touched[lane]), bool(stopped[lane]),
                traces[lane] if keep_trace else None,
            )
        )
    return outcomes
