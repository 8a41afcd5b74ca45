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
returns a GrowthBatch.  Every lane advances in the same array pass per step,
whichever side it starts on: the vectors are held as one set of (lane,
index, exponent) arrays sorted by (lane, index), start k being lane k, and
each step gathers every entry's edges from the graph's one adjacency table,
the left rows then the right ones.  A lane keeps its number for the whole
call; one whose run has stopped just has no entries left.  A lane holds its
vector at its own power-of-two scale, its top entry at 2**0, so no product
entry overflows and scaling every weight by 2**k only moves the exponents
reported.  Product entries are keyed by (lane, neighbor) and numbered by an
occupancy array over every (lane, neighbor) key when that array holds at
most four entries per gathered edge, else by one sort of words that pack
each key with its edge's position (np.unique's sort only where the two do
not fit in 63 bits).  Levels and level pairs are cells of padded tables
too, (lane, exponent) and (x level, y level of its lane), counted by
bincounts over ranges the float exponent span keeps small.  A step in which
no product entry underflows, the usual one, masks nothing.  So a step
allocates in proportion to the edges it gathers and the lanes it holds,
never to the graph's size.  A lane never sees another: each of its sums
runs over its own terms in the order a batch of one would use, so every
lane's outcome equals that of its start run alone, to the bit.  A lane's
norm is one math.fsum of its squares, exactly rounded.  The norms of
truncated vectors are computed only for traces, whose vectors are views
into their step's batch arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise
from typing import Sequence

import numpy as np

from .errors import DomainError
from .graph import LEFT, RIGHT, BipartiteGraph, Subgraph, csr_slices

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
    norm is carried alongside; a trace's is inf past the float range.  Two
    vectors are equal when their sides, norms and arrays are.
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
        # np.unique would import numpy.ma on numpy 2 (about 1.2 MB)
        return len(set(self.exps.tolist()))

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


def _tops(level_slot: np.ndarray, level_exp: np.ndarray, slots: int) -> np.ndarray:
    """Each slot's top exponent, from its levels as _levels lists them, in
    (slot, exponent) order; 0 for a slot without."""
    top = np.zeros(slots, dtype=np.int64)
    last = np.diff(level_slot, append=slots) != 0
    top[level_slot[last]] = level_exp[last]
    return top


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


# the largest key space per gathered edge that _product numbers without a sort
_OCCUPANCY_FACTOR = 4
# the bits of the word that packs a product key with its edge's position
_PACK_BITS = 63


def _product(table, slot, rows, exps, slots, width):
    """The edges of one step for every lane at once, and their product.

    rows gives each entry's row in the graph's one adjacency table, entries
    in (slot, index) order; one gather takes the edges incident to the
    supports in (slot, vertex, neighbor) order.  Returns each source entry's
    edge count, each edge's weight, each slot's edge count, the sorted
    slot * width + neighbor key of each product entry, each edge's product
    entry and the product values.  Keys are numbered by an occupancy array
    over the key space when that holds at most _OCCUPANCY_FACTOR keys per
    gathered edge (all-ones starts).
    Otherwise (a few seeds on a large graph) each key is shifted left and
    its edge's position put in the low bits, and one in-place sort of these
    words gives the sorted keys and the order of their edges; np.unique
    numbers them only when a key and a position do not fit in _PACK_BITS
    bits.  All three give the same sorted keys and numbering.  bincount adds
    in array order, so each product entry sums its terms in ascending
    source-vertex order.
    """
    indptr, nbrs, weights = table
    fan, pos = csr_slices(indptr, rows)
    n = len(pos)
    key = np.repeat(slot * width, fan)
    key += nbrs[pos]
    wt = weights[pos]
    del pos  # each numbering takes a few more arrays of this length
    space = slots * width
    bits = n.bit_length()
    if space <= _OCCUPANCY_FACTOR * n:
        present = np.zeros(space, dtype=bool)
        present[key] = True
        keys = np.flatnonzero(present)
        y_of_edge = (np.cumsum(present) - 1)[key]
    elif (space - 1).bit_length() + bits <= _PACK_BITS:
        # a word's position bits break ties between equal keys in edge order
        key <<= bits
        key |= np.arange(n)
        key.sort()
        order = key & ((1 << bits) - 1)
        key >>= bits
        new = np.empty(n, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        keys = key[new]
        y_of_edge = np.empty(n, dtype=np.intp)
        y_of_edge[order] = np.cumsum(new) - 1
        del order, new
    else:
        keys, y_of_edge = np.unique(key, return_inverse=True)
    del key
    terms = np.repeat(np.ldexp(1.0, exps), fan) * wt
    prod = np.bincount(y_of_edge, weights=terms, minlength=len(keys))
    edges = np.bincount(slot, weights=fan, minlength=slots).astype(np.int64)
    return fan, wt, edges, keys, y_of_edge, prod


def _pair_weights(fan, wt, y_slot, y_of_edge, live, x_levels, y_levels):
    """Weight of every (x level, y level) pair of each lane that has edges.

    The pairs are the cells of one table: a row per x level, as _levels
    numbers them across the lanes, and a column per y level of the row's
    lane, plus a last column for the edges into product entries that
    underflowed.  Its width is bounded by the float exponent span, not by
    the graph.  Each pair's sum runs over its edges in (vertex, neighbor)
    order, the order a walk level by level visits them in, and the nonzero
    cells list the pairs in (slot, i, j) order.  Returns the slot, x level,
    y level and weight of each pair, levels as numbered by _levels.  live
    marks the product entries kept, or is None when every entry is.
    """
    x_level_of, x_level_slot = x_levels[:2]
    y_level_of, y_level_slot = y_levels[:2]
    ny = np.bincount(y_level_slot)
    y_first = np.cumsum(ny) - ny
    width = int(ny.max()) + 1
    y_part = y_level_of - y_first[y_slot]
    if live is not None:
        every = np.full(len(live), width - 1)
        every[live] = y_part
        y_part = every
    ids = np.repeat(x_level_of * width, fan) + y_part[y_of_edge]
    weight = np.bincount(ids, weights=wt, minlength=len(x_level_slot) * width).reshape(-1, width)
    # edge weights are positive, so a pair has edges exactly when its
    # weight does
    pi, pj = np.nonzero(weight[:, :-1])
    p_slot = x_level_slot[pi]
    return p_slot, pi, pj + y_first[p_slot], weight[pi, pj]


@dataclass(frozen=True)
class StepRecord:
    """Everything observed while moving from the step's source vector.

    eps_t is the schedule value indexed with the source vector (used by the
    growth and level-count checks); eps_prune is the next schedule value,
    applied by the truncation that produced the following vector.  The step's
    three vectors carry every size, norm and side: x_levels is the source
    vector, post_levels the rounded product and next_levels what truncation
    kept of it, which is the next step's x_levels.
    """

    t: int
    eps_t: float
    eps_prune: float
    x_levels: LevelVector
    post_levels: LevelVector
    next_levels: LevelVector
    max_pair_density: float
    pruned_mass: float

    @property
    def pruned_count(self) -> int:
        return self.post_levels.support_size - self.next_levels.support_size


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
    trace: list | None


@dataclass
class GrowthBatch:
    """Result of one run_pruned_growth call.

    outcomes holds one ProcessOutcome per start in start order;
    edges_touched and steps_executed total them.
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

    Start k is lane k, and every lane gets the outcome a batch holding only
    that start would give, to the bit: its product entries and level-pair
    weights sum their terms in the same order, and it keeps the same first
    maximum.  All lanes advance together, one table gather per step
    whichever side they are on, until every run has stopped; the lanes'
    vectors are one (slot, index, exps) triple of arrays sorted by (slot,
    index), and a lane that has stopped has no entries left.

    epsilons[t + 1] prunes the step taken from the t-th vector, keeping the
    entries strictly above that fraction of the rounded product's norm;
    epsilons[0] is never applied (the start vector is used as given) but is
    recorded with the first step for bound checking.  Candidates are
    evaluated from the rounded product before each truncation, so a step
    that prunes to zero still contributes its level pairs.  A run stops
    early, without taking the step, when the vector has no incident edges or
    every product entry underflows to zero.  Ties between level pairs prefer
    the smallest (i, j).  With keep_trace each outcome lists a StepRecord
    per step; only then are the truncated vectors' norms computed and the
    last step's truncation made.  A record's vectors, but for the start
    itself, are views that pin its step's batch arrays, those of every lane
    that took the step.

    A lane holds its vector over 2**shift, its top entry at 2**0, and moves
    shift to each rounded product's top.  A product entry then sums terms
    x * w with x <= 1 in the order the graph's weighted-degree bincount
    does, so it never passes that finite degree.  best_at and the traces
    add the shift back; a trace norm past the float range is inf.  An entry
    below 2**-1074 of its lane's top is pruned.  Raises DomainError, before
    any lane grows, for a pruning fraction epsilons[1:] outside [0, 1] and
    for a malformed start: a side other than "L" or "R", index and exps
    that are not integer arrays of one length, an index that does not
    ascend strictly or that leaves the side, or an entry that is not a
    positive float (an exponent outside [-1074, 1023]).
    """
    starts = list(starts)
    for eps in epsilons[1:]:
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"truncation fraction {eps!r} outside [0, 1]")
    lanes = len(starts)
    for start in starts:
        if start.side not in (LEFT, RIGHT):
            raise DomainError(f"a start's side must be {LEFT!r} or {RIGHT!r}, got {start.side!r}")
        index, exps = np.asarray(start.index), np.asarray(start.exps)
        kinds = {index.dtype.kind, exps.dtype.kind}
        if index.ndim != 1 or exps.shape != index.shape or not kinds <= {"i", "u"}:
            raise DomainError("a start's index and exps must be integer arrays of one length")
    if not starts:
        return GrowthBatch([], 0, 0)
    sizes = [len(start.exps) for start in starts]
    slot = np.repeat(np.arange(lanes), sizes)
    index = np.concatenate([start.index for start in starts]).astype(np.int64)
    exps = np.concatenate([start.exps for start in starts]).astype(np.int64)
    limit = np.repeat([g.side_count(start.side) for start in starts], sizes)
    same = slot[1:] == slot[:-1]
    if ((index < 0) | (index >= limit)).any() or (np.diff(index)[same] <= 0).any():
        raise DomainError("a start's index must ascend strictly and lie within its side")
    # every level id below comes from a bincount over the exponent span,
    # which the float range keeps under 2100
    if len(exps) and not (-1074 <= exps.min() and exps.max() <= 1023):
        raise DomainError("a start entry 2**i lies outside the float range")
    shift = _tops(*_levels(slot, exps, lanes)[1:3], lanes)
    exps -= shift[slot]

    # a lane's entries sit in the table's rows from its x offset on: 0
    # while its vector is on the left, left_count while it is on the right
    table, nl = g._table(), g.left_count
    x_off = np.array([0 if start.side == LEFT else nl for start in starts], dtype=np.int64)
    # keys span the wider side, whichever side a lane's product is on
    width = max(nl, g.right_count)
    best: list = [None] * lanes  # (t, i, j, x set, y set, weight, density, x offset)
    best_d = np.full(lanes, -np.inf)
    executed = np.zeros(lanes, dtype=np.int64)
    touched = np.zeros(lanes, dtype=np.int64)
    traces = [[] for _ in starts] if keep_trace else None

    t = 0
    while t < len(epsilons) - 1 and len(slot):
        rows = index + x_off[slot]
        fan, wt, edges, keys, y_of_edge, prod = _product(table, slot, rows, exps, lanes, width)
        # entries that underflowed to zero are dropped; in the usual step
        # every entry is live, and live is None: nothing is masked
        live = prod > 0.0
        if live.all():
            live, y_keys, y_prod = None, keys, prod
        else:
            y_keys, y_prod = keys[live], prod[live]
        # each lane's run of the sorted keys, and its entries' lanes and
        # indices, without a division
        y_bounds = np.searchsorted(y_keys, np.arange(lanes + 1) * width)
        y_sizes = np.diff(y_bounds)
        y_slot = np.repeat(np.arange(lanes), y_sizes)
        y_index = y_keys - y_slot * width
        y_exps = _round_up_pow2(y_prod)
        del y_keys, y_prod
        y_levels = _levels(y_slot, y_exps, lanes)
        y_level_of, y_level_slot, y_level_exp, y_counts = y_levels
        # each lane's product moves to its own scale, its top level at 2**0
        top = _tops(y_level_slot, y_level_exp, lanes)
        y_exps -= top[y_slot]
        y_level_exp -= top[y_level_slot]
        x_shift, shift = shift, shift + top
        pre_norm = _norms(y_level_slot, y_level_exp, y_counts, lanes)

        # a lane with no edges, or whose products all underflowed, stops
        # without taking the step
        go = y_sizes > 0
        if not go.any():
            break
        stepping = np.flatnonzero(go)
        executed[go] += 1
        touched[go] += 2 * edges[go]

        x_levels = _levels(slot, exps, lanes)
        x_level_of, _, x_level_exp, x_counts = x_levels
        p_slot, pi, pj, pair_weight = _pair_weights(
            fan, wt, y_slot, y_of_edge, live, x_levels, y_levels
        )
        # the per-edge arrays go before the next step gathers its own
        del wt, keys, y_of_edge, prod, live
        dens = pair_weight / np.sqrt(x_counts[pi] * y_counts[pj])
        # each stepping lane's first maximum in (i, j) order: a stable sort
        # by (lane, -density) puts it first among the lane's pairs
        win = np.lexsort((-dens, p_slot))[np.searchsorted(p_slot, stepping)]

        better = dens[win] > best_d[stepping]
        if better.any():
            up, lanes_up = win[better], stepping[better]
            best_d[lanes_up] = dens[up]
            # the winning levels of each improving lane, -1 elsewhere
            x_win = np.full(lanes, -1)
            y_win = np.full(lanes, -1)
            x_win[lanes_up] = pi[up]
            y_win[lanes_up] = pj[up]
            # the entries of those levels, lane after lane, and each lane's
            # run of them (np.split's per-piece cost made a scan 3% slower)
            xs = index[x_level_of == x_win[slot]]
            ys = y_index[y_level_of == y_win[y_slot]]
            x_runs = pairwise([0, *np.cumsum(x_counts[pi[up]]).tolist()])
            y_runs = pairwise([0, *np.cumsum(y_counts[pj[up]]).tolist()])
            for lane, i, j, (xa, xb), (ya, yb), e, d, off in zip(
                lanes_up.tolist(),
                (x_level_exp[pi[up]] + x_shift[lanes_up]).tolist(),
                (y_level_exp[pj[up]] + shift[lanes_up]).tolist(),
                x_runs,
                y_runs,
                pair_weight[up].tolist(),
                dens[up].tolist(),
                x_off[lanes_up].tolist(),
            ):
                best[lane] = (t, i, j, xs[xa:xb], ys[ya:yb], e, d, off)

        if t == len(epsilons) - 2 and not keep_trace:
            break  # only a trace reads the last step's truncated vector
        eps = epsilons[t + 1]
        # a level's entries share one value, so truncation keeps whole levels
        keep = np.ldexp(1.0, y_level_exp) > eps * pre_norm[y_level_slot]
        kept = keep[y_level_of]
        next_slot, next_index, next_exps = y_slot[kept], y_index[kept], y_exps[kept]

        if keep_trace:
            # a trace holds true exponents and norms: the lane's plus its shift
            y_true, level_true = y_exps + shift[y_slot], y_level_exp + shift[y_level_slot]
            next_true = y_true[kept]
            next_norm, pruned_mass = (
                _norms(y_level_slot[m], level_true[m], y_counts[m], lanes) for m in (keep, ~keep)
            )
            # pre_norm is the true norm over 2**shift, to the bit; a true
            # norm past the float range reads inf
            with np.errstate(over="ignore"):
                post_norm = np.ldexp(pre_norm, shift)
            next_bounds = np.searchsorted(next_slot, np.arange(lanes + 1))
            for lane, d in zip(stepping.tolist(), dens[win].tolist()):
                y_side = RIGHT if x_off[lane] == 0 else LEFT
                ya, yb = y_bounds[lane], y_bounds[lane + 1]
                na, nb = next_bounds[lane], next_bounds[lane + 1]
                traces[lane].append(
                    StepRecord(
                        t=t,
                        eps_t=epsilons[t],
                        eps_prune=eps,
                        # a lane still running took every earlier step
                        x_levels=traces[lane][-1].next_levels if traces[lane] else starts[lane],
                        post_levels=LevelVector(
                            y_side, y_index[ya:yb], y_true[ya:yb], float(post_norm[lane])
                        ),
                        next_levels=LevelVector(
                            y_side, next_index[na:nb], next_true[na:nb], float(next_norm[lane])
                        ),
                        max_pair_density=d,
                        pruned_mass=float(pruned_mass[lane]),
                    )
                )

        slot, index, exps = next_slot, next_index, next_exps
        x_off = nl - x_off
        t += 1

    outcomes = []
    for lane in range(lanes):
        sub = at = None
        if best[lane] is not None:
            t, i, j, xs, ys, e, d, off = best[lane]
            xs, ys = frozenset(xs.tolist()), frozenset(ys.tolist())
            sub = Subgraph(xs, ys, e, d) if off == 0 else Subgraph(ys, xs, e, d)
            at = (t, i, j)
        trace = traces[lane] if keep_trace else None
        outcomes.append(ProcessOutcome(sub, at, int(executed[lane]), int(touched[lane]), trace))
    return GrowthBatch(outcomes, int(touched.sum()), int(executed.sum()))
