"""Ground-truth machinery: exact densest pair, spectral estimate, good seeds.

These routines are deliberately independent of the growth process so they can
serve as referees for it.  The exact search enumerates one side outright and
is meant for desk-scale graphs.  The spectral estimate is one Lanczos
routine on the symmetric adjacency, and it and the seed analysis scale to
anything the rest of the package handles.  Both read the graph's own CSR
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyGraph, PreconditionFailed, TooLarge
from .graph import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    Subgraph,
    density,
    edge_weight_between,
    is_int,
    restrict,
)

__all__ = [
    "EigenEstimate",
    "Certificate",
    "GoodSeedReport",
    "exact_densest",
    "top_eigenvalue",
    "good_seed_set",
]


# ---------------------------------------------------------------------------
# exact search


# float64 entries in each buffer of the blocked exact search: the buffers stay
# cache-sized and peak memory stays flat, while each numpy call still covers
# enough subsets to spread its fixed cost
_BLOCK_ENTRIES = 1 << 14

# The pruning margin is 1 + _ROUNDING * (partner count + smaller side squared
# + 2), 16 unit roundoffs per count.  A scored density and its subset's bound
# together stray from their exact values by at most three per count.
_ROUNDING = 2.0**-49


def _norm_bounds(mat: np.ndarray, top: float) -> np.ndarray:
    """||r|| / sqrt(|S|) for every subset S of mat's rows, by bitmask.

    r is the sum of the rows in S.  ||r||^2 is 1_S^T G 1_S for the rows'
    Gram matrix G, here of the rows divided by top, the largest weight, so
    that no square overflows.  Each mask's value comes from the mask without
    its highest row j, q(S + j) = q(S) + 2 sum_{i in S} G_ij + G_jj, and the
    sums over S are built by the same doubling, in the slots q(S + j) takes.
    """
    small = len(mat)
    scaled = mat / top
    gram = scaled @ scaled.T
    q = np.zeros(1 << small)
    counts = np.zeros(1 << small, dtype=np.uint8)
    for j in range(small):
        dst = q[1 << j : 2 << j]
        for i in range(j):
            np.add(dst[: 1 << i], gram[i, j], out=dst[1 << i : 2 << i])
        dst *= 2.0
        dst += q[: 1 << j]
        dst += gram[j, j]
        np.add(counts[: 1 << j], 1, out=counts[1 << j : 2 << j])
    counts[0] = 1
    q /= counts
    np.sqrt(q, out=q)
    q *= top
    return q


def exact_densest(g: BipartiteGraph, side_cap: int = 20) -> Subgraph:
    """Maximize density over all vertex-set pairs by enumerating one side.

    Every subset of the smaller side is a candidate; for a fixed subset the
    best partner of each size is formed greedily from the vertices with the
    largest incident weight into the subset, which is optimal because the
    denominator depends only on the partner's size.  Ties are broken toward
    the subset enumerated first (in increasing bitmask order) and then the
    smaller partner.

    Most subsets are ruled out unscored.  By Cauchy-Schwarz, k partners take
    at most sqrt(k) ||r|| of a subset's incident row r, so its density is at
    most ||r|| / sqrt(|S|); the bounds of all subsets come from the Gram
    matrix of the smaller side's rows, with no incident row formed.  The
    subset of largest bound is scored first, and its density becomes the
    threshold.  A subset is skipped only when its bound times a margin is
    strictly below the threshold.  The margin covers every rounding in the
    bound and in the density the subset would score, so a skipped subset
    scores strictly less than the threshold subset: it can neither win nor
    tie.  The margin is relative, so when some weight is too small or too
    spread, or the weights' total too large, for every square, density and
    prefix sum to be a normal float, every subset is scored.

    The threshold subset is scored on its own, then the kept subsets a block
    at a time, in increasing mask order.  A table holds the incident rows of
    every subset of the lowest few vertices; a block takes its subsets' rows
    from it and adds the rows of one combination of the remaining vertices.
    Rows are added in ascending vertex order, so every incident vector is
    bit-for-bit the sum mat[members].sum(axis=0) would give, and a block then
    sorts, accumulates and scores its rows in a few array calls.  The block
    height is chosen from the partner side's width so that each buffer holds
    about 2**14 floats (at least two rows).  Memory is the dense
    smaller-side-by-partner matrix, a denominator table of the same size, a
    handful of block buffers, and one float per subset for the bounds (8 MB
    at a side of 20).

    Raises DomainError when side_cap is not an integer of at least one, and
    TooLarge when the smaller side exceeds side_cap.
    """
    if not is_int(side_cap):
        raise DomainError(f"side cap must be an integer, got {side_cap!r}")
    if side_cap < 1:
        raise DomainError("side cap must be at least one")
    flip = g.right_count < g.left_count
    small = g.right_count if flip else g.left_count
    if small > side_cap:
        raise TooLarge(
            f"smaller side has {small} vertices, above the cap of {side_cap}"
        )
    ptr, nbr, wt = g.csr_arrays(RIGHT if flip else LEFT)
    other = g.vertex_count - small
    mat = np.zeros((small, other))
    mat[np.repeat(np.arange(small), np.diff(ptr)), nbr] = wt
    # scale[c, k] is the denominator for c subset and k + 1 partner vertices,
    # sqrt(c * (k + 1)) as density() takes it, so that pairs of equal density
    # tie exactly and the first one wins
    scale = np.sqrt(np.arange(small + 1.0)[:, None] * np.arange(1.0, other + 1))

    # table[m] is the incident row of low-bit mask m, summed in ascending
    # vertex order
    low = min(small, max(1, (_BLOCK_ENTRIES // other).bit_length() - 1))
    table = np.zeros((1 << low, other))
    for j in range(low):
        table[1 << j : 2 << j] = table[: 1 << j] + mat[j]
    low_counts = np.array([m.bit_count() for m in range(1 << low)])

    # the first maximum (position, partner count - 1, density) over masks
    # that share one high part
    def score(masks):
        high = int(masks[0]) >> low
        part = masks - (high << low)
        rows = table[part]
        high_rows = [low + j for j in range(small - low) if high >> j & 1]
        for u in high_rows:
            rows += mat[u]
        # sorting the negated rows puts the largest weights first; tied
        # weights give the same prefix sums whichever of them comes first
        rows *= -1
        rows.sort(axis=1)
        # negated densities: the flat argmin is the first subset, then the
        # smallest partner
        neg = np.cumsum(rows, axis=1)
        neg /= scale[low_counts[part] + len(high_rows)]
        r, k = divmod(int(neg.argmin()), other)
        return r, k, -float(neg[r, k])

    # the margin is relative: it holds while every scaled square, density
    # and prefix sum is a normal float
    top, least = float(wt.max()), g.min_weight
    if least >= 2.0**-500 * top and least >= 2.0**-900 and g.total_weight < 2.0**1020:
        bound = _norm_bounds(mat, top)
        threshold = score(bound.argmax(keepdims=True))[2]
        bound *= 1.0 + _ROUNDING * (other + small * small + 2)
        # the empty subset's bound is 0, below any graph's threshold
        masks = np.flatnonzero(bound >= threshold)
        del bound
    else:
        masks = np.arange(1, 1 << small)

    starts = np.searchsorted(masks, np.arange((1 << (small - low)) + 1) << low)
    best_d, best_mask, best_k = -math.inf, 0, 0
    for high in np.flatnonzero(np.diff(starts)).tolist():
        kept = masks[starts[high] : starts[high + 1]]
        r, k, d = score(kept)
        if d > best_d:
            best_d, best_mask, best_k = d, int(kept[r]), k

    members = [u for u in range(small) if best_mask >> u & 1]
    incident = mat[members].sum(axis=0)
    partner = np.lexsort((np.arange(other), -incident))[: best_k + 1]
    return density(g, *((partner, members) if flip else (members, partner)))


# ---------------------------------------------------------------------------
# spectral estimate


@dataclass
class EigenEstimate:
    """Top adjacency eigenvalue estimate with a nonnegative unit vector.

    left and right are the vector's two halves; value is its Rayleigh
    quotient and residual is the norm of (vector times adjacency minus value
    times vector).  Being a Rayleigh quotient, value is at most the top
    eigenvalue, which dominates every subgraph density.  The residual places
    some eigenvalue within residual of value, not necessarily the top one,
    so value + residual bounds the top eigenvalue only once the run has
    converged to it.  iterations counts the adjacency-vector products taken,
    the final one for the residual included.  converged is False when the
    Lanczos rounds ran out before the residual reached 1e-12 of the value;
    the estimate then comes from the last round's vector.
    """

    value: float
    left: np.ndarray
    right: np.ndarray
    residual: float
    iterations: int
    converged: bool


# Lanczos vectors held at once (ARPACK's default), rounds allowed before the
# estimate is returned unconverged, and the residual, relative to the
# eigenvalue, at which it counts as converged.  The routine is written out
# here, not taken from an ARPACK binding, because the package depends on
# numpy alone.
_KRYLOV = 20
_RESTARTS = 200
_TOL = 1e-12


def _adjacency(g: BipartiteGraph, scale: int = 0):
    """The map x -> A x on the symmetric adjacency [[0, B], [B^T, 0]], its
    weights divided by 2**scale.

    The graph's one table holds A's rows, left then right, as x holds its
    entries, so a left row's neighbour v is x[left_count + v].  One bincount
    adds each row's terms in CSR order, ascending neighbour order.
    """
    indptr, nbrs, wts = g._table()
    wts = np.ldexp(wts, -scale)
    n = g.vertex_count
    row = np.repeat(np.arange(n), np.diff(indptr))
    col = nbrs.copy()
    col[: indptr[g.left_count]] += g.left_count

    def apply(x):
        return np.bincount(row, weights=wts * x.take(col), minlength=n)

    return apply


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v), taken on v scaled by a power of two near its
    largest entry, so no square overflows or underflows; where every square
    and their sum are normal floats the scaling is exact and the bits are
    those of the unscaled norm."""
    k = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    return math.ldexp(np.linalg.norm(np.ldexp(v, -k)), k)


def top_eigenvalue(g: BipartiteGraph) -> EigenEstimate:
    """Thick-restart Lanczos for the top eigenvalue of the bipartite adjacency.

    Works on the symmetric adjacency [[0, B], [B^T, 0]], starting from the
    all-ones vector.  Each round grows an orthonormal basis of up to 20
    vectors, each the adjacency times the last, fully reorthogonalized, and
    takes the top Ritz pair of the adjacency projected onto it.  A round
    that has not converged keeps the top half of its Ritz vectors and
    continues from the top one's residual (Wu & Simon 2000).  A basis that
    stops growing spans an invariant subspace, whose Ritz pair is exact; this
    is how tied components and graphs of a single edge end.  Nothing is
    random, so repeated runs agree to the bit.

    The adjacency is nonnegative, so its top eigenspace is spanned by
    nonnegative vectors on disjoint components (Perron-Frobenius): the
    entrywise absolute value of the Ritz vector stays in it, and is
    renormalized before the Rayleigh quotient and residual are taken.

    The run sees the weights divided by 2**e, e the exponent of the largest
    weight's frexp, and the value and residual are scaled back: the division
    is exact for every weight that stays normal, so a graph with every
    weight scaled by 2**k reads as the original wherever both graphs'
    weights are normal, and subnormal weights run as ordinary ones.
    """
    nl, nr = g.left_count, g.right_count
    e = math.frexp(float(g._table()[2].max()))[1]
    adjacency, applications = _adjacency(g, e), 0
    size = min(_KRYLOV, nl + nr)
    basis = np.empty((size, nl + nr))
    images = np.empty_like(basis)  # the adjacency times each basis vector
    k = 0
    w = np.ones(nl + nr)
    converged = False
    for _ in range(_RESTARTS):
        while k < size:
            scale = _norm(w)
            for _ in range(2):  # twice is enough (Kahan, Parlett)
                w -= basis[:k].T @ (basis[:k] @ w)
            norm = _norm(w)
            if norm <= _TOL * scale:
                break
            basis[k] = w / norm
            images[k] = adjacency(basis[k])
            applications += 1
            w = images[k].copy()
            k += 1
        theta, ritz = np.linalg.eigh(basis[:k] @ images[:k].T)
        vec = ritz[:, -1] @ basis[:k]
        w = ritz[:, -1] @ images[:k] - theta[-1] * vec
        if k < size or _norm(w) <= _TOL * theta[-1]:
            converged = True
            break
        keep = ritz[:, -(size // 2) :].T
        k = len(keep)
        basis[:k], images[:k] = keep @ basis[:size], keep @ images[:size]
    vec = np.abs(vec)
    vec /= _norm(vec)
    prod = adjacency(vec)
    applications += 1
    value = float(vec @ prod)
    residual = _norm(prod - value * vec)
    # both are at most the top eigenvalue, so at most the largest degree,
    # but for rounding, which must not carry them past the float range
    cap = math.ldexp(g.max_degree, -e)
    value, residual = (math.ldexp(min(v, cap), e) for v in (value, residual))
    return EigenEstimate(value, vec[:nl], vec[nl:], residual, applications, converged)


# ---------------------------------------------------------------------------
# good seeds


@dataclass
class Certificate:
    """Witness that one left vertex sits heavily in a dense direction.

    left and right map vertex indices of the original graph to the entries
    of a nonnegative unit vector supported inside the analyzed pair.  The
    vector satisfies (vector times full adjacency) >= threshold * vector on
    its support up to the recorded margin, and gives the certified vertex
    weight at least 1 / sqrt(2 |S|).
    """

    left: dict
    right: dict
    vertex_value: float
    margin: float
    eigenvalue: float
    residual: float


@dataclass
class GoodSeedReport:
    """Left vertices certified as productive seeds for a given pair (S, T).

    coverage is the fraction of the pair's edge weight touching the certified
    set; it is at least one half when the pair's density is at least twice
    the threshold.
    """

    good: frozenset
    certificates: dict
    coverage: float
    edge_weight_good: float
    edge_weight_total: float
    batches: int


def _certificate_margin(adjacency, x: np.ndarray, threshold: float) -> float:
    """Smallest slack of (A x - threshold * x) on the support of x.

    Entries off the support add only +0.0 terms to each slack's sum, so a
    vector supported inside a restricted graph gets the same slacks, to the
    bit, from the restriction's adjacency as from the full graph's.
    """
    return float((adjacency(x) - threshold * x)[x > 0.0].min())


def good_seed_set(g: BipartiteGraph, left_set, right_set, density_threshold: float) -> GoodSeedReport:
    """Certify left vertices of a dense pair as productive local seeds.

    Requires density(left_set, right_set) >= 2 * density_threshold.  Peels in
    batches: take the principal direction of the graph restricted to the
    remaining pair, certify every left vertex carrying weight at least
    1 / sqrt(2 |S|), remove them, and repeat while the restricted eigenvalue
    stays at or above the threshold.  The certified set touches at least half
    of the pair's edge weight.
    """
    if not density_threshold > 0:
        raise DomainError("density threshold must be positive")
    base = density(g, left_set, right_set)
    if base.density < 2.0 * density_threshold:
        raise PreconditionFailed(
            f"pair density {base.density:g} is below twice the threshold {density_threshold:g}"
        )
    min_weight = 1.0 / math.sqrt(2.0 * len(base.left))
    remaining, right = (np.array(sorted(s), dtype=np.int64) for s in (base.left, base.right))
    certificates: dict = {}
    batches = 0

    while len(remaining):
        try:
            h = restrict(g, remaining, right)
        except EmptyGraph:
            break
        est = top_eigenvalue(h)
        if est.value < density_threshold:
            break
        # restrict numbers each side's kept vertices in ascending order, so
        # est.left lines up with remaining and est.right with right
        picked = est.left >= min_weight - 1e-12
        if not picked.any():
            break
        batches += 1
        vec_left = {u: x for u, x in zip(remaining.tolist(), est.left.tolist()) if x > 0.0}
        vec_right = {v: x for v, x in zip(right.tolist(), est.right.tolist()) if x > 0.0}
        vec = np.concatenate((est.left, est.right))
        margin = _certificate_margin(_adjacency(h), vec, density_threshold)
        for v in remaining[picked].tolist():
            certificates[v] = Certificate(
                left=vec_left,
                right=vec_right,
                vertex_value=vec_left[v],
                margin=margin,
                eigenvalue=est.value,
                residual=est.residual,
            )
        remaining = remaining[~picked]

    good = frozenset(certificates)
    e_good = edge_weight_between(g, good, right) if good else 0.0
    return GoodSeedReport(
        good=good,
        certificates=certificates,
        coverage=e_good / base.edge_weight,
        edge_weight_good=e_good,
        edge_weight_total=base.edge_weight,
        batches=batches,
    )
