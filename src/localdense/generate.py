"""Deterministic benchmark graphs with a planted dense block."""

from __future__ import annotations

import numbers
import random

import numpy as np

from .errors import DomainError
from .graph import BipartiteGraph, is_int

__all__ = ["generate_planted"]

# most 32-bit words one getrandbits call draws for noise pairs; bounds the
# memory a chunk of draws holds (a few arrays of this many 32-bit words)
_CHUNK_WORDS = 1 << 20


def generate_planted(
    n_left: int,
    n_right: int,
    noise_edges: int,
    planted_a: int,
    planted_b: int,
    planted_density_factor: float = 1.0,
    rng_seed: int = 0,
    noise_avoids_planted: bool = False,
):
    """Plant an a-by-b block inside a sea of unit-weight noise edges.

    The block's density is planted_density_factor times sqrt(a * b): factor
    one means the complete block, smaller factors sample a subset of block
    positions that still covers every planted vertex.  Noise edges are
    distinct uniform pairs that never land inside the planted rectangle, so
    the planted pair's density is exactly what was asked for; with
    noise_avoids_planted they avoid the planted vertices entirely, leaving
    the block its own connected component.

    The graph is a function of the arguments and of CPython's
    random.Random(rng_seed) stream.  When noise fills at most half of its
    slots, noise pairs are drawn as alternating left and right
    rng.randrange calls would draw them, repeats and planted-rectangle
    pairs skipped, but read in bulk from getrandbits words under
    randrange's rejection rule; denser noise is an rng.sample of the
    enumerated slots.  Each side holds fewer than 2**32 ids, the most one
    32-bit word can draw.

    The counts and rng_seed are Python or numpy integers, not bools, and
    planted_density_factor is a real number, not a bool; anything else, a
    side of 2**32 ids or more, or a block or noise count that does not fit
    raises DomainError.

    Vertex ids are the integers 0 .. n_left-1 and 0 .. n_right-1; only ids
    touched by an edge become vertices.  Returns (graph, planted left index
    set, planted right index set).
    """
    for name, value in (
        ("n_left", n_left),
        ("n_right", n_right),
        ("noise_edges", noise_edges),
        ("planted_a", planted_a),
        ("planted_b", planted_b),
        ("rng_seed", rng_seed),
    ):
        if not is_int(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    n_left, n_right, noise_edges = int(n_left), int(n_right), int(noise_edges)
    a, b = int(planted_a), int(planted_b)
    if isinstance(planted_density_factor, bool) or not isinstance(
        planted_density_factor, numbers.Real
    ):
        raise DomainError(
            f"planted density factor must be a number, got {planted_density_factor!r}"
        )
    if n_left >= 2**32 or n_right >= 2**32:
        raise DomainError("a side holds at most 2**32 - 1 ids")
    if a < 1 or b < 1:
        raise DomainError("planted sides must be at least one vertex")
    if a > n_left or b > n_right:
        raise DomainError("planted block does not fit in the id ranges")
    if noise_edges < 0:
        raise DomainError("noise_edges must be nonnegative")
    if not 0.0 < planted_density_factor <= 1.0:
        raise DomainError("planted density factor must be in (0, 1]")

    block_target = round(planted_density_factor * a * b)
    if block_target > a * b:
        raise DomainError("planted density factor asks for more than the full block")
    if block_target < max(a, b):
        raise DomainError(
            "planted density factor too small to touch every planted vertex"
        )

    rng = random.Random(int(rng_seed))
    left_block = sorted(rng.sample(range(n_left), a))
    right_block = sorted(rng.sample(range(n_right), b))

    if block_target == a * b:
        positions = [(p, q) for p in range(a) for q in range(b)]
    else:
        # cover every row and column first, then fill uniformly
        cover = {(k % a, k % b) for k in range(max(a, b))}
        rest = [pq for pq in ((p, q) for p in range(a) for q in range(b)) if pq not in cover]
        extra = rng.sample(rest, block_target - len(cover))
        positions = sorted(cover) + sorted(extra)

    if noise_avoids_planted:
        capacity = (n_left - a) * (n_right - b)
    else:
        capacity = n_left * n_right - a * b
    if noise_edges > capacity:
        raise DomainError(
            f"cannot place {noise_edges} distinct noise edges, only {capacity} slots"
        )

    if noise_edges * 2 > capacity:
        # dense regime: rejection sampling would crawl, so enumerate the slots
        if noise_avoids_planted:
            left_pool = sorted(set(range(n_left)).difference(left_block))
            right_pool = sorted(set(range(n_right)).difference(right_block))
        else:
            left_pool, right_pool = range(n_left), range(n_right)
        forbidden = {(u, v) for u in left_block for v in right_block}
        available = [
            (u, v)
            for u in left_pool
            for v in right_pool
            if (u, v) not in forbidden
        ]
        noise = np.array(rng.sample(available, noise_edges), dtype=np.int64).reshape(-1, 2)
        noise_left, noise_right = noise[:, 0], noise[:, 1]
    else:
        noise_left, noise_right = _sparse_noise(
            rng, n_left, n_right, left_block, right_block, noise_avoids_planted, noise_edges
        )

    block = np.array(positions, dtype=np.int64)
    left_index, l_arr = _first_appearance(
        np.concatenate((np.array(left_block, dtype=np.int64)[block[:, 0]], noise_left))
    )
    right_index, r_arr = _first_appearance(
        np.concatenate((np.array(right_block, dtype=np.int64)[block[:, 1]], noise_right))
    )
    g = BipartiteGraph(left_index, right_index, l_arr, r_arr, np.ones(len(l_arr)))
    planted_left = g.left_indices(left_block)
    planted_right = g.right_indices(right_block)
    return g, planted_left, planted_right


def _groups(values):
    """Group equal values without a stable sort.

    Returns an argsort of values, the start of each group of equal values
    in it, and the position in values where each group's value first
    appears.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    starts = starts[: len(values)]  # no group starts in no values
    return order, starts, np.minimum.reduceat(order, starts)


def _first_appearance(ids):
    """Number an id column in first-appearance order.

    Returns the id-to-index dict, in index order and keyed by Python ints,
    and the column's indices.
    """
    order, starts, first = _groups(ids)
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    column = np.empty(len(ids), dtype=np.int64)
    column[order] = np.repeat(rank, np.diff(np.append(starts, len(ids))))
    return dict(zip(ids[first[by_first]].tolist(), range(len(first)))), column


def _pool_ids(positions, excluded):
    """The ids at the given positions of sorted(set(range(n)) - excluded),
    for a sorted excluded array, without building the pool."""
    # the i-th id left over is i plus the count of excluded e_j with e_j - j <= i
    shifted = excluded - np.arange(len(excluded))
    return positions + np.searchsorted(shifted, positions, side="right")


def _sparse_noise(rng, n_left, n_right, left_block, right_block, avoid, count):
    """The first count noise pairs, as left and right id columns.

    Replays the loop that draws u = left_pool[rng.randrange(len(left_pool))],
    then v likewise from the right pool, and keeps (u, v) unless it lies in
    the planted rectangle or was kept before; with avoid the pools leave out
    the planted ids, otherwise they are whole ranges.  randrange(n) takes
    one 32-bit word r per try and returns r >> (32 - n.bit_length()) once
    that is below n, and getrandbits(32 * m) hands out the stream's next m
    words lowest first, so chunks of words decide every draw.  Words drawn
    past the last kept pair are left unused.
    """
    left_block = np.array(left_block, dtype=np.int64)
    right_block = np.array(right_block, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    excluded = (left_block, right_block) if avoid else (none, none)
    sizes = (n_left - len(excluded[0]), n_right - len(excluded[1]))
    shifts = [32 - n.bit_length() for n in sizes]
    # the draw state across chunks: a left position whose right draw is
    # still due, so the chunk's first word draws on the right iff it is set
    pending = np.empty(0, dtype=np.uint32)
    # sorted keys of the pairs kept so far, over a sentinel above every key
    seen = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
    lefts, rights = [], []
    while count:
        # randrange takes a word with odds of at least 1/2, so a pair costs
        # four words or fewer on average
        m = min(_CHUNK_WORDS, 4 * count + 16)
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        draws = [words >> np.uint32(s) for s in shifts]
        fits = [d < n for d, n in zip(draws, sizes)]
        # the draw each word serves, left or right: a word that both pools'
        # rules take flips it, one that neither takes keeps it, and one that
        # only the left (right) rule takes leaves the right (left) draw next
        # whatever came before.  So a word serves the draw that the last
        # one-sided word before it left (or the chunk's first draw), flipped
        # once per two-sided word since
        one_sided = fits[0] != fits[1]
        # right_next[j]: whether one-sided word j - 1 leaves the right draw next,
        # right_next[0] whether the chunk starts on it
        right_next = np.concatenate(([len(pending) > 0], fits[0]))
        # flips[i]: the parity of the two-sided words before word i
        flips = np.concatenate(([False], np.logical_xor.accumulate(fits[0] & fits[1])))
        # last[i]: 1 + the last one-sided word before word i, 0 if none
        last = np.maximum.accumulate(np.where(one_sided, np.arange(1, m + 1, dtype=np.int32), 0))
        last = np.concatenate(([0], last[:-1]))
        right = right_next[last] ^ flips[last] ^ flips[:-1]
        taken = np.where(right, draws[1], draws[0])[np.where(right, fits[1], fits[0])]
        taken = np.concatenate((pending, taken))
        paired = len(taken) // 2 * 2
        pending = taken[paired:]
        u = _pool_ids(taken[0:paired:2], excluded[0])
        v = _pool_ids(taken[1:paired:2], excluded[1])

        # keep the first draw of each key outside the rectangle and not kept before
        outside = np.flatnonzero(~(np.isin(u, left_block) & np.isin(v, right_block)))
        keys = u[outside].astype(np.uint64) * np.uint64(n_right) + v[outside].astype(np.uint64)
        order, starts, first = _groups(keys)
        keys = keys[order[starts]]
        fresh = seen[np.searchsorted(seen, keys)] != keys
        keys, first = keys[fresh], first[fresh]
        take = np.argsort(first)[:count]
        kept = outside[first[take]]
        lefts.append(u[kept])
        rights.append(v[kept])
        count -= len(kept)
        if count:
            seen = np.sort(np.concatenate((seen, keys[take])))
    return np.concatenate([none, *lefts]), np.concatenate([none, *rights])
