"""Deterministic benchmark graphs with a planted dense block."""

from __future__ import annotations

import random

from .errors import DomainError
from .graph import build_bipartite, is_int

__all__ = ["generate_planted"]


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
    ):
        if not is_int(value):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if planted_a < 1 or planted_b < 1:
        raise DomainError("planted sides must be at least one vertex")
    if planted_a > n_left or planted_b > n_right:
        raise DomainError("planted block does not fit in the id ranges")
    if noise_edges < 0:
        raise DomainError("noise_edges must be nonnegative")
    if not 0.0 < planted_density_factor <= 1.0:
        raise DomainError("planted density factor must be in (0, 1]")

    a, b = planted_a, planted_b
    block_target = round(planted_density_factor * a * b)
    if block_target > a * b:
        raise DomainError("planted density factor asks for more than the full block")
    if block_target < max(a, b):
        raise DomainError(
            "planted density factor too small to touch every planted vertex"
        )

    rng = random.Random(rng_seed)
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

    edges = [(left_block[p], right_block[q], 1.0) for p, q in positions]

    if noise_avoids_planted:
        left_pool = sorted(set(range(n_left)).difference(left_block))
        right_pool = sorted(set(range(n_right)).difference(right_block))
        capacity = len(left_pool) * len(right_pool)
    else:
        left_pool = list(range(n_left))
        right_pool = list(range(n_right))
        capacity = n_left * n_right - a * b
    if noise_edges > capacity:
        raise DomainError(
            f"cannot place {noise_edges} distinct noise edges, only {capacity} slots"
        )
    if noise_edges and (not left_pool or not right_pool):
        raise DomainError("no room for noise edges outside the planted block")

    forbidden = {(left_block[p], right_block[q]) for p in range(a) for q in range(b)}
    if noise_edges * 2 > capacity:
        # dense regime: rejection sampling would crawl, so enumerate the slots
        available = [
            (u, v)
            for u in left_pool
            for v in right_pool
            if (u, v) not in forbidden
        ]
        edges.extend((u, v, 1.0) for u, v in rng.sample(available, noise_edges))
    else:
        used = set(forbidden)
        placed = 0
        while placed < noise_edges:
            u = left_pool[rng.randrange(len(left_pool))]
            v = right_pool[rng.randrange(len(right_pool))]
            if (u, v) in used:
                continue
            used.add((u, v))
            edges.append((u, v, 1.0))
            placed += 1

    g = build_bipartite(edges)
    planted_left = g.left_indices(left_block)
    planted_right = g.right_indices(right_block)
    return g, planted_left, planted_right
