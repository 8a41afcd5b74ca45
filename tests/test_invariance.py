"""Invariance referees: a uniform weight scale, a side swap and a symmetric
directed graph must each leave every result unchanged, up to the obvious
map.  Each compares whole outcomes, so it checks any change to the growth
loop against the loop itself."""

import math
import random
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localdense import (
    LEFT,
    RIGHT,
    build_bipartite,
    density,
    exact_densest,
    from_directed,
    global_density,
    local_density,
    seed_scan,
    top_eigenvalue,
)


def weighted_rows(rng):
    """The rows of a random graph on up to 9 + 9 vertices, with weights in
    [0.1, 3.0] or all one."""
    nl, nr = rng.randint(1, 9), rng.randint(1, 9)
    unit = rng.random() < 0.25
    pairs = {(rng.randrange(nl), rng.randrange(nr)) for _ in range(rng.randint(1, 4 * (nl + nr)))}
    return [(f"l{u}", f"r{v}", 1.0 if unit else rng.uniform(0.1, 3.0)) for u, v in sorted(pairs)]


def seeds_of(g):
    return [(g.left_id(u), LEFT) for u in range(g.left_count)] + [
        (g.right_id(v), RIGHT) for v in range(g.right_count)
    ]


def is_normal(w):
    return sys.float_info.min <= w <= sys.float_info.max


def shifted(found_at, k):
    """found_at of a run on the graph with every weight times 2**k: the
    vector of step t holds t products, so its levels move by k * t."""
    t, i, j = found_at
    return (t, i + k * t, j + k * (t + 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000), st.integers(1, 16))
def test_weight_scale_moves_only_exponents(seed, k, target):
    # every weight times 2**k multiplies every product by 2**k; rounding to
    # powers of two, truncation relative to the norm and the level-pair
    # densities commute with that, so each run keeps its sets, steps and
    # work, its densities scale exactly and its levels move
    rows = weighted_rows(random.Random(seed))
    assume(all(is_normal(w) and is_normal(math.ldexp(w, k)) for _, _, w in rows))
    g = build_bipartite(rows)
    h = build_bipartite([(a, b, math.ldexp(w, k)) for a, b, w in rows])
    runs = [(global_density(g, keep_trace=True), global_density(h, keep_trace=True))]
    for token, side in seeds_of(g):
        runs.append(
            (
                local_density(g, token, target, side, keep_trace=True),
                local_density(h, token, target, side, keep_trace=True),
            )
        )
    for a, b in runs:
        assert b.start == a.start
        assert (b.subgraph.left, b.subgraph.right) == (a.subgraph.left, a.subgraph.right)
        assert b.subgraph.edge_weight == math.ldexp(a.subgraph.edge_weight, k)
        assert b.density == math.ldexp(a.density, k)
        assert (b.steps, b.edges_touched) == (a.steps, a.edges_touched)
        assert b.found_at == shifted(a.found_at, k)
        for ta, tb in zip(a.traces, b.traces, strict=True):
            assert len(ta.steps) == len(tb.steps)
            for ra, rb in zip(ta.steps, tb.steps):
                for va, vb, moved in (
                    (ra.x_levels, rb.x_levels, k * ra.t),
                    (ra.post_levels, rb.post_levels, k * (ra.t + 1)),
                    (ra.next_levels, rb.next_levels, k * (ra.t + 1)),
                ):
                    assert vb.index.tolist() == va.index.tolist()
                    assert vb.exps.tolist() == (va.exps + moved).tolist()
                assert rb.max_pair_density == math.ldexp(ra.max_pair_density, k)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000))
def test_weight_scale_scales_the_eigenvalue(seed, k):
    # Lanczos runs on the weights over a power of two near the largest, so
    # both graphs run on the same floats, and the value and residual scale
    # exactly
    rows = weighted_rows(random.Random(seed))
    assume(all(is_normal(w) and is_normal(math.ldexp(w, k)) for _, _, w in rows))
    a = top_eigenvalue(build_bipartite(rows))
    b = top_eigenvalue(build_bipartite([(u, v, math.ldexp(w, k)) for u, v, w in rows]))
    assert b.value == math.ldexp(a.value, k)
    assert b.residual == math.ldexp(a.residual, k)
    assert (b.iterations, b.converged) == (a.iterations, a.converged)
    assert b.left.tolist() == a.left.tolist() and b.right.tolist() == a.right.tolist()


def test_subnormal_weights_keep_the_eigenvalue():
    # the path y-a-x-b at the least subnormal weight: the true value is the
    # golden ratio times 2**-1074, which rounds to 2**-1073
    g = build_bipartite([("a", "x", 5e-324), ("a", "y", 5e-324), ("b", "x", 5e-324)])
    est = top_eigenvalue(g)
    assert est.converged and est.value == 1e-323


def mirrored(sub):
    return sub.right, sub.left


def close(a, b):
    """Equal up to the rounding of sums taken in another order."""
    return math.isclose(a, b, rel_tol=1e-14)


def same_run(a, b):
    """Two results of mirrored runs: sets swapped, every number equal."""
    assert mirrored(a.subgraph) == (b.subgraph.left, b.subgraph.right)
    assert a.subgraph.edge_weight.hex() == b.subgraph.edge_weight.hex()
    assert a.density.hex() == b.density.hex()
    assert (a.found_at, a.steps, a.edges_touched) == (b.found_at, b.steps, b.edges_touched)


def same_traces(ta, tb):
    assert len(ta.steps) == len(tb.steps)
    for ra, rb in zip(ta.steps, tb.steps):
        for va, vb in ((ra.x_levels, rb.x_levels), (ra.post_levels, rb.post_levels)):
            assert va.side != vb.side
            assert (va.index.tolist(), va.exps.tolist()) == (vb.index.tolist(), vb.exps.tolist())
            assert va.norm.hex() == vb.norm.hex()
        assert ra.max_pair_density.hex() == rb.max_pair_density.hex()
        assert ra.pruned_mass.hex() == rb.pruned_mass.hex()
        assert ra.pruned_count == rb.pruned_count


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_side_swap_mirrors_every_result(seed, target):
    # the growth, the exact search and Lanczos treat the two sides alike;
    # both graphs are built from the same rows, so each side keeps its
    # vertex order, and every growth sum runs in the same order
    rows = weighted_rows(random.Random(seed))
    g = build_bipartite(rows)
    s = build_bipartite([(b, a, w) for a, b, w in rows])
    flip = {LEFT: RIGHT, RIGHT: LEFT}
    seeds = seeds_of(g)
    for token, side in seeds:
        same_run(local_density(g, token, target, side), local_density(s, token, target, flip[side]))
    scan_g = seed_scan(g, seeds, target, top_n=len(seeds))
    scan_s = seed_scan(s, [(token, flip[side]) for token, side in seeds], target, top_n=len(seeds))
    assert len(scan_g.results) == len(scan_s.results)
    for a, b in zip(scan_g.results, scan_s.results):
        assert b.start == f"seed:{flip[a.start[5]]}:{a.start[7:]}"
        same_run(a, b)
    assert scan_g.failures == scan_s.failures == []

    glob_g, glob_s = global_density(g, keep_trace=True), global_density(s, keep_trace=True)
    assert glob_g.density.hex() == glob_s.density.hex()
    assert (glob_g.steps, glob_g.edges_touched) == (glob_s.steps, glob_s.edges_touched)
    same_traces(glob_g.traces[0], glob_s.traces[1])
    same_traces(glob_g.traces[1], glob_s.traces[0])
    if glob_g.start != glob_s.start:
        same_run(glob_g, glob_s)
    else:
        # the two starts tie, and each graph keeps its left start's find
        assert glob_g.start == "ones:L"

    # the exact search sums its smaller side's rows, and Lanczos its
    # vectors, in an order that follows the sides, so their floats may
    # differ in the last bits, and two pairs that tie up to rounding may
    # trade places
    ex_g, ex_s = exact_densest(g), exact_densest(s)
    assert close(ex_g.density, ex_s.density)
    assert close(density(s, *mirrored(ex_g)).density, ex_s.density)
    assert close(top_eigenvalue(g).value, top_eigenvalue(s).value)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 16))
def test_symmetric_directed_graph_mirrors_its_sides(seed, target):
    # each arc is there in both directions with one weight, so the left and
    # right copies of a vertex see the same rows, and their runs mirror
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    arcs = {}
    for _ in range(rng.randint(1, 3 * n)):
        a, b = rng.sample(range(n), 2)
        arcs[a, b] = arcs[b, a] = rng.choice((1.0, rng.uniform(0.1, 3.0)))
    g = from_directed((f"v{a}", f"v{b}", w) for (a, b), w in sorted(arcs.items()))
    for u in range(g.left_count):
        token = g.left_id(u)
        same_run(local_density(g, token, target, LEFT), local_density(g, token, target, RIGHT))
