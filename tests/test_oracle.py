import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localdense
from localdense import (
    DomainError,
    PreconditionFailed,
    TooLarge,
    build_bipartite,
    density,
    exact_densest,
    generate_planted,
    good_seed_set,
    local_density,
    local_guarantee_bound,
    restrict,
    top_eigenvalue,
)
from localdense import oracle

from conftest import (
    dense_biadjacency,
    dense_eigenvalue,
    k_ab,
    naive_densest,
    random_bipartite,
    reference_certificate_margin,
    reference_edge_weight,
    reference_exact_densest,
)


def test_exact_on_complete_block():
    sub = exact_densest(k_ab(2, 3))
    assert sub.density == pytest.approx(math.sqrt(6))
    assert sub.left == frozenset({0, 1})
    assert sub.right == frozenset({0, 1, 2})


def test_exact_prefers_embedded_dense_block():
    edges = [(f"l{i}", f"r{j}", 1.0) for i in range(3) for j in range(3)]
    edges += [(f"p{i}", f"q{i}", 1.0) for i in range(4)]
    g = build_bipartite(edges)
    sub = exact_densest(g)
    assert sub.density == pytest.approx(3.0)
    assert sub.sizes == (3, 3)


def test_exact_tie_breaks_toward_first_subset():
    g = build_bipartite([("a", "x", 1.0), ("b", "y", 1.0)])
    sub = exact_densest(g)
    assert sub.density == 1.0
    assert sub.left == frozenset({0})
    assert sub.right == frozenset({0})


def test_exact_tie_breaks_toward_first_block():
    # two identical K2,4 blocks on left vertices {0, 5} and {1, 6}: masks 33
    # and 66 score 8 / sqrt(8) and their union 99 scores 16 / sqrt(32), the
    # same float to the last bit.  The 300 light pendant edges widen the
    # partner side so that the masks are scored in different blocks.
    edges = [(f"l{u}", f"r{j}", 1.0) for u in (0, 5) for j in range(4)]
    edges += [(f"l{u}", f"r{j}", 1.0) for u in (1, 6) for j in range(4, 8)]
    edges += [(f"l{2 + i % 3}", f"p{i}", 0.01) for i in range(300)]
    g = build_bipartite(sorted(edges, key=lambda e: (int(e[0][1:]), e[1])))
    assert (g.left_count, g.right_count) == (7, 308)
    assert [g.left_id(u) for u in (0, 1, 5, 6)] == ["l0", "l1", "l5", "l6"]
    sub = exact_densest(g)
    assert sub.density == 8 / math.sqrt(8)
    assert sub.left == frozenset({0, 5})
    assert {g.right_id(v) for v in sub.right} == {"r0", "r1", "r2", "r3"}
    assert sub == reference_exact_densest(g)


def test_exact_tie_between_block_and_union_prefers_lower_mask():
    # two disjoint K2,2 blocks: each scores 4 / sqrt(2 * 2) and their union
    # 8 / sqrt(4 * 4), both exactly 2.0, so the first subset (mask 3) wins.
    # A denominator of sqrt(2) * sqrt(2) scores each block just under 2.0
    # and lets the union win.
    edges = [(f"l{u}", f"r{u // 2 * 2 + j}", 1.0) for u in range(4) for j in range(2)]
    g = build_bipartite(edges)
    for sub in (exact_densest(g), reference_exact_densest(g)):
        assert sub.density == 2.0
        assert sub.left == frozenset({0, 1})
        assert sub.right == frozenset({0, 1})


@pytest.mark.parametrize("weight", [1.0, 0.1, 0.7])
def test_exact_scores_every_subset_when_all_tie(weight):
    # fourteen disjoint equal stars of four leaves: every union of m stars
    # scores 4 m w / sqrt(m * 4 m) = 2 w, and its bound is the same value, so
    # no subset may be pruned.  At weight 1 every value is exact and mask 1
    # wins; at 0.1 and 0.7 rounding alone orders the bounds and densities
    g = build_bipartite(
        (f"c{i:02}", f"l{i:02}.{j}", weight) for i in range(14) for j in range(4)
    )
    sub = exact_densest(g)
    ref = reference_exact_densest(g)
    assert (sub.left, sub.right) == (ref.left, ref.right)
    if weight == 1.0:
        assert sub.left == frozenset({0})
    assert sub.density.hex() == ref.density.hex()
    assert sub.edge_weight.hex() == ref.edge_weight.hex()


@pytest.mark.parametrize("rounding", [oracle._ROUNDING, 0.0])
@pytest.mark.parametrize("star_first", [True, False])
def test_exact_threshold_ties_keep_first_mask(monkeypatch, rounding, star_first):
    # the star {a} (four edges of weight 1) and {b} (edges of weight 2 and
    # 0.25) both score exactly 2.0, but b's bound is larger, so b sets the
    # threshold.  When a comes first its bound equals the threshold exactly:
    # it must be kept and win the tie.  When a comes later it ties the
    # threshold subset and must not replace it.  Every value here is exact,
    # so with no rounding slack the strict comparison alone keeps the tie.
    monkeypatch.setattr(oracle, "_ROUNDING", rounding)
    a = [("a", f"x{j}", 1.0) for j in range(4)]
    b = [("b", "y0", 2.0), ("b", "y1", 0.25)]
    g = build_bipartite(a + b if star_first else b + a)
    sub = exact_densest(g)
    ref = reference_exact_densest(g)
    assert sub.density == 2.0
    assert {g.left_id(u) for u in sub.left} == {"a" if star_first else "b"}
    assert (sub.left, sub.right) == (ref.left, ref.right)
    assert sub.density.hex() == ref.density.hex()


def test_exact_finds_optimum_without_low_vertices():
    # at this width a block covers the subsets of the five lowest vertices,
    # so mask 96 = {5, 6} is the first subset of its block
    edges = [(f"l{u}", f"r{j}", 1.0) for u in (5, 6) for j in range(4)]
    edges += [(f"l{i % 5}", f"p{i}", 0.01) for i in range(300)]
    g = build_bipartite(sorted(edges, key=lambda e: (int(e[0][1:]), e[1])))
    assert [g.left_id(u) for u in (5, 6)] == ["l5", "l6"]
    sub = exact_densest(g)
    assert sub.left == frozenset({5, 6})
    assert sub.density == 8 / math.sqrt(8)


def test_exact_handles_wide_graphs_by_flipping():
    sub = exact_densest(k_ab(5, 2))
    assert sub.density == pytest.approx(math.sqrt(10))
    assert sub.sizes == (5, 2)


def test_exact_side_cap():
    g = build_bipartite([(f"l{i}", f"r{i}", 1.0) for i in range(6)])
    with pytest.raises(TooLarge):
        exact_densest(g, side_cap=5)
    with pytest.raises(DomainError):
        exact_densest(g, side_cap=0)
    assert exact_densest(g, side_cap=6).density == 1.0


def test_exact_side_cap_must_be_an_integer():
    g = build_bipartite([(f"l{i}", f"r{i}", 1.0) for i in range(6)])
    for cap in (True, False, "x", 6.0, None):
        with pytest.raises(DomainError):
            exact_densest(g, side_cap=cap)
    assert exact_densest(g, side_cap=np.int64(6)).density == 1.0
    with pytest.raises(TooLarge):
        exact_densest(g, side_cap=np.int32(5))


def exact_case(rng, small, width, weights, small_on_left):
    """Random graph on at most `small` vertices of one side and `width` of the other.

    Sparse noise, then up to two identical complete blocks on random disjoint
    vertex sets with the noise at their vertices removed: the optimum often
    avoids the lowest vertices, and the two blocks score the same to the bit.
    """

    def weight():
        if weights == "unit":
            return 1.0
        if weights == "integer":
            return float(rng.randint(1, 9))
        if weights == "decimal":
            # sums that tie in exact arithmetic, where rounding decides
            return rng.choice((0.1, 0.2, 0.3, 0.7))
        w = rng.uniform(0.1, 3.0)
        if weights == "huge":
            # squares overflow unless the bounds scale them down first
            return w * 1e300
        return w * 1e-320 if weights == "subnormal" and rng.random() < 0.5 else w

    wt = {(u, rng.randrange(width)): weight() for u in range(small)}
    wt.update(((rng.randrange(small), v), weight()) for v in range(width))
    for _ in range(rng.randint(0, small + width)):
        wt[rng.randrange(small), rng.randrange(width)] = weight()
    copies = min(rng.choice((0, 1, 2, 2)), small, width)
    a = rng.randint(1, small // max(copies, 1))
    b = rng.randint(1, min(width // max(copies, 1), 12))
    us = rng.sample(range(small), copies * a)
    vs = rng.sample(range(width), copies * b)
    wt = {(u, v): w for (u, v), w in wt.items() if u not in us and v not in vs}
    pattern = [[4 * weight() for _ in range(b)] for _ in range(a)]
    for c in range(copies):
        rows, cols = sorted(us[c * a : c * a + a]), sorted(vs[c * b : c * b + b])
        for i, u in enumerate(rows):
            for j, v in enumerate(cols):
                wt[u, v] = pattern[i][j]
    return build_bipartite(
        (f"s{u}", f"p{v}", w) if small_on_left else (f"p{v}", f"s{u}", w)
        for (u, v), w in sorted(wt.items())
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    # narrow partner sides fit 2**8 or more subsets in one block; wide ones
    # only 2 to 16, so small sides fall below, at and above one block
    st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 64)),
        st.tuples(st.integers(1, 7), st.integers(1000, 4100)),
    ),
    st.sampled_from(["unit", "integer", "decimal", "float", "subnormal", "huge"]),
    st.booleans(),
)
def test_exact_matches_per_mask_referee(seed, shape, weights, small_on_left):
    small, width = shape
    g = exact_case(random.Random(seed), small, width, weights, small_on_left)
    ours = exact_densest(g)
    ref = reference_exact_densest(g)
    assert ours.left == ref.left
    assert ours.right == ref.right
    assert ours.edge_weight.hex() == ref.edge_weight.hex()
    assert ours.density.hex() == ref.density.hex()


def exact_peak_memory(g):
    exact_densest(g)
    tracemalloc.start()
    try:
        exact_densest(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_search_memory_stays_per_block():
    # the full table of 2**14 incident rows would take 131 MB here
    g, _, _ = generate_planted(14, 1000, 4000, 12, 40, 0.5, rng_seed=1)
    peak = exact_peak_memory(g)
    assert peak <= 2**20, peak


def test_exact_search_memory_at_the_side_cap():
    # one float per subset for the bounds, 8 MB at a side of 20: at most
    # two arrays of that size may be held at once
    g, _, _ = generate_planted(20, 40, 120, 6, 8, 0.5, rng_seed=7)
    peak = exact_peak_memory(g)
    assert peak <= 16 * 2**20, peak


def test_exact_agrees_with_full_enumeration():
    rng = random.Random(17)
    for _ in range(40):
        g = random_bipartite(rng, 7, 7, weighted=rng.random() < 0.5, min_edges=2)
        ours = exact_densest(g)
        dens, _, _ = naive_densest(g)
        assert ours.density == pytest.approx(dens, rel=1e-12)
        # the reported pair really achieves the reported weight
        mat = dense_biadjacency(g)
        rows = sorted(ours.left)
        cols = sorted(ours.right)
        assert ours.edge_weight == pytest.approx(
            mat[np.ix_(rows, cols)].sum(), rel=1e-12
        )


def test_eigenvalue_on_complete_blocks():
    for a, b in ((1, 1), (2, 3), (4, 4)):
        est = top_eigenvalue(k_ab(a, b))
        assert est.converged
        assert est.value == pytest.approx(math.sqrt(a * b), rel=1e-9)
        assert est.residual <= 1e-9 * est.value


def test_eigenvalue_weighted_edge_and_disjoint_blocks():
    est = top_eigenvalue(build_bipartite([("a", "x", 2.5)]))
    assert est.value == pytest.approx(2.5, rel=1e-9)
    blocks = [(f"l{i}", f"r{j}", 1.0) for i in range(3) for j in range(3)]
    blocks.append(("solo", "out", 1.0))
    est = top_eigenvalue(build_bipartite(blocks))
    assert est.value == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("w", [1e160, 1e-160, 1e200, 1e-200, 1e300, 1e-300])
def test_eigenvalue_holds_at_any_weight_scale(w):
    # the path y-a-x-b has top eigenvalue the golden ratio times w; a norm
    # of squared entries would overflow above about 1e154 and underflow
    # below about 1e-154
    g = build_bipartite([("a", "x", w), ("a", "y", w), ("b", "x", w), ("c", "z", w / 2)])
    est = top_eigenvalue(g)
    assert est.converged
    assert abs(est.value / w - (1 + math.sqrt(5)) / 2) <= 1e-12
    assert math.isfinite(est.residual)
    assert est.residual <= 1e-9 * est.value


def test_eigenvalue_at_the_largest_weight():
    # the Rayleigh quotient of one edge may round a bit above its weight;
    # the top eigenvalue is at most the largest degree, which bounds it
    w = sys.float_info.max
    est = top_eigenvalue(build_bipartite([("a", "x", w)]))
    assert est.converged and est.value == w
    assert math.isfinite(est.residual) and est.residual <= 1e-12 * w


def test_eigenvalue_against_dense_solver():
    rng = random.Random(23)
    for _ in range(30):
        g = random_bipartite(rng, 8, 8, weighted=True, min_edges=4)
        est = top_eigenvalue(g)
        lam = dense_eigenvalue(g)
        assert est.value == pytest.approx(lam, rel=1e-7, abs=1e-9)
        # the estimate plus its residual always dominates every density
        exact = exact_densest(g)
        assert est.value + est.residual >= exact.density - 1e-9


def test_eigenvector_is_unit_and_consistent():
    rng = random.Random(31)
    g = random_bipartite(rng, 7, 7, weighted=True, min_edges=6)
    est = top_eigenvalue(g)
    norm_sq = float(est.left @ est.left + est.right @ est.right)
    assert norm_sq == pytest.approx(1.0, rel=1e-12)
    mat = dense_biadjacency(g)
    assert np.allclose(mat @ est.right, est.value * est.left, atol=1e-7)
    assert np.allclose(mat.T @ est.left, est.value * est.right, atol=1e-7)


def eigen_case(rng, kind, weighted):
    """Graph of one shape for the spectral differential test."""

    def weight():
        return rng.uniform(0.1, 3.0) if weighted else 1.0

    if kind == "random":
        return random_bipartite(rng, 12, 12, weighted=weighted)
    if kind == "edge":
        return build_bipartite([("a", "x", weight())])
    if kind == "star":
        edges = [("hub", f"r{j}", weight()) for j in range(rng.randint(1, 12))]
        return build_bipartite(edges if rng.random() < 0.5 else [(v, u, w) for u, v, w in edges])
    if kind == "tied":
        # identical disjoint blocks share the top eigenvalue; a lighter copy
        # adds a component below it
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        pattern = [[weight() for _ in range(b)] for _ in range(a)]
        scales = [1.0] * rng.randint(2, 3) + [0.5] * rng.randint(0, 1)
        return build_bipartite(
            (f"l{c}.{i}", f"r{c}.{j}", scale * pattern[i][j])
            for c, scale in enumerate(scales)
            for i in range(a)
            for j in range(b)
        )
    # restricted to sets around one edge, which leaves isolated vertices
    g = random_bipartite(rng, 12, 12, weighted=weighted)
    u, v, _ = rng.choice(list(g.edges()))
    left = {u} | {x for x in range(g.left_count) if rng.random() < 0.3}
    right = {v} | {y for y in range(g.right_count) if rng.random() < 0.3}
    return restrict(g, left, right)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "edge", "star", "tied", "restricted"]),
    st.booleans(),
    # a basis of 6 makes most graphs here restart, one of 20 only some
    st.sampled_from([20, 6]),
)
def test_eigenvalue_matches_dense_solve(seed, kind, weighted, krylov):
    g = eigen_case(random.Random(seed), kind, weighted)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_KRYLOV", krylov)
        est = top_eigenvalue(g)
    lam = dense_eigenvalue(g)
    assert est.converged
    assert abs(est.value - lam) <= 1e-12 * lam
    assert est.residual <= 1e-9 * lam
    vec = np.concatenate([est.left, est.right])
    assert vec.min() >= 0.0
    assert float(vec @ vec) == pytest.approx(1.0, rel=1e-12)
    mat = dense_biadjacency(g)
    assert np.allclose(mat @ est.right, est.value * est.left, rtol=0.0, atol=1e-9 * lam)
    assert np.allclose(mat.T @ est.left, est.value * est.right, rtol=0.0, atol=1e-9 * lam)


def test_eigenvalue_unconverged_when_rounds_run_out(monkeypatch):
    # the path l0 r0 l1 r1 l2 r2 has six distinct eigenvalues; two Lanczos
    # vectors and a single round cannot find the top one, 2 cos(pi / 7)
    monkeypatch.setattr(oracle, "_KRYLOV", 2)
    monkeypatch.setattr(oracle, "_RESTARTS", 1)
    g = build_bipartite([("l0", "r0", 1.0), ("l1", "r0", 1.0), ("l1", "r1", 1.0),
                         ("l2", "r1", 1.0), ("l2", "r2", 1.0)])
    est = top_eigenvalue(g)
    assert not est.converged
    assert est.iterations == 3  # the residual's product included
    # a Rayleigh quotient: above the ones vector's 2 * 5 / 6, below the top
    assert 5 / 3 < est.value < 2 * math.cos(math.pi / 7)
    assert est.residual > 1e-3
    vec = np.concatenate([est.left, est.right])
    assert vec.min() >= 0.0
    assert float(vec @ vec) == pytest.approx(1.0, rel=1e-12)


_SCIPY_PROBE = """
import json, sys
import localdense
from localdense.verify import run_verification

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
g, left, right = localdense.generate_planted(6, 9, 20, 3, 3, rng_seed=1)
localdense.top_eigenvalue(g)
localdense.exact_densest(g)
loaded["oracles"] = scipy_modules()
# numpy 1.x loads numpy.ma with numpy itself: count what verify adds
before = set(sys.modules)
planted = ([g.left_id(u) for u in sorted(left)], [g.right_id(v) for v in sorted(right)])
run_verification(g, planted=planted)
loaded["verify"] = sorted(
    m for m in set(sys.modules) - before
    if m.split(".")[0] == "scipy" or m.startswith("numpy.ma")
)
print(json.dumps(loaded))
"""


def test_package_loads_no_scipy():
    # numpy is the only runtime dependency: importing the package and running
    # both matrix oracles must not load scipy, even where it is installed, and
    # a verify run must not load numpy.ma either (1.2 MB of memory)
    src = os.path.dirname(os.path.dirname(localdense.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "oracles": [], "verify": []}


def test_good_seeds_on_complete_block():
    g = k_ab(3, 3)
    report = good_seed_set(g, {0, 1, 2}, {0, 1, 2}, density_threshold=1.5)
    assert report.good == frozenset({0, 1, 2})
    assert report.coverage == 1.0
    assert report.batches == 1
    cert = report.certificates[0]
    assert cert.eigenvalue == pytest.approx(3.0, rel=1e-9)
    assert cert.margin >= -1e-9
    assert cert.vertex_value >= 1 / math.sqrt(6) - 1e-12


def test_result_sets_hold_python_ints():
    g = k_ab(3, 3)
    sub = density(g, np.array([0, 1]), np.array([0], dtype=np.uint8))
    report = good_seed_set(g, np.arange(3), np.arange(3), density_threshold=1.5)
    cert = report.certificates[0]
    for members in (sub.left, sub.right, report.good, report.certificates, cert.left, cert.right):
        assert {type(v) for v in members} == {int}
        json.dumps(sorted(members))
    assert sub == density(g, {0, 1}, {0})
    assert report.good == frozenset({0, 1, 2})


def test_good_seeds_validation():
    g = k_ab(2, 2)
    with pytest.raises(DomainError):
        good_seed_set(g, {0, 1}, {0, 1}, density_threshold=0.0)
    with pytest.raises(PreconditionFailed):
        good_seed_set(g, {0, 1}, {0, 1}, density_threshold=1.5)


def test_good_seeds_cover_half_with_a_weak_member():
    edges = [("hub", f"r{j}", 1.0) for j in range(4)]
    edges.append(("weak", "r0", 1.0))
    g = build_bipartite(edges)
    pair_density = 5 / math.sqrt(2 * 4)
    theta = pair_density / 2.0
    report = good_seed_set(g, {0, 1}, {0, 1, 2, 3}, density_threshold=theta)
    assert 0 in report.good
    assert report.coverage >= 0.5
    assert report.edge_weight_total == 5.0


def test_good_seeds_stop_once_the_restriction_has_no_edge():
    # once "a" is certified, "b" has no edge to "x", so the pair left to
    # peel has no edge and restricting to it fails
    g = build_bipartite([("a", "x", 2.0), ("b", "y", 1.0), ("c", "x", 0.5)])
    left, right = g.left_indices(["a", "b"]), g.right_indices(["x"])
    theta = density(g, left, right).density / 2.0
    report = good_seed_set(g, left, right, density_threshold=theta)
    assert report.good == g.left_indices(["a"])
    assert report.batches == 1
    assert report.coverage == 1.0


def certificate_slack(g, cert, theta):
    """Recompute the certificate inequality with a dense matvec."""
    mat = dense_biadjacency(g)
    psi_l = np.zeros(g.left_count)
    psi_r = np.zeros(g.right_count)
    for u, val in cert.left.items():
        psi_l[u] = val
    for v, val in cert.right.items():
        psi_r[v] = val
    norm_sq = float(psi_l @ psi_l + psi_r @ psi_r)
    slacks = []
    al = mat @ psi_r - theta * psi_l
    ar = mat.T @ psi_l - theta * psi_r
    slacks.extend(float(al[u]) for u in cert.left)
    slacks.extend(float(ar[v]) for v in cert.right)
    return norm_sq, min(slacks)


def test_certificates_verify_independently():
    rng = random.Random(41)
    checked = 0
    for _ in range(20):
        g, left, right = generate_planted(
            n_left=30,
            n_right=30,
            noise_edges=rng.randint(0, 60),
            planted_a=rng.randint(3, 6),
            planted_b=rng.randint(3, 6),
            rng_seed=rng.randint(0, 10**6),
        )
        block = density(g, left, right)
        theta = block.density / 2.0
        report = good_seed_set(g, left, right, density_threshold=theta)
        assert report.coverage >= 0.5 - 1e-12
        min_weight = 1 / math.sqrt(2 * len(left))
        for v in report.good:
            cert = report.certificates[v]
            norm_sq, slack = certificate_slack(g, cert, theta)
            assert norm_sq == pytest.approx(1.0, rel=1e-9)
            assert slack >= cert.margin - 1e-9
            assert cert.margin >= -1e-9
            assert cert.left[v] >= min_weight - 1e-12
            checked += 1
    assert checked > 0


def weighted_planted(seed):
    """A planted pair in weighted noise: long binary expansions, repeated rows.

    Returns the graph and the pair's left and right index sets.
    """
    rng = random.Random(seed)
    shape, left, right = generate_planted(
        n_left=30,
        n_right=40,
        noise_edges=rng.randint(20, 120),
        planted_a=rng.randint(3, 6),
        planted_b=rng.randint(3, 8),
        rng_seed=seed,
    )
    rows = [
        (
            shape.left_id(u),
            shape.right_id(v),
            rng.uniform(1.0, 2.0) if u in left and v in right else rng.uniform(0.05, 1.0),
        )
        for u, v, _ in shape.edges()
    ]
    g = build_bipartite(rows + rng.sample(rows, len(rows) // 4))
    return (
        g,
        g.left_indices(shape.left_id(u) for u in left),
        g.right_indices(shape.right_id(v) for v in right),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_certificate_margins_match_per_vertex_referee(seed):
    g, left, right = weighted_planted(seed)
    theta = density(g, left, right).density / 2.0
    report = good_seed_set(g, left, right, density_threshold=theta)
    assert report.good
    for cert in report.certificates.values():
        assert cert.margin == reference_certificate_margin(g, cert.left, cert.right, theta)
    assert report.edge_weight_good == reference_edge_weight(g, report.good, right)
    assert report.edge_weight_total == reference_edge_weight(g, left, right)


def test_good_seeds_are_productive_local_starts():
    g, left, right = generate_planted(
        n_left=40, n_right=40, noise_edges=80, planted_a=5, planted_b=5, rng_seed=3
    )
    block = density(g, left, right)
    theta = block.density / 2.0
    report = good_seed_set(g, left, right, density_threshold=theta)
    target = max(len(left), len(right))
    floor = local_guarantee_bound(theta, g.max_degree, target)
    for v in sorted(report.good):
        res = local_density(g, g.left_id(v), target_size=target, side="L")
        assert res.density >= floor - 1e-12
