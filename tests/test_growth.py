import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
    LevelVector,
    NegativeEntry,
    StepRecord,
    build_bipartite,
    from_directed,
)
from localdense.growth import ProcessOutcome, run_pruned_growth

from conftest import (
    dense_biadjacency,
    random_bipartite,
    reference_growth,
    reference_norm,
)


def smallest_pow2_at_least(z: float) -> Fraction:
    """Exact referee for the rounding rule, via rational arithmetic."""
    f = Fraction(z)
    assert f > 0
    p = Fraction(1)
    if p >= f:
        while p / 2 >= f:
            p /= 2
    else:
        while p < f:
            p *= 2
    return p


def levels(vec: LevelVector) -> dict:
    return dict(zip(vec.index.tolist(), vec.exps.tolist()))


def vector(side, exponents: dict) -> LevelVector:
    """A start vector with arbitrary exponents, normed like the referee."""
    items = sorted(exponents.items())
    return LevelVector(
        side,
        np.array([u for u, _ in items], dtype=np.int64),
        np.array([i for _, i in items], dtype=np.int64),
        reference_norm(exponents.values()),
    )


def outcome_fields(out: ProcessOutcome) -> dict:
    """ProcessOutcome as the referee reports it: levels as dicts."""
    fields = {f.name: getattr(out, f.name) for f in dataclasses.fields(ProcessOutcome)}
    fields["trace"] = [
        {
            f.name: levels(v) if isinstance(v, LevelVector) else v
            for f in dataclasses.fields(StepRecord)
            for v in (getattr(rec, f.name),)
        }
        for rec in out.trace
    ]
    return fields


def grow(g, start, epsilons, keep_trace=False):
    return run_pruned_growth(g, [start], epsilons, keep_trace).outcomes[0]


def first_step(g, start, eps=0.01):
    out = grow(g, start, (0.5, eps), keep_trace=True)
    return out, out.trace[0]


def test_round_up_examples():
    g = build_bipartite(
        [("c", t, w) for t, w in zip("vwxyz", (3.0, 4.0, 0.3, 1.0, 0.5))]
    )
    _, rec = first_step(g, LevelVector.unit("L", 0))
    assert levels(rec.post_levels) == {0: 2, 1: 2, 2: -1, 3: 0, 4: -1}
    assert rec.post_levels.level_count == 3


def test_round_up_drops_zeros_and_rejects_bad_entries():
    # from x the product to a underflows to 0.0 and is dropped, while the
    # one to c survives
    g = build_bipartite([("a", "x", 1e-320), ("c", "x", 1.0)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1, 0.1), keep_trace=True)
    first, second = out.trace[:2]
    (j,) = first.post_levels.exps.tolist()
    assert Fraction(math.ldexp(1.0, j)) == smallest_pow2_at_least(1e-320)
    assert first.pre_norm == math.ldexp(1.0, j)
    assert levels(second.post_levels) == {1: j}
    assert out.edges_touched == 2 + 4 + 2
    # an overflow is the lane's outcome, not an exception of the call: a
    # finite product rounds to a finite level; the next one overflows
    g = build_bipartite([("a", "x", 1e200)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1))
    assert isinstance(out, NegativeEntry)
    assert str(out) == "a product entry overflows to inf"
    # a level whose power of two is beyond the float range
    g = build_bipartite([("a", "x", 1.5 * 2.0**1023)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1))
    assert isinstance(out, NegativeEntry)
    assert str(out) == "vector norm overflows at level 2**1024"
    # a start entry that is no positive float
    for i in (1024, -1075):
        start = LevelVector("L", np.array([0]), np.array([i]), 1.0)
        with pytest.raises(DomainError):
            grow(g, start, (0.5, 0.1))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-30, 1e30, allow_nan=False, allow_infinity=False))
def test_round_up_sandwich(z):
    g = build_bipartite([("a", "x", z)])
    _, rec = first_step(g, LevelVector.unit("L", 0))
    (j,) = rec.post_levels.exps.tolist()
    rounded = math.ldexp(1.0, j)
    assert Fraction(rounded) == smallest_pow2_at_least(z)
    assert z <= rounded < 2 * z


def test_unit_and_ones_vectors():
    u = LevelVector.unit("L", 3)
    assert levels(u) == {3: 0}
    assert u.norm == 1.0
    assert u.level_count == 1
    ones = LevelVector.ones("R", 4)
    assert ones.support_size == 4
    assert ones.norm == pytest.approx(2.0)
    assert ones == LevelVector.ones("R", 4)
    assert ones != LevelVector.ones("L", 4)
    assert ones != vector("R", {0: 0, 1: 0, 2: 0, 3: 1})


def test_truncate_is_strict(star4):
    # the product is four entries 1.0 with norm 2; eps 0.5 puts the
    # threshold exactly at 1.0
    out = grow(star4, LevelVector.unit("L", 0), (0.5, 0.5), keep_trace=True)
    assert out.trace[0].next_support == 0
    out = grow(star4, LevelVector.unit("L", 0), (0.5, 0.4999), keep_trace=True)
    assert out.trace[0].next_support == 4
    # every fraction is checked before the run, also one it would only
    # reach after eps 1.0 has pruned it to nothing
    for bad in (-0.1, 1.5):
        for epsilons in ((0.5, bad), (0.5, 1.0, bad)):
            with pytest.raises(DomainError):
                grow(star4, LevelVector.unit("L", 0), epsilons)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10_000),
    st.dictionaries(st.integers(0, 8), st.integers(-30, 30), min_size=1, max_size=9),
    st.floats(0.01, 1.0),
)
def test_truncate_support_bound(seed, exps, eps):
    g = random_bipartite(random.Random(seed), 9, 9, weighted=True)
    exps = {u: i for u, i in exps.items() if u < g.left_count} or {0: 0}
    out = grow(g, vector("L", exps), (0.5, eps, 0.5), keep_trace=True)
    rec = out.trace[0]
    assert rec.next_support <= 1.0 / eps**2
    if rec.next_support:
        threshold = eps * rec.pre_norm
        kept = out.trace[1].x_levels
        assert all(math.ldexp(1.0, i) > threshold for i in kept.exps.tolist())


def test_multiply_star(star4):
    out = grow(star4, LevelVector.unit("L", 0), (0.5, 0.01, 0.01), keep_trace=True)
    there, back = out.trace
    assert levels(there.post_levels) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert levels(back.post_levels) == {0: 2}
    _, rec = first_step(star4, LevelVector.ones("R", 4))
    assert levels(rec.post_levels) == {0: 2}


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.dictionaries(st.integers(0, 5), st.integers(-6, 3), max_size=6))
def test_multiply_matches_dense_matvec(seed, exps):
    rng = random.Random(seed)
    g = random_bipartite(rng, 6, 6, weighted=True)
    exps = {u: i for u, i in exps.items() if u < g.left_count} or {0: 0}
    _, rec = first_step(g, vector("L", exps))
    dense = np.zeros(g.left_count)
    for u, i in exps.items():
        dense[u] = math.ldexp(1.0, i)
    prod = dense @ dense_biadjacency(g)
    rounded = levels(rec.post_levels)
    assert set(rounded) == {v for v in range(g.right_count) if prod[v] > 0}
    for v, j in rounded.items():
        assert prod[v] * (1 - 1e-12) <= math.ldexp(1.0, j) < 2 * prod[v] * (1 + 1e-12)


def test_step_on_star(star4):
    _, rec = first_step(star4, LevelVector.unit("L", 0))
    assert rec.pre_norm == 2.0
    assert levels(rec.post_levels) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert rec.next_support == 4
    assert rec.next_norm == 2.0


def test_step_raises_when_everything_prunes(star4):
    # the dying step still reports the rounded product it pruned away
    out, rec = first_step(star4, LevelVector.unit("L", 0), eps=1.0)
    assert out.stopped_early
    assert rec.pre_norm == 2.0
    assert rec.post_levels.support_size == 4
    assert rec.next_support == 0


def test_step_referee_against_exact_rounding():
    rng = random.Random(7)
    for _ in range(40):
        g = random_bipartite(rng, 7, 7, weighted=True)
        support = rng.sample(range(g.left_count), rng.randint(1, g.left_count))
        exps = {u: rng.randint(-5, 2) for u in support}
        eps = rng.choice([0.01, 0.1, 0.3, 0.7])
        out = grow(g, vector("L", exps), (0.5, eps, 0.5), keep_trace=True)
        prod = {}
        for u, i in sorted(exps.items()):
            for v, w in zip(*(a.tolist() for a in g.neighbors("L", u))):
                prod[v] = prod.get(v, 0.0) + math.ldexp(1.0, i) * w
        expected = {v: smallest_pow2_at_least(z) for v, z in prod.items() if z > 0}
        expected_norm = math.sqrt(float(sum(p * p for p in expected.values())))
        rec = out.trace[0]
        got = {v: Fraction(math.ldexp(1.0, j)) for v, j in levels(rec.post_levels).items()}
        assert got == expected
        assert rec.pre_norm == pytest.approx(expected_norm, rel=1e-12)
        threshold = eps * rec.pre_norm
        kept = levels(out.trace[1].x_levels) if len(out.trace) > 1 else {}
        assert rec.next_support == len(kept)
        for v, p in expected.items():
            assert (v in kept) == (float(p) > threshold)


def test_evaluate_candidates_star(star4):
    out, _ = first_step(star4, LevelVector.unit("L", 0))
    assert out.best.density == 2.0
    assert out.best_at == (0, 0, 0)
    assert out.best.left == frozenset({0})
    assert out.best.right == frozenset({0, 1, 2, 3})


def test_evaluate_candidates_tie_prefers_smallest_pair():
    # a sits at level 0 and b at level 1, so x and y land on levels 0 and 1
    # and the pairs (0, 0) and (1, 1) both have density 1
    g = build_bipartite([("a", "x", 1.0), ("b", "y", 1.0)])
    out, rec = first_step(g, vector("L", {0: 0, 1: 1}))
    assert levels(rec.post_levels) == {0: 0, 1: 1}
    assert out.best.density == 1.0
    assert out.best_at == (0, 0, 0)
    assert out.best.left == frozenset({0})


def test_evaluate_candidates_canonical_orientation():
    g = build_bipartite([("a", "x", 1.0)])
    out, _ = first_step(g, LevelVector.unit("R", 0))
    assert out.best.left == frozenset({0})
    assert out.best.right == frozenset({0})


def test_evaluate_candidates_failures():
    # a step with no level pair yields no candidate: here every product of
    # the second step underflows to 0.0, so the run stops before taking it
    g = build_bipartite([("a", "x", 1e-320)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1), keep_trace=True)
    assert out.stopped_early
    assert out.steps_executed == 1
    assert len(out.trace) == 1
    assert out.edges_touched == 2
    assert out.best.density == 1e-320
    j = int(out.trace[0].post_levels.exps[0])
    assert j < -1000 and out.best_at == (0, 0, j)


def test_level_sets_round_trip():
    vec = vector("L", {5: -2, 1: 0, 3: -2})
    assert vec.index.tolist() == [1, 3, 5]
    assert vec.exps.tolist() == [0, -2, -2]
    assert vec.level_count == 2
    assert vec.support_size == 3
    assert levels(vec) == {1: 0, 3: -2, 5: -2}


def test_run_pruned_growth_counts_work(star4):
    out = grow(star4, LevelVector.unit("L", 0), (0.25, 0.01))
    assert out.steps_executed == 1
    assert out.edges_touched == 8
    assert out.best.density == 2.0
    assert out.best_at == (0, 0, 0)
    assert not out.stopped_early
    assert out.trace is None


def test_run_pruned_growth_dying_step_still_reports(star4):
    out = grow(
        star4, LevelVector.unit("L", 0), (0.5, 0.6), keep_trace=True
    )
    assert out.stopped_early
    assert out.steps_executed == 1
    assert out.best.density == 2.0
    rec = out.trace[0]
    assert rec.next_support == 0
    assert rec.next_norm == 0.0
    assert rec.pruned_count == 4
    assert rec.pruned_mass == pytest.approx(2.0)
    assert rec.post_levels.support_size == 4


def test_run_pruned_growth_single_edge_round_trip():
    h = build_bipartite([("a", "x", 1.0)])
    out = grow(h, LevelVector.unit("R", 0), (0.25, 0.01, 0.001))
    assert out.steps_executed == 2
    assert out.edges_touched == 4
    assert out.best.density == 1.0
    assert not out.stopped_early


def test_run_pruned_growth_isolated_start_stops_immediately():
    g = from_directed([("a", "b", 1.0)])
    # the left copy of "b" exists but has no outgoing edges
    out = grow(g, LevelVector.unit("L", 1), (0.25, 0.01))
    assert out.stopped_early
    assert out.steps_executed == 0
    assert out.best is None


def test_run_pruned_growth_deterministic():
    rng = random.Random(21)
    g = random_bipartite(rng, 8, 8, weighted=True, min_edges=10)
    eps = (0.25, 0.125, 0.0625, 0.03125)
    runs = [
        grow(g, LevelVector.unit("L", 0), eps, keep_trace=True)
        for _ in range(2)
    ]
    assert runs[0].best == runs[1].best
    assert runs[0].best_at == runs[1].best_at
    assert runs[0].edges_touched == runs[1].edges_touched
    assert runs[0].trace == runs[1].trace


def referee_graph(rng, weights, directed=False):
    """A random graph on up to 9 + 9 vertices with unit, weighted, partly
    subnormal or partly huge weights.  A directed one puts every vertex on
    both sides, so a vertex without arcs out (or in) is isolated on the left
    (or right)."""
    if directed:
        n = rng.randint(2, 9)
        edges = [
            (f"v{a}", f"v{b}", 1.0 if weights == "unit" else rng.uniform(0.1, 3.0))
            for a in range(n)
            for b in range(n)
            if a != b and rng.random() < 0.25
        ] or [("v0", "v1", 1.0)]
    else:
        g = random_bipartite(rng, 9, 9, weighted=weights != "unit")
        edges = [(g.left_id(u), g.right_id(v), w) for u, v, w in g.edges()]
    if weights == "subnormal":
        # products of these weights with small entries underflow to 0.0
        edges = [(a, b, w * 1e-320 if rng.random() < 0.4 else w) for a, b, w in edges]
    if weights == "huge":
        # a product through two 1e300 edges overflows to inf, and one
        # through a 1e300 and a 1e8 edge rounds up to 2**1024, beyond the
        # float range
        edges = [
            (a, b, rng.choice((1e300, 1e8, 1e8, 1e8)) if rng.random() < 0.3 else w)
            for a, b, w in edges
        ]
    return (from_directed if directed else build_bipartite)(edges)


def referee_start(rng, g, kind, side):
    """(exponents, LevelVector) of a unit, ones, spread or isolated start."""
    n = g.side_count(side)
    if kind == "ones":
        return dict.fromkeys(range(n), 0), LevelVector.ones(side, n)
    if kind == "spread":
        support = rng.sample(range(n), rng.randint(1, n))
        exps = {u: rng.randint(-8, 3) for u in support}
        return exps, vector(side, exps)
    idle = [u for u in range(n) if g.fanout(side, u) == 0]
    u = rng.choice(idle) if kind == "isolated" and idle else rng.randrange(n)
    return {u: 0}, LevelVector.unit(side, u)


@settings(max_examples=250, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["unit", "weighted", "subnormal"]),
    st.sampled_from(["unit", "ones", "spread"]),
    st.sampled_from(["L", "R"]),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
)
def test_growth_matches_dict_referee(seed, weights, start, side, epsilons):
    rng = random.Random(seed)
    g = referee_graph(rng, weights)
    exps, vec = referee_start(rng, g, start, side)
    out = grow(g, vec, epsilons, keep_trace=True)
    assert outcome_fields(out) == reference_growth(g, side, exps, epsilons)
    for rec in out.trace:
        assert rec.next_support * rec.eps_prune**2 <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["unit", "weighted", "subnormal", "huge"]),
    st.lists(
        st.tuples(
            st.sampled_from(["unit", "ones", "spread", "isolated", "repeat"]),
            st.sampled_from(["L", "R"]),
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
)
def test_lanes_match_lone_runs_and_dict_referee(seed, directed, weights, kinds, epsilons):
    rng = random.Random(seed)
    g = referee_graph(rng, weights, directed)
    lanes = []  # (side, exponents, start vector)
    for kind, side in kinds:
        if kind == "repeat" and lanes:
            lanes.append(rng.choice(lanes))
        else:
            lanes.append((side, *referee_start(rng, g, kind, side)))
    starts = [vec for _, _, vec in lanes]
    batch = run_pruned_growth(g, starts, epsilons, keep_trace=True)
    bare = run_pruned_growth(g, starts, epsilons)
    assert len(batch.outcomes) == len(bare.outcomes) == len(lanes)
    for (side, exps, vec), out, plain in zip(lanes, batch.outcomes, bare.outcomes):
        lone = grow(g, vec, epsilons, keep_trace=True)
        try:
            want = reference_growth(g, side, exps, epsilons)
        except NegativeEntry as exc:
            # the overflowing lane alone fails, as its lone run does
            for got in (out, plain, lone):
                assert isinstance(got, NegativeEntry) and str(got) == str(exc)
            continue
        fields = outcome_fields(out)
        assert fields == want
        assert fields == outcome_fields(lone)
        assert plain.trace is None
        assert dataclasses.replace(plain, trace=out.trace) == out
    runs = [o for o in batch.outcomes if isinstance(o, ProcessOutcome)]
    assert batch.edges_touched == bare.edges_touched == sum(o.edges_touched for o in runs)
    assert batch.steps_executed == bare.steps_executed == sum(o.steps_executed for o in runs)


def test_subnormal_graphs_match_dict_referee():
    eps = (0.5, 0.1, 0.1, 0.1, 0.1)
    for edges in ([("a", "x", 1e-320)], [("a", "x", 1e-320), ("c", "x", 1.0)]):
        g = build_bipartite(edges)
        for side in ("L", "R"):
            out = grow(g, LevelVector.unit(side, 0), eps, keep_trace=True)
            assert outcome_fields(out) == reference_growth(g, side, {0: 0}, eps)
    # from 2**-30 the product to x underflows to 0.0 while the one to y
    # stays subnormal; x's edge must add nothing to any pair's weight
    g = build_bipartite([("b", "y", 1e-310), ("b", "x", 1e-315)])
    out = grow(g, vector("L", {0: -30}), eps, keep_trace=True)
    assert outcome_fields(out) == reference_growth(g, "L", {0: -30}, eps)
    assert out.best.edge_weight == 1e-310

