import contextlib
import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
    LevelVector,
    StepRecord,
    build_bipartite,
    from_directed,
)
from localdense import growth
from localdense.growth import ProcessOutcome, run_pruned_growth

from conftest import (
    dense_biadjacency,
    k_ab,
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


# what a ProcessOutcome reports; its pair arrays are read through best
OUTCOME_FIELDS = ("best", "best_at", "steps_executed", "edges_touched", "trace")


def outcome_fields(out: ProcessOutcome) -> dict:
    """ProcessOutcome as the referee reports it: vectors as (side, levels
    dict, norm) triples."""
    fields = {name: getattr(out, name) for name in OUTCOME_FIELDS}
    fields["trace"] = [
        {
            f.name: (v.side, levels(v), v.norm) if isinstance(v, LevelVector) else v
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
    # x's product is taken at its own scale, so the one to a, 1e-320 *
    # 1e-320 in truth, does not underflow; truncation then drops it
    g = build_bipartite([("a", "x", 1e-320), ("c", "x", 1.0)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1, 0.1), keep_trace=True)
    first, second = out.trace[:2]
    (j,) = first.post_levels.exps.tolist()
    assert Fraction(math.ldexp(1.0, j)) == smallest_pow2_at_least(1e-320)
    assert first.post_levels.norm == math.ldexp(1.0, j)
    assert levels(second.post_levels) == {0: 2 * j, 1: j}
    assert levels(second.next_levels) == {1: j}
    assert out.edges_touched == 2 + 4 + 2
    # below x's 2**0, y sits at 2**-996, and its product to b, about
    # 2**-996 * 1e-30, underflows to 0.0 and is dropped, while a survives
    g = build_bipartite([("a", "x", 1.0), ("a", "y", 1e-300), ("b", "y", 1e-30)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 1e-310, 1e-310), keep_trace=True)
    first, second = out.trace
    assert levels(first.next_levels) == {0: 0, 1: -996}
    assert levels(second.post_levels) == {0: 0}
    # nothing overflows: the second product, 1e200 * 1e200 in truth, is
    # taken at the first one's scale, and its level is reported as 2 * 665
    g = build_bipartite([("a", "x", 1e200)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1), keep_trace=True)
    assert out.steps_executed == 2
    assert out.best.density == 1e200 and out.best_at == (0, 0, 665)
    assert [rec.post_levels.exps.tolist() for rec in out.trace] == [[665], [1330]]
    assert out.trace[1].post_levels.norm == math.inf
    # a level whose power of two is beyond the float range, and whose norm
    # the trace reports as inf
    g = build_bipartite([("a", "x", 1.5 * 2.0**1023)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1), keep_trace=True)
    assert out.steps_executed == 2 and out.best_at == (0, 0, 1024)
    first, second = out.trace
    assert first.post_levels.norm == first.next_levels.norm == math.inf
    assert second.x_levels.exps.tolist() == [1024]
    assert second.post_levels.exps.tolist() == [2048]


@pytest.mark.parametrize(
    "side, index, exps",
    [
        # the side is "L" or "R"
        ("left", [0], [0]),
        # index and exps are integer arrays of one length; an exponent
        # 0.5 would grow as 2**0
        ("L", np.array([0.0]), [0]),
        ("L", [0], [0.5]),
        ("L", [0, 1], [0]),
        ("L", [[0, 1]], [[0, 0]]),
        ("L", [0], [[0]]),
        # strictly ascending: [0, 0] would report density 2 for a pair of
        # density sqrt(2)
        ("L", [0, 0], [0, 0]),
        ("R", [1, 0], [0, 0]),
        # within the side
        ("L", [-1], [0]),
        ("R", [1, 2], [0, 0]),
        # each entry a positive float
        ("L", [0], [1024]),
        ("L", [0], [-1075]),
    ],
)
def test_malformed_start_is_rejected_before_any_lane_grows(side, index, exps):
    g = build_bipartite([("a", "x", 1.0), ("a", "y", 1.0)])
    bad = LevelVector(side, index, exps, math.sqrt(len(exps)))
    for starts in ([bad], [LevelVector.unit("R", 0), bad, LevelVector.unit("L", 0)]):
        with mock.patch.object(growth, "_product", wraps=growth._product) as product:
            with pytest.raises(DomainError):
                run_pruned_growth(g, starts, (0.5, 0.1))
        assert product.call_count == 0


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
    assert out.trace[0].next_levels.support_size == 0
    out = grow(star4, LevelVector.unit("L", 0), (0.5, 0.4999), keep_trace=True)
    assert out.trace[0].next_levels.support_size == 4
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
    kept = rec.next_levels
    assert kept.support_size <= 1.0 / eps**2
    threshold = eps * rec.post_levels.norm
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
    assert rec.post_levels.norm == 2.0
    assert levels(rec.post_levels) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert rec.next_levels.support_size == 4
    assert rec.next_levels.norm == 2.0


def test_step_raises_when_everything_prunes(star4):
    # the dying step still reports the rounded product it pruned away
    out, rec = first_step(star4, LevelVector.unit("L", 0), eps=1.0)
    assert rec.post_levels.norm == 2.0
    assert rec.post_levels.support_size == 4
    assert rec.next_levels.support_size == 0


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
        assert rec.post_levels.norm == pytest.approx(expected_norm, rel=1e-12)
        threshold = eps * rec.post_levels.norm
        kept = levels(rec.next_levels)
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
    # a subnormal weight no longer ends the run: the second product is
    # taken at the first one's scale, so it does not underflow
    g = build_bipartite([("a", "x", 1e-320)])
    out = grow(g, LevelVector.unit("L", 0), (0.5, 0.1, 0.1), keep_trace=True)
    assert out.steps_executed == 2
    assert out.edges_touched == 4
    assert out.best.density == 1e-320
    j = int(out.trace[0].post_levels.exps[0])
    assert j < -1000 and out.best_at == (0, 0, j)
    assert out.trace[1].post_levels.exps.tolist() == [2 * j]
    # a step with no level pair yields no candidate: the start's top entry
    # sits on a vertex with no arcs out, and the product of the other,
    # 2**-1074 * 0.5, underflows to 0.0, so the run stops before the step
    g = from_directed([("a", "b", 0.5)])
    out = grow(g, vector("L", {0: -1074, 1: 0}), (0.5, 0.1, 0.1), keep_trace=True)
    assert out.steps_executed == 0 and out.edges_touched == 0
    assert out.best is None and out.trace == []


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
    assert out.trace is None


@pytest.mark.parametrize("keep_trace, per_step", [(False, 1), (True, 3)])
def test_norms_are_computed_for_traces_only(monkeypatch, keep_trace, per_step):
    # truncation needs the rounded product's norm, and an untraced run
    # takes no truncation after its last step; the next vector's norm and
    # the pruned mass are read by traces alone
    calls = []
    norms = growth._norms
    monkeypatch.setattr(growth, "_norms", lambda *a: calls.append(a) or norms(*a))
    out = grow(k_ab(3, 4), LevelVector.unit("L", 0), (0.5, 0.01, 0.01, 0.01, 0.01), keep_trace)
    assert out.steps_executed == 4
    assert len(calls) == 4 * per_step - (not keep_trace)


@pytest.mark.parametrize("keep_trace", [False, True])
def test_level_tables_are_made_once(monkeypatch, keep_trace):
    # the starts' level table is made once, and every later one is the
    # kept rows of the rounded product's table: one _levels call for the
    # starts plus one per rounded product, whichever sides the lanes are on
    calls = []
    make = growth._levels
    monkeypatch.setattr(growth, "_levels", lambda *a: calls.append(a) or make(*a))
    starts = [LevelVector.unit("L", 0), LevelVector.unit("R", 1), LevelVector.ones("L", 3)]
    batch = run_pruned_growth(k_ab(3, 4), starts, (0.5, 0.01, 0.01, 0.01, 0.01), keep_trace)
    assert [out.steps_executed for out in batch.outcomes] == [4, 4, 4]
    assert len(calls) == 1 + 4


def test_run_pruned_growth_dying_step_still_reports(star4):
    out = grow(
        star4, LevelVector.unit("L", 0), (0.5, 0.6), keep_trace=True
    )
    assert out.steps_executed == 1
    assert out.best.density == 2.0
    rec = out.trace[0]
    assert rec.next_levels.support_size == 0
    assert rec.next_levels.norm == 0.0
    assert rec.pruned_count == 4
    assert rec.pruned_mass == pytest.approx(2.0)
    assert rec.post_levels.support_size == 4


def test_run_pruned_growth_single_edge_round_trip():
    h = build_bipartite([("a", "x", 1.0)])
    out = grow(h, LevelVector.unit("R", 0), (0.25, 0.01, 0.001))
    assert out.steps_executed == 2
    assert out.edges_touched == 4
    assert out.best.density == 1.0


def test_run_pruned_growth_isolated_start_stops_immediately():
    g = from_directed([("a", "b", 1.0)])
    # the left copy of "b" exists but has no outgoing edges
    out = grow(g, LevelVector.unit("L", 1), (0.25, 0.01))
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


def test_lanes_from_both_sides_share_one_pass_per_step():
    # a left and a right start on K(3, 4) each take three steps, all in
    # the same three passes
    g = k_ab(3, 4)
    starts = [LevelVector.unit("R", 2), LevelVector.unit("L", 0)]
    with mock.patch.object(growth, "_product", wraps=growth._product) as product:
        batch = run_pruned_growth(g, starts, (0.1,) * 4)
    assert [out.steps_executed for out in batch.outcomes] == [3, 3]
    assert product.call_count == 3


def test_lanes_keep_their_start_order():
    # starts that interleave the sides grow in start order, each lane to
    # the bit of its lone run and of its run in a batch sorted left first
    rng = random.Random(8)
    edges = [
        (f"l{u}", f"r{v}", rng.uniform(0.1, 3.0))
        for u in range(20)
        for v in range(30)
        if rng.random() < 0.2
    ]
    g = build_bipartite(edges)
    sides = "RLLRRLRLLR"
    kinds = ["unit", "spread", "ones", "unit", "spread"] * 2
    starts = [referee_start(rng, g, kind, side)[1] for kind, side in zip(kinds, sides)]
    epsilons = (0.5, 0.05, 0.05, 0.02, 0.02, 0.01)
    batch = run_pruned_growth(g, starts, epsilons, keep_trace=True).outcomes
    lone = [bits_of(grow(g, start, epsilons, keep_trace=True)) for start in starts]
    order = sorted(range(len(starts)), key=lambda k: starts[k].side != "L")
    left_first = run_pruned_growth(g, [starts[k] for k in order], epsilons, keep_trace=True)
    moved = [None] * len(starts)
    for k, out in zip(order, left_first.outcomes):
        moved[k] = bits_of(out)
    assert [bits_of(out) for out in batch] == lone == moved
    assert [out.trace[0].x_levels.side for out in batch] == list(sides)
    assert all(out.steps_executed >= 3 for out in batch)


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
        # a product through two 1e300 edges is 1e600 in truth, and one
        # through a 1e300 and a 1e8 edge rounds up to 2**1024: both lie
        # beyond the float range, and their trace norms read inf
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
        assert rec.next_levels.support_size * rec.eps_prune**2 <= 1.0


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
    check_numberings(g, lanes, epsilons)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 400), (400, 3)]),
    st.sampled_from(["unit", "weighted", "huge"]),
    st.lists(
        st.tuples(st.sampled_from(["unit", "ones", "spread"]), st.sampled_from(["L", "R"])),
        min_size=2,
        max_size=10,
    ),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_lopsided_mixed_lanes_match_lone_runs_and_referee(seed, shape, weights, kinds, epsilons):
    # lanes from both sides share every step, though one side is 133 times
    # the other: each step's keys take the wider side's width
    assume({side for _, side in kinds} == {"L", "R"})
    rng = random.Random(seed)
    nl, nr = shape
    edges = [
        (f"l{u}", f"r{v}", 1.0 if weights == "unit" else rng.uniform(0.1, 3.0))
        for u in range(nl)
        for v in range(nr)
        if rng.random() < 0.3
    ]
    if weights == "huge":
        edges = [(a, b, 1e300 if rng.random() < 0.05 else w) for a, b, w in edges]
    g = build_bipartite(edges or [("l0", "r0", 1.0)])
    lanes = [(side, *referee_start(rng, g, kind, side)) for kind, side in kinds]
    check_numberings(g, lanes, epsilons)


# module settings that force each way of numbering product entries: an
# occupancy array, one sort of packed (key, position) words, np.unique
NUMBERINGS = {
    "occupancy": {"_OCCUPANCY_FACTOR": 10**9},
    "packed": {"_OCCUPANCY_FACTOR": 0},
    "unique": {"_OCCUPANCY_FACTOR": 0, "_PACK_BITS": 0},
}


def numbered(path):
    """A context that sets growth's module settings for one numbering."""
    patches = contextlib.ExitStack()
    for name, value in NUMBERINGS[path].items():
        patches.enter_context(mock.patch.object(growth, name, value))
    return patches


def check_numberings(g, lanes, epsilons):
    """Check the (side, exponents, start vector) lanes against the referee
    with every step's product entries numbered each way NUMBERINGS names;
    all must agree."""
    wants = [reference_growth(g, side, exps, epsilons) for side, exps, _ in lanes]
    seen = []
    for path in NUMBERINGS:
        with numbered(path):
            seen.append(check_lanes(g, [vec for _, _, vec in lanes], wants, epsilons))
    assert all(fields == seen[0] for fields in seen)


def check_lanes(g, starts, wants, epsilons):
    """Grow the starts as one batch, traced and not, and each alone; check
    every outcome against the referee's and return the traced ones'
    fields.  An untraced run skips the last step's truncation, yet must
    report what the traced one does, bit for bit."""
    batch = run_pruned_growth(g, starts, epsilons, keep_trace=True)
    bare = run_pruned_growth(g, starts, epsilons)
    assert len(batch.outcomes) == len(bare.outcomes) == len(starts)
    for vec, want, out, plain in zip(starts, wants, batch.outcomes, bare.outcomes):
        lone = grow(g, vec, epsilons, keep_trace=True)
        fields = outcome_fields(out)
        assert fields == want
        assert fields == outcome_fields(lone)
        assert plain.trace is None
        assert bits_of(plain)[:-1] == bits_of(out)[:-1]
        assert dataclasses.replace(plain, trace=out.trace) == out
    runs = batch.outcomes
    assert batch.edges_touched == bare.edges_touched == sum(o.edges_touched for o in runs)
    assert batch.steps_executed == bare.steps_executed == sum(o.steps_executed for o in runs)
    return [outcome_fields(o) for o in runs]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from(["unit", "weighted", "subnormal", "huge"]),
    st.lists(
        st.tuples(st.sampled_from(["unit", "ones", "spread"]), st.sampled_from(["L", "R"])),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7),
)
def test_trace_chains(seed, directed, weights, kinds, epsilons):
    # each step starts from the vector the step before kept, and the pruned
    # count is the number of rounded entries truncation dropped, which it
    # compares at the product's own scale, its top level at 2**0
    rng = random.Random(seed)
    g = referee_graph(rng, weights, directed)
    starts = [referee_start(rng, g, kind, side)[1] for kind, side in kinds]
    batch = run_pruned_growth(g, starts, epsilons, keep_trace=True).outcomes
    lone = [grow(g, start, epsilons, keep_trace=True) for start in starts]
    for start, out in zip(starts * 2, batch + lone):
        if out.trace:
            assert out.trace[0].x_levels == start
        for rec, after in zip(out.trace, out.trace[1:]):
            assert rec.next_levels == after.x_levels
        for rec in out.trace:
            exps = rec.post_levels.exps.tolist()
            top = max(exps)
            cut = rec.eps_prune * reference_norm(e - top for e in exps)
            dropped = sum(math.ldexp(1.0, e - top) <= cut for e in exps)
            assert rec.pruned_count == dropped


def test_subnormal_graphs_match_dict_referee():
    eps = (0.5, 0.1, 0.1, 0.1, 0.1)
    for edges in ([("a", "x", 1e-320)], [("a", "x", 1e-320), ("c", "x", 1.0)]):
        g = build_bipartite(edges)
        for side in ("L", "R"):
            out = grow(g, LevelVector.unit(side, 0), eps, keep_trace=True)
            assert outcome_fields(out) == reference_growth(g, side, {0: 0}, eps)
    # below a's top entry, b's 2**-30 makes its product to x underflow to
    # 0.0 while the one to y stays subnormal; x's edge must add nothing to
    # any pair's weight
    g = build_bipartite([("a", "z", 1e-312), ("b", "y", 1e-310), ("b", "x", 1e-315)])
    out = grow(g, vector("L", {0: 0, 1: -30}), eps, keep_trace=True)
    assert outcome_fields(out) == reference_growth(g, "L", {0: 0, 1: -30}, eps)
    assert out.trace[0].post_levels.index.tolist() == [0, 1]
    assert out.best.edge_weight == 1e-310


def bits_of(out):
    """An outcome with every float as its hex form, its trace last."""

    def vec(v):
        return (v.side, v.index.tolist(), v.exps.tolist(), v.norm.hex())

    best = out.best
    return (
        None if best is None else (sorted(best.left), sorted(best.right)),
        None if best is None else (best.edge_weight.hex(), best.density.hex()),
        out.best_at,
        out.steps_executed,
        out.edges_touched,
        [
            (
                rec.t,
                vec(rec.x_levels),
                vec(rec.post_levels),
                vec(rec.next_levels),
                rec.max_pair_density.hex(),
                rec.pruned_mass.hex(),
            )
            for rec in out.trace or ()
        ],
    )


def test_numberings_give_identical_outcomes():
    # one call on a weighted graph with lanes from both sides, among them
    # one whose product partly underflows to 0.0 (so a step masks its
    # entries) and one whose product lies past the float range
    rng = random.Random(3)
    edges = [
        (f"l{u}", f"r{v}", rng.uniform(0.1, 3.0))
        for u in range(30)
        for v in range(40)
        if rng.random() < 0.2
    ]
    edges += [("tiny", "t0", 1e-300), ("tiny", "t1", 0.5), ("top", "t2", 1.0), ("huge", "r2", 3.0)]
    g = build_bipartite(edges)
    (tiny,), (top,), (huge,) = (g.left_indices([v]) for v in ("tiny", "top", "huge"))
    starts = [
        LevelVector.unit("L", 0),
        vector("R", {3: 0, 7: -2, 11: 1}),
        vector("L", {tiny: -1000, top: 0}),
        LevelVector.unit("R", 5),
        vector("L", {huge: 1023}),
        vector("L", {2: -1, 9: 0, 20: -3}),
    ]
    epsilons = (0.5, 0.05, 0.05, 0.02, 0.02, 0.01)
    seen = {}
    for path in NUMBERINGS:
        with numbered(path), mock.patch.object(np, "unique", wraps=np.unique) as unique:
            batch = run_pruned_growth(g, starts, epsilons, keep_trace=True)
        assert unique.called == (path == "unique")
        seen[path] = [bits_of(out) for out in batch.outcomes]
    assert seen["packed"] == seen["occupancy"] == seen["unique"]
    outcomes = batch.outcomes
    # 3 * 2**1023 rounds up to 2**1025, and the trace's norm reads inf
    assert outcomes[4].trace[0].post_levels.exps.tolist() == [1025]
    assert outcomes[4].trace[0].post_levels.norm == math.inf
    # the product to t0 underflowed and was dropped
    want = sorted(g.right_indices(["t1", "t2"]))
    assert outcomes[2].trace[0].post_levels.index.tolist() == want
    assert all(out.steps_executed >= 3 for out in outcomes)


def test_norms_match_exact_referee():
    # where every square and the sum are normal floats a norm is the
    # square root of their fsum, to the bit; elsewhere it is finite and
    # positive below 2**1023, inf above 2**1024, and within a few ulps of
    # the exact norm wherever that is a normal float
    rng = random.Random(11)
    # summed left to right, the squares of the first set round to a norm
    # one ulp off
    batches = [[[(-30, 2**52 + 1), (-26, 2**52 + 1), (0, 1)]]]
    for _ in range(300):
        batch = []
        for _ in range(rng.randint(1, 6)):
            base = rng.choice((rng.randint(-1074, -1000), rng.randint(-30, 30), 1020))
            spread = rng.choice((3, 6, 30, 2000))
            # about one slot in six has no levels
            exps = [] if rng.random() < 1 / 6 else [base + rng.randint(0, spread) for _ in range(4)]
            batch.append(
                [(e, rng.choice((1, 3, rng.randint(1, 2**40), rng.randint(1, 2**53))))
                 for e in sorted({min(1023, e) for e in exps})]
            )
        batches.append(batch)
    tiny, huge = Fraction(2) ** -1022, Fraction(2) ** 1024
    for batch in batches:
        flat = [(s, e, c) for s, levels in enumerate(batch) for e, c in levels]
        args = [np.array([f[k] for f in flat], dtype=np.int64) for k in range(3)]
        for norm, levels in zip(growth._norms(*args, len(batch)).tolist(), batch):
            if not levels:
                assert norm == 0.0
                continue
            squares = [c * Fraction(2) ** (2 * e) for e, c in levels]
            exact = sum(squares)
            if all(tiny <= q < huge for q in squares + [exact]):
                referee = math.sqrt(math.fsum(c * 2.0 ** (2 * e) for e, c in levels))
                assert norm.hex() == referee.hex()
            elif exact < Fraction(2) ** 2046:
                assert 0.0 < norm < math.inf
                if exact >= tiny**2:
                    assert abs(Fraction(norm) ** 2 - exact) <= exact / 2**50
            elif exact > Fraction(2) ** 2048:
                assert norm == math.inf
