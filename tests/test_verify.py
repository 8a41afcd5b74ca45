import dataclasses
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    LEFT,
    DomainError,
    EmptySide,
    LevelVector,
    LocalDenseError,
    NoCandidate,
    UnknownVertex,
    build_bipartite,
    generate_planted,
    local_density,
    restrict,
)
from localdense import globalopt, local, verify
from localdense.local import LocalSchedule
from localdense.verify import PROPERTY_NAMES, exit_code, run_verification

from conftest import k_ab, random_bipartite


def by_name(results):
    return {r.name: r for r in results}


def test_all_properties_reported_in_order():
    results = run_verification(k_ab(3, 3))
    assert tuple(r.name for r in results) == PROPERTY_NAMES
    assert all(r.status in ("pass", "fail", "skip") for r in results)
    assert exit_code(results) == 0


def test_planted_checks_skip_without_block():
    results = by_name(run_verification(k_ab(2, 2)))
    for name in ("planted-coverage", "planted-certificates", "planted-local-guarantee"):
        assert results[name].status == "skip"


def planted_block():
    """A 25-by-25 graph with a planted 4-by-4 block, and the block's ids."""
    g, left, right = generate_planted(25, 25, 40, 4, 4, rng_seed=6)
    return g, block_ids(g, left, right)


def block_ids(g, left, right):
    return [g.left_id(u) for u in sorted(left)], [g.right_id(v) for v in sorted(right)]


def test_planted_checks_run_with_block():
    g, planted = planted_block()
    results = by_name(run_verification(g, planted=planted, target_size=4))
    for name in ("planted-coverage", "planted-certificates", "planted-local-guarantee"):
        assert results[name].status == "pass", results[name].detail
    assert exit_code(run_verification(g, planted=planted, target_size=4)) == 0


def lone_left_runs(g, vertices, sched, keep_trace=False):
    """verify's local runs made one seed at a time: a lone local_density
    call per left vertex, with its error, if any, in its place."""
    for v in vertices:
        try:
            yield local_density(g, g.left_id(v), sched.target_size, LEFT, keep_trace)
        except LocalDenseError as exc:
            yield exc


@st.composite
def planted_graphs(draw):
    """A generate_planted graph and its block's ids; some right vertices
    outside the block may be cut away, which can leave left vertices with
    no edges."""
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    n_left, n_right = draw(st.integers(a, 12)), draw(st.integers(b, 30))
    block_edges = draw(st.integers(max(a, b), a * b))
    noise = draw(st.integers(0, min(60, n_left * n_right - a * b)))
    g, left, right = generate_planted(
        n_left, n_right, noise, a, b, block_edges / (a * b), draw(st.integers(0, 10**6))
    )
    planted = block_ids(g, left, right)
    others = sorted(set(range(g.right_count)) - right)
    cut = draw(st.sets(st.sampled_from(others))) if others else set()
    g = restrict(g, range(g.left_count), set(range(g.right_count)) - cut)
    return g, planted


@settings(max_examples=40, deadline=None)
@given(case=planted_graphs(), target_size=st.integers(1, 8))
def test_batched_local_runs_match_lone_runs(case, target_size):
    g, planted = case

    def verification():
        return (
            verify._collect_traces(g, LocalSchedule.for_target(target_size)),
            run_verification(g, planted=planted, target_size=target_size),
        )

    batched = verification()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_grow_left", lone_left_runs)
        assert verification() == batched


def test_a_planted_verification_makes_three_growth_calls(monkeypatch):
    # the whole-graph run, the eight traced local runs and the good-seed
    # runs each grow as one call; the lanes are counted per call
    g, planted = planted_block()
    lanes = []
    for module in (globalopt, local):

        def counted(g, starts, *args, grow=module.run_pruned_growth):
            lanes.append(len(starts))
            return grow(g, starts, *args)

        monkeypatch.setattr(module, "run_pruned_growth", counted)
    results = by_name(run_verification(g, planted=planted, target_size=4))
    good = int(results["planted-local-guarantee"].detail.split()[0])
    assert good > 1
    assert lanes == [2, 8, good]


@pytest.mark.parametrize("traced", [True, False])
def test_local_loops_raise_the_first_failing_seeds_error(monkeypatch, traced):
    # the traced loop skips a seed with no edges and raises the next error;
    # the good-seed loop raises the first error of all
    g, planted = planted_block()
    grow_left = verify._grow_left

    def failing(g, vertices, sched, keep_trace=False):
        runs = list(grow_left(g, vertices, sched, keep_trace))
        if keep_trace == traced:
            runs[1:1] = [NoCandidate("no edges"), UnknownVertex("first"), UnknownVertex("second")]
        return runs

    monkeypatch.setattr(verify, "_grow_left", failing)
    error, message = (UnknownVertex, "first") if traced else (NoCandidate, "no edges")
    with pytest.raises(error, match=f"^{message}$"):
        run_verification(g, planted=planted, target_size=4)


def test_bad_arguments_raise_before_anything_grows(monkeypatch):
    # each bad argument raises the error it raised when the traced runs
    # came first, but before they start
    g, (left, right) = planted_block()

    def no_traces(*args):
        raise AssertionError("traced runs started")

    monkeypatch.setattr(verify, "_collect_traces", no_traces)
    for bad, error, message in [
        ({"side_cap": 0}, DomainError, "side cap must be at least one"),
        ({"side_cap": "20"}, DomainError, "side cap must be an integer, got '20'"),
        ({"planted": (left + ["zz"], right)}, UnknownVertex, "left vertex 'zz' not found"),
        ({"planted": (left, ["zz"] + right)}, UnknownVertex, "right vertex 'zz' not found"),
        ({"planted": ([], right)}, EmptySide, "density requires both sets nonempty"),
        ({"density_threshold": 0.0}, DomainError, "density threshold must be positive"),
        ({"target_size": 0}, DomainError, "target size must be a positive integer, got 0"),
    ]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_verification(g, **{"planted": (left, right), "target_size": 4, **bad})


def test_exact_agreement_skips_above_cap():
    g = build_bipartite([(f"l{i}", f"r{i}", 1.0) for i in range(8)])
    results = by_name(run_verification(g, side_cap=4))
    assert results["exact-agreement"].status == "skip"
    results = by_name(run_verification(g, side_cap=8))
    assert results["exact-agreement"].status == "pass"


def test_verification_handles_small_weights():
    # weights below one stretch the level spread; the cap folds that in
    g = build_bipartite(
        [("a", "x", 0.05), ("a", "y", 0.3), ("b", "x", 0.07), ("c", "y", 1.5)]
    )
    results = run_verification(g, target_size=2)
    assert exit_code(results) == 0


def test_subnormal_weights_do_not_crash_the_step_checks():
    # eps_t * min_weight underflows to 0.0 here, so the caps' span is a sum
    # of logs, not the log of a quotient; Lanczos runs on the weights over
    # 2**-1073, so the eigenvalue estimate is positive and the guarantee
    # is checked
    g = build_bipartite([("a", "x", 5e-324), ("a", "y", 5e-324), ("b", "x", 5e-324)])
    results = run_verification(g)
    assert len(results) == 10
    assert [r.status for r in results[:7]] == ["pass"] * 7
    guarantee = by_name(results)["global-guarantee"]
    assert (guarantee.status, guarantee.detail) == ("pass", "global density 4.94066e-324 vs floor 0")


def scaled(g, factor):
    """g with every edge weight multiplied by factor."""
    return build_bipartite([(g.left_id(u), g.right_id(v), w * factor) for u, v, w in g.edges()])


def statuses(results):
    return [(r.name, r.status) for r in results]


def test_light_weights_keep_every_status():
    # a power-of-two scale scales every product, norm and density exactly,
    # so every check reads as on the original: on this 20-by-1000 graph at
    # 2**-20, 2 * delta falls below eps_t, where a growth cap without the
    # weight floor turns negative
    g, left, right = generate_planted(20, 1000, 6000, 12, 40, 0.5, rng_seed=7)
    planted = block_ids(g, left, right)
    results = run_verification(g, planted=planted)
    light = run_verification(scaled(g, 2.0**-20), planted=planted)
    assert statuses(light) == statuses(results)
    assert [r.detail for r in light[:4]] == [r.detail for r in results[:4]]
    assert exit_code(light) == 0


def test_tiny_weights_pass_every_property():
    # at 2**-600 every square of a Lanczos vector's entry underflows, and
    # an absolute allowance of 1e-9 would dwarf every density
    g, left, right = generate_planted(12, 40, 150, 4, 6, 0.5, rng_seed=3)
    planted = block_ids(g, left, right)
    for graph in (g, scaled(g, 2.0**-600)):
        results = run_verification(graph, planted=planted, target_size=6)
        assert [r.status for r in results] == ["pass"] * 10, [r.detail for r in results]


def test_heavy_weights_keep_every_status():
    # scaled by 3.3e12, the whole-graph run here finds the exact optimum and
    # sums its weight in another order, one ulp above the oracle's; an
    # absolute tolerance of 1e-9 is below one ulp at these densities
    edges = [
        ("l1", "r0", 2.1),
        ("l1", "r1", 1.1),
        ("l0", "r0", 0.5),
        ("l0", "r1", 0.24174144501795042),
        ("l0", "r2", 2.312374095355447),
        ("l2", "r0", 0.257206231199249),
        ("l2", "r1", 1.7670761418791232),
        ("l2", "r2", 0.6),
        ("l2", "r3", 0.1),
    ]
    g = build_bipartite(edges)
    results = run_verification(g)
    assert statuses(run_verification(scaled(g, 3.3e12))) == statuses(results)
    assert exit_code(results) == 0
    # at 2**45 the density of k_ab(3, 4) exceeds the Lanczos estimate plus
    # its residual by under one ulp, and the planted certificates' margins
    # reach -0.016: both past an absolute tolerance, both rounding at scale
    g = k_ab(3, 4)
    results = run_verification(g)
    assert statuses(run_verification(scaled(g, 2.0**45))) == statuses(results)
    assert exit_code(results) == 0
    g, left, right = generate_planted(20, 1000, 6000, 12, 40, 0.5, rng_seed=7)
    planted = block_ids(g, left, right)
    results = run_verification(g, planted=planted)
    heavy = run_verification(scaled(g, 2.0**45), planted=planted)
    assert statuses(heavy) == statuses(results)
    assert exit_code(results) == 0


def test_verification_passes_on_random_graphs():
    rng = random.Random(55)
    for _ in range(5):
        g = random_bipartite(rng, 12, 12, weighted=rng.random() < 0.5, min_edges=6)
        results = run_verification(g, target_size=4)
        failed = [r for r in results if r.status == "fail"]
        assert not failed, [(r.name, r.detail) for r in failed]


def growth_cap(rec, delta):
    return 2.0 * rec.max_pair_density * rec.x_levels.norm * math.log2(2.0 * delta / rec.eps_t)


def padded(vec, exps):
    """vec with one more entry at each exponent in exps, on vertices past its
    support; its norm is kept, so only its counts change."""
    extra = np.arange(len(exps)) + vec.index.max(initial=-1) + 1
    return dataclasses.replace(
        vec,
        index=np.append(vec.index, extra),
        exps=np.append(vec.exps, np.array(exps, dtype=np.int64)),
    )


def padded_product(rec, exps):
    """The rounded product and the kept vector padded alike, so that the
    pruned count holds."""
    return {
        "post_levels": padded(rec.post_levels, exps),
        "next_levels": padded(rec.next_levels, exps),
    }


def support_cap(eps):
    return math.floor(eps**-2)


def level_cap(rec, delta):
    # k_ab has unit weights, so the cap's weight floor is 1
    return math.ceil(math.log2(2.0 * delta / rec.eps_t)) + 1


@pytest.mark.parametrize(
    "name, broken, bad",
    [
        (
            "support-bound",
            lambda rec, delta: {
                "x_levels": padded(rec.x_levels, [0] * (support_cap(rec.eps_t) + 1))
            },
            1,
        ),
        (
            "support-bound",
            lambda rec, delta: padded_product(
                rec, [rec.post_levels.exps[0]] * (support_cap(rec.eps_prune) + 1)
            ),
            1,
        ),
        (
            "level-count",
            lambda rec, delta: padded_product(
                rec, rec.post_levels.exps.min() - 1 - np.arange(level_cap(rec, delta) + 1)
            ),
            1,
        ),
        (
            "growth-cap",
            lambda rec, delta: {
                "post_levels": dataclasses.replace(
                    rec.post_levels, norm=growth_cap(rec, delta) * 1.01
                )
            },
            1,
        ),
        (
            "growth-cap",
            lambda rec, delta: {
                "post_levels": dataclasses.replace(rec.post_levels, norm=growth_cap(rec, delta))
            },
            0,
        ),
        (
            "growth-cap",
            lambda rec, delta: {
                "x_levels": dataclasses.replace(rec.x_levels, norm=0.0),
                "post_levels": dataclasses.replace(rec.post_levels, norm=1e300),
            },
            0,
        ),
        (
            "prune-mass",
            lambda rec, delta: {
                "post_levels": padded(rec.post_levels, rec.post_levels.exps[:1]),
                "pruned_mass": 1e300,
            },
            1,
        ),
        (
            "prune-mass",
            lambda rec, delta: {
                "next_levels": padded(rec.next_levels, [0] * rec.pruned_count),
                "pruned_mass": 1e300,
            },
            0,
        ),
    ],
)
def test_step_checks_catch_a_broken_step(monkeypatch, name, broken, bad):
    # one step of a real trace is edited; only its property may change
    g = k_ab(3, 4)
    runs, traces = verify._collect_traces(g, LocalSchedule.for_target(4))
    clean = by_name(run_verification(g, target_size=4))
    rec = traces[0].steps[0]
    step = dataclasses.replace(rec, **broken(rec, g.max_degree))
    tampered = [dataclasses.replace(traces[0], steps=[step, *traces[0].steps[1:]]), *traces[1:]]
    monkeypatch.setattr(verify, "_collect_traces", lambda *args: (runs, tampered))
    results = by_name(run_verification(g, target_size=4))
    for other in ("support-bound", "level-count", "growth-cap", "prune-mass"):
        if other != name:
            assert results[other].detail == clean[other].detail
    assert results[name].status == ("fail" if bad else "pass")
    assert results[name].detail.endswith(f", {bad} violations")
