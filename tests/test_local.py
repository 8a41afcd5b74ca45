import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
    LocalSchedule,
    NoCandidate,
    SeedFailure,
    UnknownVertex,
    build_bipartite,
    from_directed,
    generate_planted,
    local_density,
    local_guarantee_bound,
    seed_scan,
)

from conftest import k_ab


def test_schedule_for_target_four():
    sched = LocalSchedule.for_target(4)
    assert sched.horizon == 2
    assert sched.epsilons == (1 / 32, 1 / 64, 1 / 128)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5000))
def test_schedule_matches_brute_force(k):
    sched = LocalSchedule.for_target(k)
    h = 1
    while 4**h < 2 * k:
        h += 1
    assert sched.horizon == h
    assert len(sched.epsilons) == h + 1
    for t, eps in enumerate(sched.epsilons):
        assert eps == 2.0**-t / (8 * k)
    # fractions decrease and stay in (0, 1)
    assert all(0 < e < 1 for e in sched.epsilons)
    assert all(a > b for a, b in zip(sched.epsilons, sched.epsilons[1:]))


def test_schedule_rejects_bad_targets():
    for bad in (0, -3, 1.5, "4"):
        with pytest.raises(DomainError):
            LocalSchedule.for_target(bad)


def test_schedule_takes_numpy_ints_and_rejects_bools(star4):
    assert LocalSchedule.for_target(np.int64(8)) == LocalSchedule.for_target(8)
    for bad in (True, False, np.int64(0)):
        with pytest.raises(DomainError):
            LocalSchedule.for_target(bad)
    res = local_density(star4, "c", np.int64(4))
    assert res.target_size == 4 and type(res.target_size) is int
    assert res.density == 2.0


def test_star_seed_finds_whole_star(star4):
    res = local_density(star4, "c", target_size=4)
    assert res.density == 2.0
    assert res.found_at == (0, 0, 0)
    assert res.subgraph.left == frozenset({0})
    assert res.subgraph.right == frozenset({0, 1, 2, 3})
    assert res.start == "seed:L:c"
    assert res.steps == 2
    assert res.bound == pytest.approx(1 / 64)
    assert res.bound_eps == pytest.approx(1 / 64)


def test_leaf_seed_reaches_the_same_pair(star4):
    res = local_density(star4, "w", target_size=4)
    assert res.density == 2.0
    assert res.subgraph.right == frozenset({0, 1, 2, 3})
    assert res.start == "seed:R:w"


def test_guarantee_bound_closed_form():
    assert local_guarantee_bound(1.0, 4.0, 4) == pytest.approx(1 / 64)
    # doubling the threshold doubles the guarantee
    assert local_guarantee_bound(2.0, 4.0, 4) == pytest.approx(1 / 32)
    for args in ((0.0, 4.0, 4), (-1.0, 4.0, 4), (1.0, 0.5, 4), (1.0, 4.0, 0)):
        with pytest.raises(DomainError):
            local_guarantee_bound(*args)


def test_unknown_seed_raises(star4):
    with pytest.raises(UnknownVertex):
        local_density(star4, "nope", target_size=4)
    with pytest.raises(UnknownVertex):
        local_density(star4, "w", target_size=4, side="L")


def test_isolated_seed_raises():
    g = from_directed([("a", "b", 1.0)])
    # "b" resolves to its left copy first, which has no outgoing edges
    with pytest.raises(NoCandidate):
        local_density(g, "b", target_size=2)
    res = local_density(g, "b", target_size=2, side="R")
    assert res.density == 1.0
    assert res.subgraph.left == frozenset({g.find_vertex("a", "L")[1]})


def test_right_seed_reports_canonical_orientation():
    g = build_bipartite([("a", "x", 1.0)])
    res = local_density(g, "x", target_size=2)
    assert res.start == "seed:R:x"
    assert res.subgraph.left == frozenset({0})
    assert res.subgraph.right == frozenset({0})


def test_work_is_independent_of_ambient_size():
    runs = {}
    for scale in (1, 20):
        g, left, right = generate_planted(
            n_left=100 * scale,
            n_right=100 * scale,
            noise_edges=150 * scale,
            planted_a=4,
            planted_b=4,
            rng_seed=5,
            noise_avoids_planted=True,
        )
        seed = g.left_id(min(left))
        res = local_density(g, seed, target_size=4)
        runs[scale] = (res.edges_touched, res.density, res.steps)
    assert runs[1][0] == runs[20][0]
    assert runs[1][1] == runs[20][1] == pytest.approx(4.0)


def test_local_run_allocates_nothing_of_graph_size():
    # the graphs of acceptance check c09; one array over the vertices of the
    # larger graph would be about 4 MB, the whole traced run is ~15 kB
    peaks = {}
    for scale in (10_000, 1_000_000):
        g, left, _ = generate_planted(
            n_left=scale // 2 + 4,
            n_right=scale // 2 + 4,
            noise_edges=scale,
            planted_a=4,
            planted_b=4,
            rng_seed=77,
            noise_avoids_planted=True,
        )
        seed = g.left_id(min(left))
        local_density(g, seed, 4, "L", keep_trace=True)
        tracemalloc.start()
        try:
            local_density(g, seed, 4, "L", keep_trace=True)
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del g
    assert max(peaks.values()) <= 2 * min(peaks.values()), peaks


def test_traces_kept_only_on_request(star4):
    bare = local_density(star4, "c", target_size=4)
    traced = local_density(star4, "c", target_size=4, keep_trace=True)
    assert bare.traces is None
    assert len(traced.traces) == 1
    assert traced.traces[0].start == "seed:L:c"
    assert len(traced.traces[0].steps) == traced.steps


def test_seed_scan_dedups_and_records_failures(star4):
    out = seed_scan(star4, ["c", "w", "missing", ("c", "L")], target_size=4)
    assert len(out.results) == 1
    assert out.results[0].start == "seed:L:c"
    assert out.results[0].density == 2.0
    assert len(out.failures) == 1
    assert isinstance(out.failures[0], SeedFailure)
    assert out.failures[0].kind == "UnknownVertex"
    assert out.failures[0].seed == "missing"


def test_seed_scan_orders_by_density_then_seed_order():
    g = build_bipartite(
        [(f"l{i}", f"r{j}", 1.0) for i in range(2) for j in range(2)]
        + [("solo", "out", 1.0)]
    )
    out = seed_scan(g, ["solo", "l0", "l1"], target_size=4)
    assert [round(r.density, 6) for r in out.results] == [2.0, 1.0]
    assert out.results[0].start == "seed:L:l0"
    assert out.results[1].start == "seed:L:solo"


def test_seed_scan_top_n_truncates(star4):
    out = seed_scan(star4, ["c", "w"], target_size=4, top_n=1)
    assert len(out.results) == 1
    with pytest.raises(DomainError):
        seed_scan(star4, ["c"], target_size=4, top_n=0)


def test_seed_scan_parallel_matches_sequential():
    g = k_ab(3, 5)
    seeds = [f"l{i}" for i in range(3)] + [f"r{j}" for j in range(5)] + ["bad"]
    seq = seed_scan(g, seeds, target_size=5, parallel=1)
    par = seed_scan(g, seeds, target_size=5, parallel=4)
    assert [(r.start, r.density, r.subgraph) for r in seq.results] == [
        (r.start, r.density, r.subgraph) for r in par.results
    ]
    assert [f.seed for f in seq.failures] == [f.seed for f in par.failures]


def test_local_density_validates_target(star4):
    with pytest.raises(DomainError):
        local_density(star4, "c", target_size=0)


def test_bound_none_only_outside_domain():
    g = build_bipartite([("a", "x", 0.25)])
    res = local_density(g, "a", target_size=2)
    # max degree below one puts the closed form outside its domain
    assert res.bound is None
    assert res.bound_eps is not None and res.bound_eps > 0
