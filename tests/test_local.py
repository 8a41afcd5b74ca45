import math
import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
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
from localdense import local
from localdense.local import _LANES, LocalSchedule

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


def test_schedule_rejects_targets_past_the_float_range():
    # 8 * 10**400 overflows a float; at 10**110 the last pruning fraction
    # squared underflows to 0.0; 10**101 still fits
    for bad in (10**110, 10**400):
        with pytest.raises(DomainError, match="too large"):
            LocalSchedule.for_target(bad)
    sched = LocalSchedule.for_target(10**101)
    assert sched.epsilons[-1] ** 2 >= sys.float_info.min


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


def test_unknown_side_is_a_domain_error(star4):
    with pytest.raises(DomainError, match="'left'"):
        local_density(star4, star4.left_id(0), target_size=4, side="left")


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


@pytest.mark.parametrize("n", [2_000, 20_000, 200_000])
def test_work_and_output_within_schedule_bounds(n):
    # the bounds local.py's docstring states, on random seeds of both sides
    # with real neighborhoods, at average degree 6 whatever n: step t gathers
    # at most max_fanout edges per entry of its vector, which holds at most
    # min(1 / eps_t**2, side size) of them, and the output is one level of
    # that vector and one of its product; each traced step is held to its
    # own vector's support, and the steps' edges add up to the run's work
    g, _, _ = generate_planted(
        n_left=n // 2, n_right=n // 2, noise_edges=3 * n, planted_a=8, planted_b=8, rng_seed=3
    )
    rng = random.Random(n)
    seeds = [
        (g.left_id(rng.randrange(g.left_count)), "L")
        if rng.random() < 0.5
        else (g.right_id(rng.randrange(g.right_count)), "R")
        for _ in range(50)
    ]
    fan = g.max_fanout
    most = 0
    for k in (2, 4, 8, 16, 32):
        eps = LocalSchedule.for_target(k).epsilons
        for seed, side in seeds:
            res = local_density(g, seed, k, side, keep_trace=True)
            # the x vector starts on the seed's side and alternates
            sizes = [g.side_count(side), g.side_count("R" if side == "L" else "L")]
            work = 2 * fan * sum(min(1 / eps[t] ** 2, sizes[t % 2]) for t in range(res.steps))
            assert res.edges_touched <= work, (seed, side, k)
            gathered = 0
            for rec in res.traces[0].steps:
                x = rec.x_levels
                indptr = g.csr_arrays(x.side)[0]
                step = int((indptr[x.index + 1] - indptr[x.index]).sum())
                assert step <= x.support_size * fan, (seed, side, k, rec.t)
                gathered += step
            assert res.edges_touched == 2 * gathered, (seed, side, k)
            out = len(res.subgraph.left) + len(res.subgraph.right)
            assert out <= (1 + fan) / eps[res.found_at[0]] ** 2, (seed, side, k)
            most = max(most, res.edges_touched)
    # some runs grew past their seed's own edges
    assert most > 2 * fan


def _peak(run) -> int:
    """tracemalloc peak of a second call of run, after one to warm up."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _c09_graph(scale):
    return generate_planted(
        n_left=scale // 2 + 4,
        n_right=scale // 2 + 4,
        noise_edges=scale,
        planted_a=4,
        planted_b=4,
        rng_seed=77,
        noise_avoids_planted=True,
    )


def _planted_lanes(g, left, right, count):
    """count seeds cycling over the planted block's vertices, both sides.

    The block has no noise edges, so these seeds see the same neighborhood
    whatever the size of the graph around it."""
    block = [(g.left_id(u), "L") for u in sorted(left)]
    block += [(g.right_id(v), "R") for v in sorted(right)]
    return [block[k % len(block)] for k in range(count)]


def test_local_run_allocates_nothing_of_graph_size():
    # the graphs of acceptance check c09; one array over the vertices of the
    # larger graph would be about 4 MB, while a traced local run takes ~20 kB
    # and a scan of one chunk of lanes ~0.3 MB
    runs, chunks = {}, {}
    for scale in (10_000, 1_000_000):
        g, left, right = _c09_graph(scale)
        seed = g.left_id(min(left))
        runs[scale] = _peak(lambda: local_density(g, seed, 4, "L", keep_trace=True))
        lanes = _planted_lanes(g, left, right, _LANES)
        chunks[scale] = _peak(lambda: seed_scan(g, lanes, 4))
        del g
    assert max(runs.values()) <= 2 * min(runs.values()), runs
    assert max(chunks.values()) <= 2 * min(chunks.values()), chunks


def test_seed_scan_memory_stays_per_chunk():
    # four chunks grow one after another, not as one four-times-wider batch
    g, left, right = _c09_graph(10_000)
    one = _peak(lambda: seed_scan(g, _planted_lanes(g, left, right, _LANES), 4))
    four = _peak(lambda: seed_scan(g, _planted_lanes(g, left, right, 4 * _LANES), 4))
    assert four <= 1.5 * one, (one, four)


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


def test_seed_scan_validates_before_growing(star4):
    for bad in (True, 2.5, "3", None, np.int64(0)):
        with pytest.raises(DomainError):
            seed_scan(star4, ["c", "w"], target_size=4, top_n=bad)
    out = seed_scan(star4, ["c", "w"], target_size=4, top_n=np.int64(1))
    assert [r.start for r in out.results] == ["seed:L:c"]
    # the schedule is built before any seed grows, so a bad target size is
    # reported even when there is nothing to grow
    for bad in (0, 1.5, True):
        with pytest.raises(DomainError):
            seed_scan(star4, [], target_size=bad)


def _scan_one_by_one(g, seeds, target_size):
    """seed_scan's contract as a loop of local_density calls, all results kept."""
    failures, seen, ordered = [], set(), []
    for order, seed in enumerate(seeds):
        token, side = seed if isinstance(seed, tuple) else (seed, None)
        try:
            res = local_density(g, token, target_size, side)
        except (UnknownVertex, NoCandidate) as exc:
            failures.append(SeedFailure(seed, type(exc).__name__, str(exc)))
            continue
        if (res.subgraph.left, res.subgraph.right) not in seen:
            seen.add((res.subgraph.left, res.subgraph.right))
            ordered.append((order, res))
    ordered.sort(key=lambda pair: (-pair[1].density, pair[0]))
    return [res for _, res in ordered], failures


def test_seed_scan_chunks_match_lone_runs():
    # every vertex is on both sides; those without arcs out (in) are
    # isolated on the left (right)
    rng = random.Random(11)
    g = from_directed(
        (f"v{rng.randrange(90)}", f"v{rng.randrange(120)}", rng.choice((1.0, 0.5, 2.5)))
        for _ in range(300)
    )
    tokens = [g.left_id(u) for u in range(g.left_count)]
    seeds = []
    for k in range(2 * _LANES + 3):
        token = f"missing{k}" if k % 9 == 5 else tokens[k * 7 % len(tokens)]
        seeds.append((token, "LR"[k % 2]) if k % 3 == 1 else token)
    want_results, want_failures = _scan_one_by_one(g, seeds, 8)
    assert {f.kind for f in want_failures} == {"UnknownVertex", "NoCandidate"}
    assert len(want_results) > 2 * _LANES // 3
    out = seed_scan(g, seeds, 8, top_n=len(seeds))
    assert out.results == want_results
    assert out.failures == want_failures
    top = seed_scan(g, seeds, 8, top_n=5)
    assert top.results == want_results[:5]
    assert top.failures == want_failures


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.lists(st.sampled_from(["any", "L", "R", "unknown", "repeat"]), max_size=30),
    st.integers(1, 40),
    st.sampled_from([1, 2, 8]),
    st.sampled_from([1, 3, _LANES]),
)
def test_seed_scan_matches_lone_runs(seed, directed, kinds, top_n, target, lanes):
    # small weighted graphs whose ids may name a vertex on both sides, read
    # as bipartite or as directed (where ids without arcs out or in are
    # isolated on that side); seeds repeated, pinned to either side or
    # unknown, in chunks of a few lanes or of one: the scan keeps the first
    # top_n of what a loop of local_density calls keeps, and its failures
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    rows = [
        (f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", w)
        for w in (rng.choice((1.0, 0.5, 2.5, 0.0, rng.uniform(0.1, 3.0))) for _ in range(3 * n))
    ]
    rows.append((f"v{rng.randrange(n)}", f"v{rng.randrange(n)}", 1.5))
    g = (from_directed if directed else build_bipartite)(rows)
    tokens = sorted(
        {g.left_id(u) for u in range(g.left_count)} | {g.right_id(v) for v in range(g.right_count)}
    )
    seeds: list = []
    for k, kind in enumerate(kinds):
        if kind == "unknown":
            seeds.append(f"missing{k}")
        elif kind == "repeat" and seeds:
            seeds.append(rng.choice(seeds))
        else:
            token = rng.choice(tokens)
            seeds.append((token, kind) if kind in ("L", "R") else token)
    want_results, want_failures = _scan_one_by_one(g, seeds, target)
    with mock.patch.object(local, "_LANES", lanes):
        out = seed_scan(g, seeds, target, top_n=top_n)
    assert out.results == want_results[:top_n]
    assert out.failures == want_failures


def test_seed_scan_records_an_overflowing_seed(monkeypatch):
    # a's second product, 1e300 squared in truth, is taken at its own
    # scale, so a finds its pair as c does, in one growth call
    small = build_bipartite([("a", "x", 1e300), ("b", "x", 1e300), ("c", "y", 1.0)])
    res = local_density(small, "a", 4)
    assert (res.density, res.found_at) == (2e300 / math.sqrt(2), (1, 997, 1994))
    want_small = _scan_one_by_one(small, ["c", "a"], 4)
    # seeds past the float range in both chunks of a larger scan fail no
    # more than the others
    rng = random.Random(5)
    g = from_directed(
        [(f"v{rng.randrange(60)}", f"v{rng.randrange(60)}", 1.0) for _ in range(200)]
        + [("big", "hub", 1e300), ("huge", "hub", 1e300)]
    )
    seeds = [g.left_id(u) for u in range(g.left_count)] * 3
    assert len(seeds) > _LANES
    want_results, want_failures = _scan_one_by_one(g, seeds, 8)
    assert {f.kind for f in want_failures} <= {"NoCandidate"}
    assert not {"big", "huge"} & {f.seed for f in want_failures}
    (hub,) = [r for r in want_results if r.density > 1e300]
    assert hub.start == "seed:L:big" and hub.density == 2e300 / math.sqrt(2)
    # and no seed is grown again: one growth call per chunk
    calls = []
    grow = local.run_pruned_growth
    monkeypatch.setattr(local, "run_pruned_growth", lambda *a: calls.append(a) or grow(*a))
    out = seed_scan(small, ["c", "a"], 4)
    assert (out.results, out.failures) == want_small
    assert [r.start for r in out.results] == ["seed:L:a", "seed:L:c"]
    assert out.failures == []
    assert len(calls) == 1
    out = seed_scan(g, seeds, 8, top_n=len(seeds))
    assert (out.results, out.failures) == (want_results, want_failures)
    assert len(calls) == 1 + -(-len(seeds) // _LANES)


def test_unhashable_seed_is_unknown():
    # a failing seed is recorded in seed order, not fatal, even one that
    # cannot be looked up at all
    g = build_bipartite([("a", "x", 1.0), ("b", "x", 1.0), ("b", "y", 2.0)])
    out = seed_scan(g, [["a"], "b", ({"b"}, "L")], 2)
    assert out.results == [local_density(g, "b", 2)]
    assert [(f.seed, f.kind) for f in out.failures] == [
        (["a"], "UnknownVertex"),
        (({"b"}, "L"), "UnknownVertex"),
    ]
    with pytest.raises(UnknownVertex):
        local_density(g, ["a"], 2)


def test_seed_scan_chunks_by_seed_position(monkeypatch):
    # a chunk is _LANES seed positions, unknown ids included: with 4 lanes
    # and an unknown id at every third position, 23 seeds grow in 6 calls
    rng = random.Random(3)
    g = from_directed(
        (f"v{rng.randrange(30)}", f"v{rng.randrange(30)}", rng.choice((1.0, 0.5)))
        for _ in range(90)
    )
    tokens = [g.left_id(u) for u in range(g.left_count)]
    seeds = [f"missing{k}" if k % 3 == 1 else tokens[k % len(tokens)] for k in range(23)]
    want_results, want_failures = _scan_one_by_one(g, seeds, 4)
    calls = []
    grow = local.run_pruned_growth
    monkeypatch.setattr(local, "run_pruned_growth", lambda *a: calls.append(a) or grow(*a))
    monkeypatch.setattr(local, "_LANES", 4)
    out = seed_scan(g, seeds, 4, top_n=len(seeds))
    assert (out.results, out.failures) == (want_results, want_failures)
    assert len(calls) == -(-len(seeds) // 4)
    assert [len(starts) for _, starts, _, _ in calls] == [3, 2, 3, 3, 2, 2]


def test_seed_scan_parallel_matches_sequential():
    g = k_ab(3, 5)
    seeds = [f"l{i}" for i in range(3)] + [f"r{j}" for j in range(5)] + ["bad"]
    seq = seed_scan(g, seeds, target_size=5, parallel=1)
    # the positional form the benchmark's local-scan workload uses: parallel
    # is the fifth parameter
    for par in (seed_scan(g, seeds, target_size=5, parallel=4), seed_scan(g, seeds, 5, 10, 2)):
        assert [(r.start, r.density, r.subgraph, r.traces) for r in seq.results] == [
            (r.start, r.density, r.subgraph, r.traces) for r in par.results
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
