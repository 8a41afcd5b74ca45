import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
    NegativeEntry,
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


def _scan_one_by_one(g, seeds, target_size, keep_trace):
    """seed_scan's contract as a loop of local_density calls, all results kept."""
    failures, seen, ordered = [], set(), []
    for order, seed in enumerate(seeds):
        token, side = seed if isinstance(seed, tuple) else (seed, None)
        try:
            res = local_density(g, token, target_size, side, keep_trace)
        except (UnknownVertex, NoCandidate, NegativeEntry) as exc:
            failures.append(SeedFailure(seed, type(exc).__name__, str(exc)))
            continue
        if (res.subgraph.left, res.subgraph.right) not in seen:
            seen.add((res.subgraph.left, res.subgraph.right))
            ordered.append((order, res))
    ordered.sort(key=lambda pair: (-pair[1].density, pair[0]))
    return [res for _, res in ordered], failures


@pytest.mark.parametrize("keep_trace", [False, True])
def test_seed_scan_chunks_match_lone_runs(keep_trace):
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
    want_results, want_failures = _scan_one_by_one(g, seeds, 8, keep_trace)
    assert {f.kind for f in want_failures} == {"UnknownVertex", "NoCandidate"}
    assert len(want_results) > 2 * _LANES // 3
    out = seed_scan(g, seeds, 8, top_n=len(seeds), keep_trace=keep_trace)
    assert out.results == want_results
    assert out.failures == want_failures
    top = seed_scan(g, seeds, 8, top_n=5, keep_trace=keep_trace)
    assert top.results == want_results[:5]
    assert top.failures == want_failures


def test_seed_scan_records_an_overflowing_seed(monkeypatch):
    # a's growth overflows (1e300 squared) while c's stays small; sharing a
    # growth call must not cost c its result
    small = build_bipartite([("a", "x", 1e300), ("b", "x", 1e300), ("c", "y", 1.0)])
    with pytest.raises(NegativeEntry):
        local_density(small, "a", 4)
    want_small = _scan_one_by_one(small, ["c", "a"], 4, False)
    # overflowing seeds in both chunks of a larger scan cost only themselves
    rng = random.Random(5)
    g = from_directed(
        [(f"v{rng.randrange(60)}", f"v{rng.randrange(60)}", 1.0) for _ in range(200)]
        + [("big", "hub", 1e300), ("huge", "hub", 1e300)]
    )
    seeds = [g.left_id(u) for u in range(g.left_count)] * 3
    assert len(seeds) > _LANES
    want_results, want_failures = _scan_one_by_one(g, seeds, 8, True)
    assert {f.seed for f in want_failures if f.kind == "NegativeEntry"} == {"big", "huge"}
    # and no seed is grown again: one growth call per chunk
    calls = []
    grow = local.run_pruned_growth
    monkeypatch.setattr(local, "run_pruned_growth", lambda *a: calls.append(a) or grow(*a))
    out = seed_scan(small, ["c", "a"], 4)
    assert (out.results, out.failures) == want_small
    assert [r.start for r in out.results] == ["seed:L:c"]
    assert [(f.seed, f.kind) for f in out.failures] == [("a", "NegativeEntry")]
    assert len(calls) == 1
    out = seed_scan(g, seeds, 8, top_n=len(seeds), keep_trace=True)
    assert (out.results, out.failures) == (want_results, want_failures)
    assert len(calls) == 1 + -(-len(seeds) // _LANES)


def test_seed_scan_parallel_matches_sequential():
    g = k_ab(3, 5)
    seeds = [f"l{i}" for i in range(3)] + [f"r{j}" for j in range(5)] + ["bad"]
    seq = seed_scan(g, seeds, target_size=5, parallel=1)
    # the positional form the benchmark's local-scan workload uses: parallel
    # is the fifth parameter, before keep_trace
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
