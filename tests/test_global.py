import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    DomainError,
    GlobalSchedule,
    build_bipartite,
    global_density,
    global_guarantee_bound,
)

from conftest import dense_eigenvalue, k_ab, random_bipartite


def test_schedule_small_sizes():
    one = GlobalSchedule.for_size(1)
    assert one.horizon == 1
    assert one.epsilons == (1 / 8, 1 / 4)
    five = GlobalSchedule.for_size(5)
    assert five.horizon == 3
    base = 1 / (8 * math.sqrt(5))
    assert five.epsilons == tuple(base * 2**t for t in range(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_schedule_invariants(n):
    sched = GlobalSchedule.for_size(n)
    h = 1
    while 4**h < 4 * n:
        h += 1
    assert sched.horizon == h
    assert len(sched.epsilons) == h + 1
    assert all(b == 2 * a for a, b in zip(sched.epsilons, sched.epsilons[1:]))
    # the last pruning fraction always lands in [1/4, 1/2)
    assert 0.25 <= sched.epsilons[-1] < 0.5


def test_schedule_rejects_bad_sizes():
    for bad in (0, -1, 2.0):
        with pytest.raises(DomainError):
            GlobalSchedule.for_size(bad)


def test_schedule_takes_numpy_ints_and_rejects_bools():
    assert GlobalSchedule.for_size(np.int64(5)) == GlobalSchedule.for_size(5)
    assert type(GlobalSchedule.for_size(np.int32(5)).vertex_count) is int
    for bad in (True, False):
        with pytest.raises(DomainError):
            GlobalSchedule.for_size(bad)


def test_complete_block_found_immediately():
    res = global_density(k_ab(2, 3))
    assert res.density == pytest.approx(math.sqrt(6))
    assert res.found_at[0] == 0
    assert res.start == "ones:L"
    assert res.subgraph.left == frozenset({0, 1})
    assert res.subgraph.right == frozenset({0, 1, 2})
    assert res.target_size is None
    assert res.bound == pytest.approx(1 / (8 + 4 * math.log2(5)))


def test_single_edge_graph():
    res = global_density(build_bipartite([("a", "x", 1.0)]))
    assert res.density == 1.0
    assert res.bound == pytest.approx(1 / 12)


def test_tie_prefers_left_start(star4):
    res = global_density(star4)
    assert res.start == "ones:L"
    assert res.density == 2.0


def test_guarantee_bound_closed_form():
    assert global_guarantee_bound(6.0, 4) == pytest.approx(6 / 16)
    for args in ((0.0, 4), (-1.0, 4), (2.0, 1)):
        with pytest.raises(DomainError):
            global_guarantee_bound(*args)


def test_density_meets_guarantee_against_dense_eigensolve():
    rng = random.Random(99)
    for _ in range(30):
        g = random_bipartite(rng, 9, 9, weighted=rng.random() < 0.5, min_edges=3)
        res = global_density(g)
        lam = dense_eigenvalue(g)
        floor = global_guarantee_bound(lam, g.vertex_count)
        assert res.density >= floor * (1 - 1e-9)
        # no subgraph density can beat the top eigenvalue
        assert res.density <= lam * (1 + 1e-9)


def test_both_traces_kept():
    res = global_density(k_ab(2, 2), keep_trace=True)
    assert res.traces is not None
    assert [t.start for t in res.traces] == ["ones:L", "ones:R"]
    assert res.steps == sum(len(t.steps) for t in res.traces)


def test_deterministic_across_runs():
    rng = random.Random(4)
    g = random_bipartite(rng, 10, 10, weighted=True, min_edges=12)
    a = global_density(g, keep_trace=True)
    b = global_density(g, keep_trace=True)
    assert a.subgraph == b.subgraph
    assert a.found_at == b.found_at
    assert a.edges_touched == b.edges_touched
    assert [t.steps for t in a.traces] == [t.steps for t in b.traces]
