import enum
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localdense import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    EmptyGraph,
    EmptySide,
    NegativeWeight,
    SideViolation,
    UnknownVertex,
    build_bipartite,
    density,
    edge_weight_between,
    from_directed,
    load_edge_list,
    ratio_density,
    restrict,
)

from conftest import dense_biadjacency, k_ab, reference_edge_weight, reference_restrict


def test_complete_block_density_closed_form():
    for a in range(1, 5):
        for b in range(1, 5):
            g = k_ab(a, b)
            sub = density(g, range(a), range(b))
            assert sub.density == pytest.approx(math.sqrt(a * b), rel=1e-12)
            assert ratio_density(g, range(a), range(b)) == pytest.approx(
                a * b / (a + b), rel=1e-12
            )


def test_single_edge_densities():
    g = build_bipartite([("a", "x", 1.0)])
    assert density(g, {0}, {0}).density == 1.0
    assert ratio_density(g, {0}, {0}) == 0.5


def test_duplicate_edges_merge_by_sum():
    g = build_bipartite([("a", "x", 1.0), ("a", "x", 2.5)])
    assert g.total_weight == 3.5
    assert g.fanout("L", 0) == 1
    assert edge_weight_between(g, {0}, {0}) == 3.5
    g = build_bipartite([("a", "x", 8e307), ("a", "x", 8e307), ("b", "y", 1.0)])
    assert g.total_weight == g.max_degree == 2 * 8e307


def _stable_sort_tables(nl, nr, rows):
    """Each side's CSR triple as lists: duplicates summed in row order, the
    pairs in (left, right) order, then each side's column stably sorted."""
    merged: dict = {}
    for u, v, w in rows:
        merged[u, v] = merged.get((u, v), 0.0) + w
    pairs = sorted(merged)
    tables = {}
    for side, n, own in ((LEFT, nl, 0), (RIGHT, nr, 1)):
        col = np.array([p[own] for p in pairs], dtype=np.int64)
        order = np.argsort(col, kind="stable")
        ptr = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
        tables[side] = (
            ptr.tolist(),
            [pairs[k][1 - own] for k in order.tolist()],
            [merged[pairs[k]] for k in order.tolist()],
        )
    return tables


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1, 1), (3, 400), (400, 3), (7, 9), (60, 60)]), st.integers(0, 2**32 - 1))
def test_csr_tables_match_stable_sort_referee(shape, seed):
    # rows drawn from a pool of pairs, so that many pairs repeat; a pool
    # past a few dozen pairs is what an unstable sort reorders
    nl, nr = shape
    rng = random.Random(seed)
    pool = [(rng.randrange(nl), rng.randrange(nr)) for _ in range(rng.randint(1, 300))]
    rows = [(*rng.choice(pool), rng.uniform(0.125, 8.0)) for _ in range(rng.randint(1, 600))]
    l, r, w = (np.array(col) for col in zip(*rows))
    ids = [{f"{side}{k}": k for k in range(n)} for side, n in (("l", nl), ("r", nr))]
    g = BipartiteGraph(*ids, l, r, w)
    want = _stable_sort_tables(nl, nr, rows)
    for side in (LEFT, RIGHT):
        ptr, nbr, wt = g.csr_arrays(side)
        assert (ptr.tolist(), nbr.tolist(), wt.tolist()) == want[side]


def test_zero_weight_edges_dropped():
    with pytest.raises(EmptyGraph):
        build_bipartite([("a", "x", 0.0)])
    g = build_bipartite([("a", "x", 0.0), ("a", "y", 1.0)])
    assert g.right_count == 1
    assert g.right_id(0) == "y"


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        build_bipartite([("a", "x", -1.0)])
    with pytest.raises(NegativeWeight):
        build_bipartite([("a", "x", float("nan"))])
    with pytest.raises(NegativeWeight):
        build_bipartite([("a", "x", float("inf"))])
    # every row is finite, but a duplicate pair or the total sums past the
    # float range
    for edges in (
        [("a", "x", 1e308), ("a", "x", 1e308), ("b", "y", 1.0)],
        [("a", "x", 1e308), ("b", "y", 1e308)],
    ):
        for build in (build_bipartite, from_directed):
            with pytest.raises(NegativeWeight, match="float range"):
                build(edges)


def test_infinite_degree_rejected():
    # the weights' total, summed pairwise as the constructor sums it, is
    # finite, but v's degree, summed a1 .. a4 then a8, rounds up to inf;
    # growth bounds every product entry by a degree
    rows = [(f"a{k}", "v", 2.0**968) for k in range(1, 5)] + [("a8", "v", sys.float_info.max)]
    rows += [(u, "w", 1.0) for u in ("a0", "a5", "a6", "a7", *(f"b{k}" for k in range(7)))]
    rows.sort()
    assert math.isfinite(float(np.array([w for _, _, w in rows]).sum()))
    with pytest.raises(NegativeWeight, match="degree"):
        build_bipartite(rows)


def test_non_numeric_weight_rejected():
    # a weight that is not a number, or too large for a float, is bad data
    for weight in ("abc", None, 10**400):
        for build in (build_bipartite, from_directed):
            with pytest.raises(NegativeWeight, match="invalid weight"):
                build([("a", "x", 1.0), ("b", "y", weight)])


def test_sides_are_separate_namespaces():
    # the same token on both sides is two different vertices
    g = build_bipartite([("a", "a", 1.0), ("a", "b", 1.0)])
    assert g.left_count == 1
    assert g.right_count == 2


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        build_bipartite([])


def test_density_validation():
    g = k_ab(2, 2)
    with pytest.raises(EmptySide):
        density(g, set(), {0})
    with pytest.raises(SideViolation):
        density(g, {5}, {0})
    with pytest.raises(SideViolation):
        density(g, {-1}, {0})
    with pytest.raises(SideViolation):
        density(g, {True}, {0})
    assert edge_weight_between(g, set(), {0}) == 0.0


def test_ratio_density_one_side_may_be_empty():
    g = k_ab(2, 2)
    assert ratio_density(g, {0}, set()) == 0.0
    with pytest.raises(EmptySide):
        ratio_density(g, set(), set())


# left 3, right 4: every pair but (l1, r0), weighted by position
def _graded_graph():
    return build_bipartite(
        (f"l{i}", f"r{j}", 1.0 + i + 2 * j) for i in range(3) for j in range(4) if (i, j) != (1, 0)
    )


_SET_FUNCTIONS = (density, ratio_density, edge_weight_between, restrict)


def _comparable(out):
    """restrict's graph as its ids, CSR lists and total; other results as they are."""
    if not isinstance(out, BipartiteGraph):
        return out
    ids = (
        [out.left_id(k) for k in range(out.left_count)],
        [out.right_id(k) for k in range(out.right_count)],
    )
    csr = [[a.tolist() for a in out.csr_arrays(side)] for side in (LEFT, RIGHT)]
    return ids, csr, out.total_weight


class _Index(enum.IntEnum):
    ZERO = 0
    TWO = 2


# (left, right, side, offender): the message names the first offender in
# frozenset order, with its repr (numpy scalars print differently across
# numpy versions)
_REJECTED = [
    ([True], [0], LEFT, True),
    ([np.True_], [0], LEFT, np.True_),
    ([1.0], [0], LEFT, 1.0),
    ([None], [0], LEFT, None),
    (["1"], [0], LEFT, "1"),
    ([-1], [0], LEFT, -1),
    ([3], [0], LEFT, 3),
    ([0], [4], RIGHT, 4),
    ([2**70], [0], LEFT, 2**70),
    ([np.uint64(2**64 - 1)], [0], LEFT, np.uint64(2**64 - 1)),
    ([np.int8(-3)], [0], LEFT, np.int8(-3)),
    ({0, 2**63}, [0], LEFT, 2**63),
    ([5, -1, 2**70, 1.0, 0], [0], LEFT, 2**70),
    ([2, True, 7.5], [0], LEFT, True),
    ([True, 1], [0], LEFT, True),
    ([0], [1, np.int64(-2)], RIGHT, np.int64(-2)),
    ([np.timedelta64(5, "s")], [0], LEFT, np.timedelta64(5, "s")),
]


@pytest.mark.parametrize("left, right, side, offender", _REJECTED)
def test_invalid_vertex_sets_raise_the_same_error(left, right, side, offender):
    g = _graded_graph()
    for fn in _SET_FUNCTIONS:
        with pytest.raises(SideViolation) as info:
            fn(g, left, right)
        message = f"index {offender!r} is not a valid side-{side} vertex"
        assert str(info.value) == message, fn.__name__


# (left, right, the same sets as plain ints)
_ACCEPTED = [
    ([_Index.ZERO, _Index.TWO], [_Index.TWO], [0, 2], [2]),
    (np.array([2, 0], dtype=np.uint8), np.array([3, 1], dtype=np.int32), [0, 2], [1, 3]),
    (np.array([0, 1, 2], dtype=np.int64), np.arange(4), [0, 1, 2], [0, 1, 2, 3]),
    ([2, 0, 2, 0], [1, 1, 3], [0, 2], [1, 3]),
    # one-shot iterators, drawn afresh for every call
    (lambda: iter([2, 1]), lambda: (v for v in (0, 3)), [1, 2], [0, 3]),
    # frozenset([1, True]) is {1}: True collapses into the valid 1
    ([1, True], [1], [1], [1]),
]


@pytest.mark.parametrize("left, right, plain_left, plain_right", _ACCEPTED)
def test_integer_like_vertex_sets_match_plain_ints(left, right, plain_left, plain_right):
    g = _graded_graph()
    for fn in _SET_FUNCTIONS:
        got = fn(g, *(s() if callable(s) else s for s in (left, right)))
        assert _comparable(got) == _comparable(fn(g, plain_left, plain_right)), fn.__name__


def test_from_directed_three_cycle():
    g = from_directed([("a", "b", 1.0), ("b", "c", 1.0), ("c", "a", 1.0)])
    assert g.vertex_count == 6
    assert g.total_weight == 3.0
    # every vertex appears on both sides
    assert g.left_count == g.right_count == 3


def test_from_directed_self_loop_and_merge():
    g = from_directed([("a", "a", 1.0), ("a", "a", 2.0)])
    assert g.total_weight == 3.0
    assert g.left_count == 1


def test_restrict_preserves_density_and_identity():
    g = k_ab(3, 4)
    sub = density(g, {0, 2}, {1, 3})
    h = restrict(g, {0, 2}, {1, 3})
    again = density(h, range(h.left_count), range(h.right_count))
    assert again.density == sub.density
    assert [h.left_id(u) for u in range(h.left_count)] == ["l0", "l2"]
    assert [h.right_id(v) for v in range(h.right_count)] == ["r1", "r3"]


def test_restrict_keeps_isolated_vertices():
    g = build_bipartite([("a", "x", 1.0), ("b", "y", 1.0)])
    h = restrict(g, {0, 1}, {0})
    assert h.left_count == 2
    assert sum(h.fanout("L", u) == 0 for u in range(2)) == 1


def test_restrict_with_no_surviving_edges():
    g = build_bipartite([("a", "x", 1.0), ("b", "y", 1.0)])
    with pytest.raises(EmptyGraph):
        restrict(g, {0}, {1})


def test_edge_weight_symmetric_between_iteration_sides():
    # force iteration from each side by skewing fanouts
    g = build_bipartite(
        [("a", f"r{j}", 1.0) for j in range(5)] + [("b", "r0", 1.0)]
    )
    e1 = edge_weight_between(g, {0, 1}, {0})
    e2 = edge_weight_between(g, {0}, {0, 1, 2})
    assert e1 == 2.0
    assert e2 == 3.0


edge_lists = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.floats(0.125, 8.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=120, deadline=None)
@given(edge_lists)
def test_total_weight_matches_sum(rows):
    g = build_bipartite((f"u{u}", f"v{v}", w) for u, v, w in rows)
    expected = sum(w for _, _, w in rows)
    assert g.total_weight == pytest.approx(expected, rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(edge_lists)
def test_density_against_dense_matrix(rows):
    g = build_bipartite((f"u{u}", f"v{v}", w) for u, v, w in rows)
    mat = dense_biadjacency(g)
    left = frozenset(range(g.left_count))
    right = frozenset(range(g.right_count))
    sub = density(g, left, right)
    assert sub.edge_weight == pytest.approx(mat.sum(), rel=1e-12)
    assert sub.density == pytest.approx(
        mat.sum() / math.sqrt(len(left) * len(right)), rel=1e-12
    )


@settings(max_examples=80, deadline=None)
@given(edge_lists)
def test_restrict_density_matches_original(rows):
    g = build_bipartite((f"u{u}", f"v{v}", w) for u, v, w in rows)
    left = frozenset(range(g.left_count))
    right = frozenset(range(g.right_count))
    h = restrict(g, left, right)
    assert density(h, left, right).density == pytest.approx(
        density(g, left, right).density, rel=1e-12
    )


# the same small tokens on both sides, and some zero-weight rows, whose
# endpoints stay vertices only in a directed graph
arc_rows = st.lists(
    st.tuples(
        st.integers(0, 5),
        st.integers(0, 5),
        st.one_of(st.just(0.0), st.floats(0.125, 8.0)),
    ),
    min_size=1,
    max_size=24,
)


def _expected_graph(rows, directed):
    """Each side's ids and the dense biadjacency, straight from the rows."""
    live = [row for row in rows if row[2] > 0.0]
    if directed:
        left_ids = right_ids = list(dict.fromkeys(tok for x, y, _ in rows for tok in (x, y)))
    else:
        left_ids = list(dict.fromkeys(u for u, _, _ in live))
        right_ids = list(dict.fromkeys(v for _, v, _ in live))
    mat = np.zeros((len(left_ids), len(right_ids)))
    for u, v, w in live:
        mat[left_ids.index(u), right_ids.index(v)] += w
    return left_ids, right_ids, mat


def _check_accessors(g, left_ids, right_ids, expected):
    mat = dense_biadjacency(g)
    assert mat.tolist() == expected.tolist()
    assert g.min_weight == expected[expected > 0].min()
    assert g.max_fanout == max((mat > 0).sum(axis=0).max(), (mat > 0).sum(axis=1).max())
    assert g.max_degree == pytest.approx(
        max(mat.sum(axis=0).max(), mat.sum(axis=1).max()), rel=1e-12
    )
    for side, ids, m in ((LEFT, left_ids, mat), (RIGHT, right_ids, mat.T)):
        indices = g.left_indices if side == LEFT else g.right_indices
        rows = [np.flatnonzero(m[k]) for k in range(len(ids))]
        assert g.side_count(side) == len(ids)
        assert indices(ids) == frozenset(range(len(ids)))
        ptr, nbr, wt = g.csr_arrays(side)
        assert ptr.tolist() == [0] + np.cumsum([len(r) for r in rows]).tolist()
        assert nbr.tolist() == np.concatenate(rows).tolist()
        assert wt.tolist() == [m[k, v] for k, r in enumerate(rows) for v in r]
        for k, tok in enumerate(ids):
            got_nbr, got_wt = g.neighbors(side, k)
            assert got_nbr.tolist() == rows[k].tolist()
            assert got_wt.tolist() == m[k, rows[k]].tolist()
            assert g.fanout(side, k) == len(rows[k])
            assert g.find_vertex(tok, side) == (side, k)
            assert indices([tok]) == frozenset({k})
        # an unhashable token is no vertex's id
        for absent in ("absent", ["absent"]):
            with pytest.raises(UnknownVertex):
                g.find_vertex(absent, side)
            with pytest.raises(UnknownVertex):
                indices([ids[0], absent])
    # without a side, a token on both sides resolves to its left copy
    for tok in set(left_ids) | set(right_ids):
        if tok in left_ids:
            assert g.find_vertex(tok) == (LEFT, left_ids.index(tok))
        else:
            assert g.find_vertex(tok) == (RIGHT, right_ids.index(tok))
    for absent in ("absent", {"absent"}):
        with pytest.raises(UnknownVertex):
            g.find_vertex(absent)


@settings(max_examples=120, deadline=None)
@given(arc_rows, st.booleans())
def test_accessors_match_dense_matrix(tmp_path_factory, rows, directed):
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows)
    _check_accessors(g, *_expected_graph(rows, directed))
    # the same rows read from a file in the matching mode, as text ids
    path = tmp_path_factory.mktemp("rows") / "rows.txt"
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in rows))
    g = load_edge_list(path, "directed" if directed else "bipartite")
    _check_accessors(g, *_expected_graph([(str(u), str(v), w) for u, v, w in rows], directed))


@settings(max_examples=60, deadline=None)
@given(arc_rows, st.booleans(), st.data())
def test_sides_are_halves_of_one_table(rows, directed, data):
    # each side's neighbour and weight arrays are views of one half of the
    # table, so no edge array is stored twice; restriction keeps that
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows)
    left = data.draw(st.sets(st.integers(0, g.left_count - 1)))
    right = data.draw(st.sets(st.integers(0, g.right_count - 1)))
    graphs = [g]
    if edge_weight_between(g, left, right) > 0.0:
        graphs.append(restrict(g, left, right))
    for h in graphs:
        indptr, nbrs, wts = h._table()
        half = len(nbrs) // 2
        assert len(nbrs) == len(wts) == 2 * half
        assert len(indptr) == h.vertex_count + 1 and indptr[-1] == 2 * half
        halves = ((LEFT, 0, slice(None, half)), (RIGHT, h.left_count, slice(half, None)))
        for side, first, at in halves:
            ptr, nbr, wt = h.csr_arrays(side)
            assert np.shares_memory(nbr, nbrs) and np.shares_memory(wt, wts)
            assert nbr.tolist() == nbrs[at].tolist() and wt.tolist() == wts[at].tolist()
            rows_ptr = indptr[first : first + h.side_count(side) + 1]
            assert ptr.tolist() == (rows_ptr - rows_ptr[0]).tolist()
        left_half, right_half = (h.csr_arrays(s)[1] for s in (LEFT, RIGHT))
        assert not np.shares_memory(left_half, right_half)


@settings(max_examples=120, deadline=None)
@given(arc_rows, st.booleans(), st.data())
def test_restricted_accessors_match_dense_matrix(rows, directed, data):
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows)
    left = sorted(data.draw(st.sets(st.integers(0, g.left_count - 1), min_size=1)))
    right = sorted(data.draw(st.sets(st.integers(0, g.right_count - 1), min_size=1)))
    left_ids, right_ids, mat = _expected_graph(rows, directed)
    expected = mat[np.ix_(left, right)]
    assume(expected.any())
    h = restrict(g, left, right)
    _check_accessors(h, [left_ids[u] for u in left], [right_ids[v] for v in right], expected)


# arc_rows weights have long binary expansions, and rows + rows[::2]
# repeats pairs: the array code must give the per-vertex referees' floats
# bit for bit
@settings(max_examples=200, deadline=None)
@given(arc_rows, st.booleans(), st.data())
def test_edge_weight_matches_per_vertex_referee(rows, directed, data):
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows + rows[::2])
    every_left, every_right = range(g.left_count), range(g.right_count)
    left = data.draw(st.sets(st.sampled_from(every_left)))
    right = data.draw(st.sets(st.sampled_from(every_right)))
    # part of one side against all of the other probes from the part; the
    # two whole sides tie and probe from the left
    pairs = ((left, right), (left, every_right), (every_left, right), (every_left, every_right))
    as_arrays = (np.array(sorted(left), dtype=np.int64), np.array(sorted(right), dtype=np.int64))
    for pair in (*pairs, as_arrays):
        assert edge_weight_between(g, *pair) == reference_edge_weight(g, *pair)


@settings(max_examples=150, deadline=None)
@given(arc_rows, st.booleans(), st.data())
def test_restrict_matches_per_vertex_referee(rows, directed, data):
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows + rows[::2])
    left = data.draw(st.sets(st.integers(0, g.left_count - 1)))
    right = data.draw(st.sets(st.integers(0, g.right_count - 1)))
    as_arrays = (np.array(sorted(left), dtype=np.int64), np.array(sorted(right), dtype=np.int64))
    expected = reference_restrict(g, left, right)
    if expected is None:
        for pair in ((left, right), as_arrays):
            with pytest.raises(EmptyGraph):
                restrict(g, *pair)
        return
    ids, csr, total = expected
    for h in (restrict(g, left, right), restrict(g, *as_arrays)):
        assert [h.left_id(k) for k in range(h.left_count)] == ids[LEFT]
        assert [h.right_id(k) for k in range(h.right_count)] == ids[RIGHT]
        for side in (LEFT, RIGHT):
            assert tuple(a.tolist() for a in h.csr_arrays(side)) == csr[side]
        assert h.total_weight == total
