import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from localdense import (
    LEFT,
    RIGHT,
    EmptyGraph,
    EmptySide,
    NegativeWeight,
    SideViolation,
    UnknownVertex,
    build_bipartite,
    density,
    edge_weight_between,
    from_directed,
    ratio_density,
    restrict,
)

from conftest import dense_biadjacency, k_ab


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
        with pytest.raises(UnknownVertex):
            g.find_vertex("absent", side)
        with pytest.raises(UnknownVertex):
            indices([ids[0], "absent"])
    # without a side, a token on both sides resolves to its left copy
    for tok in set(left_ids) | set(right_ids):
        if tok in left_ids:
            assert g.find_vertex(tok) == (LEFT, left_ids.index(tok))
        else:
            assert g.find_vertex(tok) == (RIGHT, right_ids.index(tok))
    with pytest.raises(UnknownVertex):
        g.find_vertex("absent")


@settings(max_examples=120, deadline=None)
@given(arc_rows, st.booleans())
def test_accessors_match_dense_matrix(rows, directed):
    assume(any(w > 0.0 for _, _, w in rows))
    g = (from_directed if directed else build_bipartite)(rows)
    _check_accessors(g, *_expected_graph(rows, directed))


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
