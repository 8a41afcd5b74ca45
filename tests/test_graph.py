import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localdense import (
    EmptyGraph,
    EmptySide,
    NegativeWeight,
    SideViolation,
    build_bipartite,
    degree_stats,
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


def test_degree_stats_small_block():
    stats = degree_stats(k_ab(2, 3))
    assert stats.vertex_count == 5
    assert stats.edge_weight == 6.0
    assert stats.max_degree == 3.0
    assert stats.max_fanout == 3
    assert stats.avg_degree == pytest.approx(2.4)


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
