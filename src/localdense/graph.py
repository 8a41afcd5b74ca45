"""Weighted bipartite graphs with dense integer indexing.

A graph has a left side and a right side.  External vertex ids (any hashable
tokens) are mapped to dense integer indices per side at construction time;
everything downstream works with index sets.  Adjacency is stored CSR-style
in numpy arrays, once per side in a table keyed by the side, with neighbor
lists sorted by index so that iteration order is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .errors import (
    EmptyGraph,
    EmptySide,
    NegativeWeight,
    SideViolation,
    UnknownVertex,
)

LEFT = "L"
RIGHT = "R"
_SIDE_NAMES = {LEFT: "left", RIGHT: "right"}


def opposite(side: str) -> str:
    return RIGHT if side == LEFT else LEFT


def is_int(value) -> bool:
    """True for Python and numpy integers, false for bools."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Subgraph:
    """A vertex pair (left, right) together with its crossing weight and density.

    density is edge_weight / sqrt(|left| * |right|); both sets are index sets
    of the graph the subgraph was measured on.
    """

    left: frozenset
    right: frozenset
    edge_weight: float
    density: float

    @property
    def sizes(self) -> tuple[int, int]:
        return (len(self.left), len(self.right))


class BipartiteGraph:
    """Immutable weighted bipartite graph.

    Every fact about a side lives in one table keyed by the side (LEFT or
    RIGHT): its vertex ids in index order, the id-to-index dict, and its CSR
    triple (indptr, neighbor indices on the other side, weights), with each
    neighbor list sorted by index.  No accessor favours a side.

    Construct through build_bipartite, from_directed, or restrict; the raw
    constructor expects each side's id-to-index dict, in index order, and
    already merged, validated edge arrays.  It keeps the dicts as given, so
    one dict may serve both sides.  Vertices with
    no incident edges are legal (restriction can produce them) but the graph
    as a whole always carries at least one edge, and its total weight is
    finite.
    """

    __slots__ = ("_ids", "_index", "_csr", "_total_weight", "_max_degree", "_max_fanout")

    def __init__(self, left_index, right_index, l_arr, r_arr, w_arr):
        if len(w_arr) == 0:
            raise EmptyGraph("graph has no edges")
        l_arr = np.asarray(l_arr, dtype=np.int64)
        r_arr = np.asarray(r_arr, dtype=np.int64)
        w_arr = np.asarray(w_arr, dtype=np.float64)
        # weights are nonnegative, so a finite total means every merged
        # weight and every degree is finite too
        with np.errstate(over="ignore"):
            total = float(w_arr.sum())
        if math.isinf(total):
            raise NegativeWeight("edge weights sum past the float range")

        self._ids, self._index, self._csr = {}, {}, {}
        degrees, fanouts = [], []
        for side, index, rows, cols in (
            (LEFT, left_index, l_arr, r_arr),
            (RIGHT, right_index, r_arr, l_arr),
        ):
            self._index[side] = index
            ids = self._ids[side] = tuple(index)
            order = np.lexsort((cols, rows))
            counts = np.bincount(rows, minlength=len(ids))
            self._csr[side] = (np.concatenate(([0], np.cumsum(counts))), cols[order], w_arr[order])
            degrees.append(np.bincount(rows, weights=w_arr, minlength=len(ids)).max(initial=0.0))
            fanouts.append(counts.max(initial=0))
        self._total_weight = total
        self._max_degree = float(max(degrees))
        self._max_fanout = int(max(fanouts))

    # ---- size and id accessors -------------------------------------------------

    @property
    def left_count(self) -> int:
        return len(self._ids[LEFT])

    @property
    def right_count(self) -> int:
        return len(self._ids[RIGHT])

    @property
    def vertex_count(self) -> int:
        return self.left_count + self.right_count

    @property
    def total_weight(self) -> float:
        """Sum of merged edge weights (edge count for a unit-weight graph)."""
        return self._total_weight

    @property
    def max_degree(self) -> float:
        """Largest weighted degree over vertices of both sides."""
        return self._max_degree

    @property
    def max_fanout(self) -> int:
        """Largest neighbor-list length over vertices of both sides."""
        return self._max_fanout

    @property
    def min_weight(self) -> float:
        """Smallest merged edge weight (always positive)."""
        return float(self._csr[LEFT][2].min())

    def side_count(self, side: str) -> int:
        return len(self._ids[side])

    def left_id(self, idx: int):
        return self._ids[LEFT][idx]

    def right_id(self, idx: int):
        return self._ids[RIGHT][idx]

    def find_vertex(self, token: Hashable, side: str | None = None) -> tuple[str, int]:
        """Resolve an external id to (side, index).

        With side=None the left side is searched first; a token present on
        both sides resolves to its left copy.
        """
        for s in (LEFT, RIGHT) if side is None else (side,):
            idx = self._index.get(s, {}).get(token)
            if idx is not None:
                return (s, idx)
        raise UnknownVertex(f"vertex {token!r} not found" + (f" on side {side}" if side else ""))

    def left_indices(self, tokens: Iterable[Hashable]) -> frozenset:
        return self._indices(LEFT, tokens)

    def right_indices(self, tokens: Iterable[Hashable]) -> frozenset:
        return self._indices(RIGHT, tokens)

    def _indices(self, side: str, tokens: Iterable[Hashable]) -> frozenset:
        index = self._index[side]
        out = set()
        for tok in tokens:
            if tok not in index:
                raise UnknownVertex(f"{_SIDE_NAMES[side]} vertex {tok!r} not found")
            out.add(index[tok])
        return frozenset(out)

    # ---- adjacency -------------------------------------------------------------

    def neighbors(self, side: str, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices (on the opposite side) and weights, sorted by index."""
        ptr, nbr, wt = self._csr[side]
        lo, hi = ptr[idx], ptr[idx + 1]
        return nbr[lo:hi], wt[lo:hi]

    def fanout(self, side: str, idx: int) -> int:
        ptr = self._csr[side][0]
        return int(ptr[idx + 1] - ptr[idx])

    def edges(self):
        """Yield (left_idx, right_idx, weight) sorted by (left, right)."""
        ptr, nbr, wt = (a.tolist() for a in self._csr[LEFT])
        for u in range(self.left_count):
            for pos in range(ptr[u], ptr[u + 1]):
                yield u, nbr[pos], wt[pos]

    def csr_arrays(self, side: str):
        """Raw (indptr, indices, weights) for one side; treat as read-only."""
        return self._csr[side]

    def __repr__(self):
        return (
            f"BipartiteGraph(left={self.left_count}, right={self.right_count}, "
            f"weight={self._total_weight:g})"
        )


def _merge_indexed_edges(nl, nr, l_list, r_list, w_list):
    """Merge duplicate (l, r) pairs by weight sum; returns sorted arrays."""
    l_arr = np.asarray(l_list, dtype=np.int64)
    r_arr = np.asarray(r_list, dtype=np.int64)
    w_arr = np.asarray(w_list, dtype=np.float64)
    keys = l_arr * np.int64(max(nr, 1)) + r_arr
    uniq, inverse = np.unique(keys, return_inverse=True)
    merged_w = np.bincount(inverse, weights=w_arr, minlength=len(uniq))
    merged_l = uniq // max(nr, 1)
    merged_r = uniq % max(nr, 1)
    return merged_l, merged_r, merged_w


def build_bipartite(edges) -> BipartiteGraph:
    """Build a graph from (left_id, right_id, weight) triples.

    Ids on the two sides are independent namespaces and are assigned dense
    indices in first-appearance order.  Duplicate pairs merge by summing
    weights; zero-weight rows are dropped.

    Raises:
        NegativeWeight: if any weight is negative or not finite, or the
            merged weights sum past the float range.
        EmptyGraph: if no positive-weight edge remains.
    """
    # each dict's insertion order is its side's id order
    left_index: dict = {}
    right_index: dict = {}
    l_list: list[int] = []
    r_list: list[int] = []
    w_list: list[float] = []
    for u, v, w in edges:
        w = float(w)
        if not (w >= 0.0) or math.isinf(w):
            raise NegativeWeight(f"edge ({u!r}, {v!r}) has invalid weight {w!r}")
        if w == 0.0:
            continue
        li = left_index.get(u)
        if li is None:
            li = left_index[u] = len(left_index)
        ri = right_index.get(v)
        if ri is None:
            ri = right_index[v] = len(right_index)
        l_list.append(li)
        r_list.append(ri)
        w_list.append(w)
    if not w_list:
        raise EmptyGraph("no positive-weight edges")
    l_arr, r_arr, w_arr = _merge_indexed_edges(
        len(left_index), len(right_index), l_list, r_list, w_list
    )
    return BipartiteGraph(left_index, right_index, l_arr, r_arr, w_arr)


def from_directed(arcs) -> BipartiteGraph:
    """Turn a directed graph into its bipartite form.

    Both sides carry the full vertex set; an arc x -> y becomes an edge
    between the left copy of x and the right copy of y.  Self-loops are
    ordinary edges here.  Duplicate arcs merge by weight sum.  The endpoints
    of a zero-weight arc are still vertices, with no edge between them.
    Raises NegativeWeight and EmptyGraph as build_bipartite does.
    """
    index: dict = {}
    l_list: list[int] = []
    r_list: list[int] = []
    w_list: list[float] = []
    for x, y, w in arcs:
        w = float(w)
        if not (w >= 0.0) or math.isinf(w):
            raise NegativeWeight(f"arc ({x!r}, {y!r}) has invalid weight {w!r}")
        for tok in (x, y):
            if tok not in index:
                index[tok] = len(index)
        if w > 0.0:
            l_list.append(index[x])
            r_list.append(index[y])
            w_list.append(w)
    if not w_list:
        raise EmptyGraph("no positive-weight arcs")
    l_arr, r_arr, w_arr = _merge_indexed_edges(len(index), len(index), l_list, r_list, w_list)
    return BipartiteGraph(index, index, l_arr, r_arr, w_arr)


def _validate_side_set(g: BipartiteGraph, side: str, vertices) -> frozenset:
    vs = frozenset(vertices)
    count = g.side_count(side)
    for v in vs:
        if not is_int(v) or not 0 <= v < count:
            raise SideViolation(f"index {v!r} is not a valid side-{side} vertex")
    return vs


def edge_weight_between(g: BipartiteGraph, left_set, right_set) -> float:
    """Total weight of edges with one endpoint in each set.

    Iterates adjacency from whichever set has the smaller total fanout.
    Empty sets are allowed and contribute zero.
    """
    ls = _validate_side_set(g, LEFT, left_set)
    rs = _validate_side_set(g, RIGHT, right_set)
    if not ls or not rs:
        return 0.0
    sets = {LEFT: ls, RIGHT: rs}
    # min keeps the first of equal keys, so a tie probes from the left
    side = min(sets, key=lambda s: sum(g.fanout(s, u) for u in sets[s]))
    members = sets[opposite(side)]
    total = 0.0
    for u in sorted(sets[side]):
        nbr, wt = g.neighbors(side, u)
        for v, w in zip(nbr.tolist(), wt.tolist()):
            if v in members:
                total += w
    return total


def density(g: BipartiteGraph, left_set, right_set) -> Subgraph:
    """Crossing weight over the geometric mean of the set sizes.

    Raises EmptySide if either set is empty.
    """
    ls = _validate_side_set(g, LEFT, left_set)
    rs = _validate_side_set(g, RIGHT, right_set)
    if not ls or not rs:
        raise EmptySide("density requires both sets nonempty")
    e = edge_weight_between(g, ls, rs)
    d = e / math.sqrt(len(ls) * len(rs))
    return Subgraph(ls, rs, e, d)


def ratio_density(g: BipartiteGraph, left_set, right_set) -> float:
    """Crossing weight over the total number of chosen vertices.

    One side may be empty; raises EmptySide only when both are.
    """
    ls = _validate_side_set(g, LEFT, left_set)
    rs = _validate_side_set(g, RIGHT, right_set)
    if not ls and not rs:
        raise EmptySide("ratio_density requires at least one vertex")
    e = edge_weight_between(g, ls, rs) if (ls and rs) else 0.0
    return e / (len(ls) + len(rs))


def restrict(g: BipartiteGraph, left_set, right_set) -> BipartiteGraph:
    """Induced subgraph on the chosen sets, keeping only crossing edges.

    Every chosen vertex survives under its original id, including vertices
    left with no edges; each side's kept vertices are numbered in ascending
    order of their indices in g.  Raises EmptyGraph if no edge survives.
    """
    ls = _validate_side_set(g, LEFT, left_set)
    rs = _validate_side_set(g, RIGHT, right_set)
    left_sorted = sorted(ls)
    right_sorted = sorted(rs)
    new_left = {u: k for k, u in enumerate(left_sorted)}
    new_right = {v: k for k, v in enumerate(right_sorted)}
    l_list, r_list, w_list = [], [], []
    for u in left_sorted:
        nbr, wt = g.neighbors(LEFT, u)
        for v, w in zip(nbr.tolist(), wt.tolist()):
            if v in rs:
                l_list.append(new_left[u])
                r_list.append(new_right[v])
                w_list.append(w)
    if not w_list:
        raise EmptyGraph("restriction removed every edge")
    return BipartiteGraph(
        {g.left_id(u): k for k, u in enumerate(left_sorted)},
        {g.right_id(v): k for k, v in enumerate(right_sorted)},
        l_list,
        r_list,
        w_list,
    )

