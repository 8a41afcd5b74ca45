"""Weighted bipartite graphs with dense integer indexing.

A graph has a left side and a right side.  External vertex ids (any hashable
tokens) are mapped to dense integer indices per side at construction time;
everything downstream works with index sets, each validated once per call
into one form, a sorted, unique int64 array.  Adjacency is stored CSR-style
in numpy arrays, as one table over both sides' rows, with neighbor lists
sorted by index so that iteration order is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .errors import (
    DomainError,
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

    density is edge_weight / sqrt(|left| * |right|); both sets hold Python
    int indices into the graph the subgraph was measured on.
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
    neighbor list sorted by index.  The triples' neighbor and weight arrays
    are the halves of one CSR table, the left rows then the right ones, so
    no edge array is stored twice.  No accessor favours a side.

    Construct from rows through build_bipartite, from_directed or
    load_edge_list, which share one row loop, or from columns through
    restrict or generate_planted; the raw constructor expects each side's
    id-to-index dict, in index order, and validated edge arrays.  It merges
    duplicate pairs by weight sum, and keeps the dicts as given, so one dict
    may serve both sides.  Vertices with no incident edges are legal
    (restriction can produce them) but the graph as a whole always carries
    at least one edge, and its total weight and every weighted degree are
    finite.
    """

    __slots__ = ("_ids", "_index", "_adj", "_csr", "_total_weight", "_max_degree", "_max_fanout")

    def __init__(self, left_index, right_index, l_arr, r_arr, w_arr):
        if len(w_arr) == 0:
            raise EmptyGraph("graph has no edges")
        # one int64 key per pair; bincount sums duplicates in input order.
        # The table is filled in place, weights first, each source freed once
        # copied: so its build peaks no higher than two per-side tables' did
        nl, nr = max(len(left_index), 1), max(len(right_index), 1)
        keys = np.asarray(l_arr, dtype=np.int64) * nr + np.asarray(r_arr, dtype=np.int64)
        keys, inverse = np.unique(keys, return_inverse=True)
        half = len(keys)
        wts = np.empty(2 * half)
        wts[:half] = np.bincount(inverse, weights=np.asarray(w_arr, dtype=np.float64))
        del inverse  # as long as the rows
        # weights are nonnegative, so a finite total means every merged
        # weight is finite too; a degree, summed in another order, may
        # still round up to inf, and is checked below
        with np.errstate(over="ignore"):
            total = float(wts[:half].sum())
        if math.isinf(total):
            raise NegativeWeight("edge weights sum past the float range")

        # np.unique leaves the pairs in (left, right) order, the left rows';
        # the right rows' is that of the unique keys right * nl + left, so
        # an unstable sort gives it
        nbrs = np.empty(2 * half, dtype=np.int64)
        l_arr, r_arr = np.empty_like(keys), nbrs[:half]
        np.divmod(keys, nr, out=(l_arr, r_arr))
        del keys
        order = np.argsort(r_arr * nl + l_arr)
        np.take(l_arr, order, out=nbrs[half:])
        np.take(wts[:half], order, out=wts[half:])
        del order

        self._ids, self._index = {}, {}
        counts, degrees = [], []
        for side, index, rows in ((LEFT, left_index, l_arr), (RIGHT, right_index, r_arr)):
            self._index[side] = index
            ids = self._ids[side] = tuple(index)
            counts.append(np.bincount(rows, minlength=len(ids)))
            degrees.append(np.bincount(rows, wts[:half], len(ids)).max(initial=0.0))
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
        self._adj = (indptr, nbrs, wts)
        self._csr = {
            LEFT: (indptr[: self.left_count + 1], nbrs[:half], wts[:half]),
            RIGHT: (indptr[self.left_count :] - half, nbrs[half:], wts[half:]),
        }
        self._total_weight = total
        self._max_degree = float(max(degrees))
        # growth bounds every product entry by its vertex's float degree
        if math.isinf(self._max_degree):
            raise NegativeWeight("a vertex's weighted degree sums past the float range")
        self._max_fanout = int(max(c.max(initial=0) for c in counts))

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
        both sides resolves to its left copy; any other side raises DomainError.
        """
        if side not in (LEFT, RIGHT, None):
            raise DomainError(f"side must be {LEFT!r}, {RIGHT!r} or None, got {side!r}")
        for s in (LEFT, RIGHT) if side is None else (side,):
            try:
                idx = self._index[s].get(token)
            except TypeError:  # an unhashable token is no vertex's id
                idx = None
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
            try:
                out.add(index[tok])
            except (KeyError, TypeError):  # TypeError: an unhashable token
                raise UnknownVertex(f"{_SIDE_NAMES[side]} vertex {tok!r} not found") from None
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

    def _table(self):
        """(indptr, indices, weights) of the one CSR table: the left rows, then
        the right ones from row left_count on; csr_arrays views its halves."""
        return self._adj

    def __repr__(self):
        return (
            f"BipartiteGraph(left={self.left_count}, right={self.right_count}, "
            f"weight={self._total_weight:g})"
        )


def _row_weight(what: str, a, b, w) -> float:
    """The row's weight as a float; NegativeWeight unless a finite number >= 0."""
    try:
        w = float(w)
        ok = w >= 0.0 and not math.isinf(w)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise NegativeWeight(f"{what} ({a!r}, {b!r}) has invalid weight {w!r}")
    return w


def _from_rows(rows, directed: bool) -> BipartiteGraph:
    """The graph of (a, b, weight) rows whose weights are finite floats >= 0.

    Ids are numbered by first appearance, in one namespace per side, or in
    one that both sides share when directed.  A zero-weight row adds no
    edge; in a directed graph its endpoints are still vertices.  Raises
    EmptyGraph if no edge remains, and NegativeWeight as the constructor does.
    """
    left: dict = {}
    right = left if directed else {}
    l_list, r_list, w_list = [], [], []
    for a, b, w in rows:
        if w == 0.0 and not directed:
            continue
        li = left.setdefault(a, len(left))
        ri = right.setdefault(b, len(right))
        if w > 0.0:
            l_list.append(li)
            r_list.append(ri)
            w_list.append(w)
    if not w_list:
        raise EmptyGraph(f"no positive-weight {'arcs' if directed else 'edges'}")
    return BipartiteGraph(left, right, l_list, r_list, w_list)


def build_bipartite(edges) -> BipartiteGraph:
    """Build a graph from (left_id, right_id, weight) triples.

    Ids on the two sides are independent namespaces and are assigned dense
    indices in first-appearance order.  Duplicate pairs merge by summing
    weights; zero-weight rows are dropped.

    Raises:
        NegativeWeight: if any weight is negative or not a finite number,
            or the merged weights, or one vertex's, sum past the float
            range.
        EmptyGraph: if no positive-weight edge remains.
    """
    return _from_rows(((u, v, _row_weight("edge", u, v, w)) for u, v, w in edges), False)


def from_directed(arcs) -> BipartiteGraph:
    """Turn a directed graph into its bipartite form.

    Both sides carry the full vertex set; an arc x -> y becomes an edge
    between the left copy of x and the right copy of y.  Self-loops are
    ordinary edges here.  Duplicate arcs merge by weight sum.  The endpoints
    of a zero-weight arc are still vertices, with no edge between them.
    Raises NegativeWeight and EmptyGraph as build_bipartite does.
    """
    return _from_rows(((x, y, _row_weight("arc", x, y, w)) for x, y, w in arcs), True)


def _index_array(g: BipartiteGraph, side: str, vertices) -> np.ndarray:
    """frozenset(vertices) as a sorted int64 array; its first bad member raises SideViolation."""
    vs = frozenset(vertices)
    count = g.side_count(side)
    for v in vs:
        if not is_int(v) or not 0 <= v < count:
            raise SideViolation(f"index {v!r} is not a valid side-{side} vertex")
    return np.sort(np.fromiter(vs, dtype=np.int64, count=len(vs)))


def csr_slices(indptr: np.ndarray, members: np.ndarray):
    """Each member's fan-out in a CSR table, and the positions of their
    neighbour entries, member by member in the order given."""
    lo = indptr[members]
    fan = indptr[members + 1] - lo
    return fan, np.arange(fan.sum()) + np.repeat(lo - (np.cumsum(fan) - fan), fan)


def _crossing(g: BipartiteGraph, side: str, members: np.ndarray, others: np.ndarray):
    """Edges from the sorted index array members on side into the sorted
    array others, in CSR order, as (row, neighbour, weight) arrays.  Nothing
    of graph size is allocated.
    """
    indptr, nbrs, wts = g.csr_arrays(side)
    fan, pos = csr_slices(indptr, members)
    keep = np.isin(nbrs[pos], others)
    pos = pos[keep]
    return np.repeat(members, fan)[keep], nbrs[pos], wts[pos]


def _weight_between(g: BipartiteGraph, left: np.ndarray, right: np.ndarray) -> float:
    sets = {LEFT: left, RIGHT: right}
    ptr = {s: g.csr_arrays(s)[0] for s in sets}
    # min keeps the first of equal keys, so a tie probes from the left
    side = min(sets, key=lambda s: (ptr[s][sets[s] + 1] - ptr[s][sets[s]]).sum())
    w = _crossing(g, side, sets[side], sets[opposite(side)])[2]
    # a running total adds in CSR order; np.sum's pairwise order could move
    # the last bit
    return float(np.cumsum(w)[-1]) if len(w) else 0.0


def edge_weight_between(g: BipartiteGraph, left_set, right_set) -> float:
    """Total weight of edges with one endpoint in each set.

    Probes adjacency from whichever set has the smaller total fanout.
    Empty sets are allowed and contribute zero.
    """
    return _weight_between(g, _index_array(g, LEFT, left_set), _index_array(g, RIGHT, right_set))


def density(g: BipartiteGraph, left_set, right_set) -> Subgraph:
    """Crossing weight over the geometric mean of the set sizes.

    Raises EmptySide if either set is empty.
    """
    left, right = _index_array(g, LEFT, left_set), _index_array(g, RIGHT, right_set)
    if not len(left) or not len(right):
        raise EmptySide("density requires both sets nonempty")
    e = _weight_between(g, left, right)
    d = e / math.sqrt(len(left) * len(right))
    return Subgraph(frozenset(left.tolist()), frozenset(right.tolist()), e, d)


def ratio_density(g: BipartiteGraph, left_set, right_set) -> float:
    """Crossing weight over the total number of chosen vertices.

    One side may be empty; raises EmptySide only when both are.
    """
    left, right = _index_array(g, LEFT, left_set), _index_array(g, RIGHT, right_set)
    if not len(left) and not len(right):
        raise EmptySide("ratio_density requires at least one vertex")
    return _weight_between(g, left, right) / (len(left) + len(right))


def restrict(g: BipartiteGraph, left_set, right_set) -> BipartiteGraph:
    """Induced subgraph on the chosen sets, keeping only crossing edges.

    Every chosen vertex survives under its original id, including vertices
    left with no edges; each side's kept vertices are numbered in ascending
    order of their indices in g.  Raises EmptyGraph if no edge survives.
    """
    left, right = _index_array(g, LEFT, left_set), _index_array(g, RIGHT, right_set)
    rows, nbr, wt = _crossing(g, LEFT, left, right)
    if not len(wt):
        raise EmptyGraph("restriction removed every edge")
    return BipartiteGraph(
        dict(zip(map(g.left_id, left.tolist()), range(len(left)))),
        dict(zip(map(g.right_id, right.tolist()), range(len(right)))),
        np.searchsorted(left, rows),
        np.searchsorted(right, nbr),
        wt,
    )
