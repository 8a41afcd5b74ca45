"""Shared builders and independent referee implementations.

The referees recompute quantities the library also computes, but through
different routes (dense matrices, full enumeration), so agreement is
meaningful.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest

from localdense import (
    LEFT,
    RIGHT,
    DomainError,
    NegativeEntry,
    Subgraph,
    TooLarge,
    build_bipartite,
    density,
)


def k_ab(a, b, weight=1.0):
    """Complete bipartite graph with left ids l0.. and right ids r0.."""
    return build_bipartite(
        (f"l{i}", f"r{j}", weight) for i in range(a) for j in range(b)
    )


def dense_biadjacency(g):
    mat = np.zeros((g.left_count, g.right_count))
    for u, v, w in g.edges():
        mat[u, v] = w
    return mat


def dense_eigenvalue(g):
    """Top eigenvalue of the full symmetric adjacency, by dense solve."""
    mat = dense_biadjacency(g)
    n = g.left_count + g.right_count
    adj = np.zeros((n, n))
    adj[: g.left_count, g.left_count :] = mat
    adj[g.left_count :, : g.left_count] = mat.T
    return float(np.linalg.eigvalsh(adj)[-1])


def naive_densest(g):
    """Enumerate every (S, T) pair outright; referee for the exact oracle.

    Returns (density, left frozenset, right frozenset) for the first maximum
    in (left mask, right mask) counting order.
    """
    mat = dense_biadjacency(g)
    nl, nr = mat.shape
    assert nl <= 12 and nr <= 12
    tmasks = np.arange(1, 1 << nr)
    tbits = (tmasks[:, None] >> np.arange(nr)) & 1
    tsizes = tbits.sum(axis=1)
    best = None
    for smask in range(1, 1 << nl):
        rows = [u for u in range(nl) if smask >> u & 1]
        weights_into = mat[rows].sum(axis=0)
        e = tbits @ weights_into
        dens = e / np.sqrt(len(rows) * tsizes)
        k = int(np.argmax(dens))
        d = float(dens[k])
        if best is None or d > best[0]:
            cols = [v for v in range(nr) if tmasks[k] >> v & 1]
            best = (d, frozenset(rows), frozenset(cols))
    return best


def reference_exact_densest(g, side_cap=20):
    """The exact search one mask at a time; referee for exact_densest.

    Sums each subset's incident row with mat[members].sum(axis=0), orders the
    partner side with lexsort and keeps the first maximum, so its result is
    the one the blocked search must reproduce bit for bit.
    """
    if side_cap < 1:
        raise DomainError("side cap must be at least one")
    flip = g.right_count < g.left_count
    small = g.right_count if flip else g.left_count
    if small > side_cap:
        raise TooLarge(
            f"smaller side has {small} vertices, above the cap of {side_cap}"
        )
    mat = dense_biadjacency(g)
    if flip:
        mat = mat.T
    other = mat.shape[1]
    partner_order_tiebreak = np.arange(other)
    sizes = np.arange(1, other + 1, dtype=np.float64)

    best = None  # (density, weight, subset tuple, partner tuple)
    members: list[int] = []
    for mask in range(1, 1 << small):
        members = [u for u in range(small) if mask >> u & 1]
        incident = mat[members].sum(axis=0)
        order = np.lexsort((partner_order_tiebreak, -incident))
        prefix = np.cumsum(incident[order])
        dens = prefix / np.sqrt(len(members) * sizes)
        k = int(np.argmax(dens))
        d = float(dens[k])
        if best is None or d > best[0]:
            partner = tuple(sorted(order[: k + 1].tolist()))
            best = (d, float(prefix[k]), tuple(members), partner)

    _, _, subset, partner = best
    if flip:
        left_set, right_set = frozenset(partner), frozenset(subset)
    else:
        left_set, right_set = frozenset(subset), frozenset(partner)
    return density(g, left_set, right_set)


def reference_edge_weight(g, left_set, right_set):
    """Crossing weight by walking neighbour lists one vertex at a time.

    Probes from the set with the smaller total fanout, from the left on a
    tie, and adds the weights one by one in CSR order; referee for
    edge_weight_between, whose float must match it bit for bit.
    """
    sets = {LEFT: frozenset(left_set), RIGHT: frozenset(right_set)}
    if not sets[LEFT] or not sets[RIGHT]:
        return 0.0
    side = min(sets, key=lambda s: sum(g.fanout(s, u) for u in sets[s]))
    members = sets[RIGHT if side == LEFT else LEFT]
    total = 0.0
    for u in sorted(sets[side]):
        nbr, wt = g.neighbors(side, u)
        for v, w in zip(nbr.tolist(), wt.tolist()):
            if v in members:
                total += w
    return total


def reference_restrict(g, left_set, right_set):
    """The restriction's ids, CSR lists and total weight, walked per vertex.

    Each side keeps its chosen vertices in ascending index order and each
    neighbour list keeps the order it has in g.  The total is the numpy sum
    of the left side's weights in CSR order, the order the graph sums them
    in.  Returns None when no edge survives; referee for restrict.
    """
    chosen = {LEFT: sorted(left_set), RIGHT: sorted(right_set)}
    renumber = {side: {u: k for k, u in enumerate(vs)} for side, vs in chosen.items()}
    ids = {
        LEFT: [g.left_id(u) for u in chosen[LEFT]],
        RIGHT: [g.right_id(v) for v in chosen[RIGHT]],
    }
    csr = {}
    for side, other in ((LEFT, RIGHT), (RIGHT, LEFT)):
        ptr, nbrs, wts = [0], [], []
        for u in chosen[side]:
            nbr, wt = g.neighbors(side, u)
            for v, w in zip(nbr.tolist(), wt.tolist()):
                if v in renumber[other]:
                    nbrs.append(renumber[other][v])
                    wts.append(w)
            ptr.append(len(nbrs))
        csr[side] = (ptr, nbrs, wts)
    if not csr[LEFT][2]:
        return None
    return ids, csr, float(np.asarray(csr[LEFT][2]).sum())


def reference_certificate_margin(g, vec_left, vec_right, threshold):
    """Smallest slack of (vector times adjacency - threshold * vector) on the
    support, each slack summed one neighbour at a time in CSR order; referee
    for Certificate.margin.
    """
    worst = math.inf
    for side, vec, other in ((LEFT, vec_left, vec_right), (RIGHT, vec_right, vec_left)):
        for u, pu in vec.items():
            nbr, wt = g.neighbors(side, u)
            acc = 0.0
            for v, w in zip(nbr.tolist(), wt.tolist()):
                pv = other.get(v)
                if pv is not None:
                    acc += pv * w
            worst = min(worst, acc - threshold * pu)
    return worst


def reference_generate(
    n_left, n_right, noise_edges, a, b, planted_density_factor=1.0, rng_seed=0,
    noise_avoids_planted=False,
):
    """generate_planted for valid arguments, one randrange pair per noise
    draw and one row tuple per edge through build_bipartite; referee for the
    bulk draws and the column build.
    """
    rng = random.Random(rng_seed)
    left_block = sorted(rng.sample(range(n_left), a))
    right_block = sorted(rng.sample(range(n_right), b))
    block_target = round(planted_density_factor * a * b)
    if block_target == a * b:
        positions = [(p, q) for p in range(a) for q in range(b)]
    else:
        cover = {(k % a, k % b) for k in range(max(a, b))}
        rest = [pq for pq in ((p, q) for p in range(a) for q in range(b)) if pq not in cover]
        extra = rng.sample(rest, block_target - len(cover))
        positions = sorted(cover) + sorted(extra)
    edges = [(left_block[p], right_block[q], 1.0) for p, q in positions]

    if noise_avoids_planted:
        left_pool = sorted(set(range(n_left)).difference(left_block))
        right_pool = sorted(set(range(n_right)).difference(right_block))
        capacity = len(left_pool) * len(right_pool)
    else:
        left_pool = list(range(n_left))
        right_pool = list(range(n_right))
        capacity = n_left * n_right - a * b
    forbidden = {(left_block[p], right_block[q]) for p in range(a) for q in range(b)}
    if noise_edges * 2 > capacity:
        available = [
            (u, v) for u in left_pool for v in right_pool if (u, v) not in forbidden
        ]
        edges.extend((u, v, 1.0) for u, v in rng.sample(available, noise_edges))
    else:
        used = set(forbidden)
        placed = 0
        while placed < noise_edges:
            u = left_pool[rng.randrange(len(left_pool))]
            v = right_pool[rng.randrange(len(right_pool))]
            if (u, v) in used:
                continue
            used.add((u, v))
            edges.append((u, v, 1.0))
            placed += 1

    g = build_bipartite(edges)
    return g, g.left_indices(left_block), g.right_indices(right_block)


def random_bipartite(rng: random.Random, max_left, max_right, weighted=False, min_edges=1):
    nl = rng.randint(1, max_left)
    nr = rng.randint(1, max_right)
    cap = nl * nr
    m = rng.randint(min_edges, max(min_edges, min(cap, 4 * (nl + nr))))
    m = min(m, cap)
    pairs = set()
    edges = []
    while len(pairs) < m:
        u, v = rng.randrange(nl), rng.randrange(nr)
        if (u, v) in pairs:
            continue
        pairs.add((u, v))
        w = rng.uniform(0.1, 3.0) if weighted else 1.0
        edges.append((f"l{u}", f"r{v}", w))
    return build_bipartite(edges)


def reference_norm(exponents):
    """Norm of entries 2**i, top level factored out as the library does.

    Raises NegativeEntry, with the library's message, for a norm beyond the
    float range.
    """
    exps = list(exponents)
    if not exps:
        return 0.0
    top = max(exps)
    total = math.fsum(math.ldexp(1.0, 2 * (i - top)) for i in exps)
    try:
        return math.ldexp(math.sqrt(total), top)
    except OverflowError:
        raise NegativeEntry(f"vector norm overflows at level 2**{top}") from None


def reference_vector(side, entries):
    """A vector as (side, vertex -> exponent dict, norm): the form in which
    the growth tests compare a LevelVector."""
    return side, dict(sorted(entries.items())), reference_norm(entries.values())


def reference_growth(g, side, start, epsilons):
    """The growth process as plain dict loops; referee for run_pruned_growth.

    start maps vertex index (on `side`) to exponent.  Returns the
    ProcessOutcome fields as a dict whose "trace" is a list of dicts with
    every StepRecord field, vectors given as reference_vector triples, or
    raises the NegativeEntry, with the library's message, of a run whose
    product entry or norm overflows.  The product walks the support in
    vertex order and the pair weights walk it level by level, each in its
    own pass over the edges.
    """
    x = dict(start)
    best = best_at = None
    edges_touched = executed = 0
    steps = []
    for t in range(len(epsilons) - 1):
        incident = sum(g.fanout(side, u) for u in x)
        if incident == 0:
            break
        prod = {}
        for u in sorted(x):
            val = math.ldexp(1.0, x[u])
            nbr, wt = g.neighbors(side, u)
            for v, w in zip(nbr.tolist(), wt.tolist()):
                prod[v] = prod.get(v, 0.0) + val * w
        y = {}
        for v, z in prod.items():
            if math.isinf(z):
                raise NegativeEntry("a product entry overflows to inf")
            if z > 0.0:
                m, e = math.frexp(z)
                y[v] = e - 1 if m == 0.5 else e
        if not y:
            break
        executed += 1
        edges_touched += 2 * incident
        y_side = RIGHT if side == LEFT else LEFT
        post = reference_vector(y_side, y)

        pair = {}
        for u in sorted(x, key=lambda u: (x[u], u)):
            nbr, wt = g.neighbors(side, u)
            for v, w in zip(nbr.tolist(), wt.tolist()):
                if v in y:
                    key = (x[u], y[v])
                    pair[key] = pair.get(key, 0.0) + w
        x_sizes, y_sizes = Counter(x.values()), Counter(y.values())
        top = None
        for i, j in sorted(pair):
            d = pair[i, j] / math.sqrt(x_sizes[i] * y_sizes[j])
            if top is None or d > top[0]:
                top = (d, i, j)
        d, i, j = top
        if best is None or d > best.density:
            xs = frozenset(u for u in x if x[u] == i)
            ys = frozenset(v for v in y if y[v] == j)
            pair_sets = (xs, ys) if side == LEFT else (ys, xs)
            best = Subgraph(*pair_sets, pair[i, j], d)
            best_at = (t, i, j)

        threshold = epsilons[t + 1] * post[2]  # the rounded product's norm
        nxt = {v: j for v, j in y.items() if math.ldexp(1.0, j) > threshold}
        removed = [j for v, j in y.items() if v not in nxt]
        steps.append(
            {
                "t": t,
                "eps_t": epsilons[t],
                "eps_prune": epsilons[t + 1],
                "x_levels": reference_vector(side, x),
                "post_levels": post,
                "next_levels": reference_vector(y_side, nxt),
                "max_pair_density": d,
                "pruned_mass": reference_norm(removed),
            }
        )
        if not nxt:
            break
        x, side = nxt, y_side
    return {
        "best": best,
        "best_at": best_at,
        "steps_executed": executed,
        "edges_touched": edges_touched,
        "trace": steps,
    }


@pytest.fixture
def star4():
    """One left hub joined to four right leaves."""
    return build_bipartite([("c", t, 1.0) for t in ("w", "x", "y", "z")])


# one line per acceptance criterion, echoed after the test summary so the
# verdicts are visible even when every test passes
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
