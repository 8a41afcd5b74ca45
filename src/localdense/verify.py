"""Named self-checks over a loaded graph.

Each property either passes, fails, or is skipped when its inputs don't
apply (for example, the exact cross-check on a graph too large to
enumerate).  The CLI turns a failed property into exit code 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoCandidate, TooLarge, UnknownVertex
from .graph import LEFT, BipartiteGraph, density, is_int
from .globalopt import global_density, global_guarantee_bound
from .local import local_density, local_guarantee_bound
from .oracle import exact_densest, good_seed_set, top_eigenvalue

PROPERTY_NAMES = (
    "support-bound",
    "level-count",
    "growth-cap",
    "prune-mass",
    "spectral-dominance",
    "global-guarantee",
    "exact-agreement",
    "planted-coverage",
    "planted-certificates",
    "planted-local-guarantee",
)


@dataclass
class PropertyResult:
    name: str
    status: str  # "pass", "fail", or "skip"
    detail: str


def _collect_traces(g: BipartiteGraph, target_size: int, seed_count: int):
    """Traces from the whole-graph run plus a handful of local runs."""
    results = []
    glob = global_density(g, keep_trace=True)
    results.append(("global", glob))
    for idx in range(min(seed_count, g.left_count)):
        try:
            res = local_density(g, g.left_id(idx), target_size, LEFT, keep_trace=True)
        except (NoCandidate, UnknownVertex):
            continue
        results.append(("local", res))
    traces = []
    for _, res in results:
        traces.extend(res.traces or ())
    return results, traces


# the per-step properties, in report order, with the noun their detail counts
_STEP_CHECKS = {
    "support-bound": "support checks",
    "level-count": "level counts",
    "growth-cap": "growth checks",
    "prune-mass": "pruning checks",
}


def _step_checks(rec, delta: float, wfloor: float):
    """Yield (property, ok) for every per-step bound one trace step is held to."""
    # support-bound: a vector truncated at fraction eps has at most 1/eps^2
    # surviving entries
    yield "support-bound", rec.x_support <= 1.0 / rec.eps_t**2
    yield "support-bound", rec.next_support <= 1.0 / rec.eps_prune**2
    # level-count: the rounded product occupies few distinct powers of two;
    # edge weights below one widen the spread, so the cap folds them in
    cap = math.ceil(math.log2(2.0 * delta / (rec.eps_t * wfloor))) + 1
    yield "level-count", rec.post_levels.level_count <= cap
    # growth-cap: when no level pair is denser than d, the rounded product's
    # norm stays within 2 * d * norm * log2(2 * delta / eps); d is the step's
    # measured densest pair, and a zero vector passes vacuously
    yield "growth-cap", (
        rec.x_norm == 0.0
        or rec.pre_norm == 0.0
        or rec.pre_norm
        <= 2.0 * rec.max_pair_density * rec.x_norm * math.log2(2.0 * delta / rec.eps_t)
    )
    # prune-mass: what truncation removed is small relative to what existed
    if rec.pruned_count:
        cap = rec.eps_prune * rec.pre_norm * math.sqrt(rec.pruned_count)
        yield "prune-mass", rec.pruned_mass <= cap * (1.0 + 1e-12)


def run_verification(
    g: BipartiteGraph,
    density_threshold: float | None = None,
    planted: tuple | None = None,
    side_cap: int = 20,
    target_size: int = 8,
    seed_count: int = 8,
) -> list:
    """Evaluate every property against the graph; returns one result each.

    planted, when given, is a pair of id lists naming a known dense block;
    density_threshold defaults to half that block's density.  Local runs
    start from the first seed_count left vertices.

    Raises DomainError when seed_count is not a nonnegative integer.
    """
    if not is_int(seed_count) or seed_count < 0:
        raise DomainError(f"seed count must be a nonnegative integer, got {seed_count!r}")
    out: list[PropertyResult] = []

    def report(name: str, ok, detail: str) -> None:
        # ok is None for a property whose inputs do not apply
        out.append(PropertyResult(name, "skip" if ok is None else "pass" if ok else "fail", detail))

    runs, traces = _collect_traces(g, target_size, seed_count)
    delta = g.max_degree

    checked = dict.fromkeys(_STEP_CHECKS, 0)
    bad = dict.fromkeys(_STEP_CHECKS, 0)
    wfloor = min(g.min_weight, 1.0)
    for tr in traces:
        for rec in tr.steps:
            for name, ok in _step_checks(rec, delta, wfloor):
                checked[name] += 1
                bad[name] += not ok
    for name, noun in _STEP_CHECKS.items():
        report(name, bad[name] == 0, f"{checked[name]} {noun}, {bad[name]} violations")

    est = top_eigenvalue(g)
    best_density = max(res.density for _, res in runs)

    # spectral-dominance: no observed density may exceed the eigenvalue
    # estimate plus its residual, which bounds the top eigenvalue only when
    # the estimate has converged to it
    report(
        "spectral-dominance",
        best_density <= est.value + est.residual + 1e-9,
        f"best density {best_density:.6g} vs eigenvalue {est.value:.6g} "
        f"(residual {est.residual:.2g})",
    )

    glob = next(res for kind, res in runs if kind == "global")
    if g.vertex_count >= 2 and est.value > 0:
        floor = global_guarantee_bound(est.value, g.vertex_count)
        report(
            "global-guarantee",
            glob.density >= floor,
            f"global density {glob.density:.6g} vs floor {floor:.6g}",
        )
    else:
        report("global-guarantee", None, "graph too small")

    try:
        exact = exact_densest(g, side_cap)
    except TooLarge:
        report("exact-agreement", None, f"smaller side above cap {side_cap}")
    else:
        report(
            "exact-agreement",
            all(res.density <= exact.density + 1e-9 for _, res in runs),
            f"exact optimum {exact.density:.6g} dominates all runs",
        )

    if planted is None:
        for name in PROPERTY_NAMES[-3:]:
            report(name, None, "no planted block given")
        return out

    left_ids, right_ids = planted
    left_set = g.left_indices(left_ids)
    right_set = g.right_indices(right_ids)
    base = density(g, left_set, right_set)
    threshold = (
        density_threshold if density_threshold is not None else base.density / 2.0
    )
    cover = good_seed_set(g, left_set, right_set, threshold)
    report(
        "planted-coverage",
        cover.coverage >= 0.5,
        f"coverage {cover.coverage:.3f} over {len(cover.good)} seeds",
    )

    min_weight = 1.0 / math.sqrt(2.0 * len(left_set))
    invalid = sum(
        cert.margin < -1e-9 or cert.vertex_value < min_weight - 1e-12
        for cert in cover.certificates.values()
    )
    report(
        "planted-certificates",
        invalid == 0,
        f"{len(cover.certificates)} certificates, {invalid} invalid",
    )

    size = max(len(left_set), len(right_set))
    floor = local_guarantee_bound(threshold, max(delta, 1.0), size)
    below = sum(
        local_density(g, g.left_id(v), size, LEFT).density < floor for v in sorted(cover.good)
    )
    report(
        "planted-local-guarantee",
        below == 0,
        f"{len(cover.good)} good seeds vs floor {floor:.6g}, {below} below",
    )
    return out


def exit_code(results) -> int:
    return 3 if any(r.status == "fail" for r in results) else 0
