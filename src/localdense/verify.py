"""Named self-checks over a loaded graph.

Each property either passes, fails, or is skipped when its inputs don't
apply (for example, the exact cross-check on a graph too large to
enumerate).  The CLI turns a failed property into exit code 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoCandidate, TooLarge
from .graph import LEFT, BipartiteGraph, density
from .globalopt import global_density, global_guarantee_bound
from .local import LocalSchedule, _grow_seeds, _results, local_guarantee_bound
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


def _grow_left(g: BipartiteGraph, vertices, sched: LocalSchedule, keep_trace: bool = False):
    """local_density's result or error for each left vertex index, in order;
    the seeds grow as the lanes of one growth call."""
    seeds = [(g.left_id(v), LEFT) for v in vertices]
    result = _results(g, sched)
    for run in _grow_seeds(g, seeds, sched, keep_trace):
        yield run if isinstance(run, Exception) else result(*run)


def _collect_traces(g: BipartiteGraph, sched: LocalSchedule):
    """Densities and traces of the whole-graph run and eight local runs.

    The densities come as (kind, density) pairs, apart from the traces, so
    that the traces can be freed once they are checked.
    """
    results = [("global", global_density(g, keep_trace=True))]
    for res in _grow_left(g, range(min(8, g.left_count)), sched, keep_trace=True):
        if isinstance(res, NoCandidate):
            continue
        if isinstance(res, Exception):
            raise res
        results.append(("local", res))
    traces = []
    for _, res in results:
        traces.extend(res.traces or ())
    return [(kind, res.density) for kind, res in results], traces


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
    yield "support-bound", rec.x_levels.support_size <= 1.0 / rec.eps_t**2
    yield "support-bound", rec.next_levels.support_size <= 1.0 / rec.eps_prune**2
    # both caps count the powers of two a rounded product spans,
    # log2(2 * delta / (eps * wfloor)) with wfloor = min(w_min, 1): edge
    # weights below one widen the spread, and the floor keeps the log
    # positive however the weights are scaled; a sum of logs, since the
    # product eps * wfloor underflows to 0.0 at subnormal weights
    span = math.log2(2.0 * delta) - math.log2(rec.eps_t) - math.log2(wfloor)
    # level-count: the rounded product occupies few distinct powers of two
    yield "level-count", rec.post_levels.level_count <= math.ceil(span) + 1
    # growth-cap: when no level pair is denser than d, the rounded product's
    # norm stays within 2 * d * norm * span; d is the step's measured
    # densest pair, and a zero vector passes vacuously
    yield "growth-cap", (
        rec.x_levels.norm == 0.0
        or rec.post_levels.norm == 0.0
        or rec.post_levels.norm <= 2.0 * rec.max_pair_density * rec.x_levels.norm * span
    )
    # prune-mass: what truncation removed is small relative to what existed
    if rec.pruned_count:
        cap = rec.eps_prune * rec.post_levels.norm * math.sqrt(rec.pruned_count)
        yield "prune-mass", rec.pruned_mass <= cap * (1.0 + 1e-12)


def run_verification(
    g: BipartiteGraph,
    density_threshold: float | None = None,
    planted: tuple | None = None,
    side_cap: int = 20,
    target_size: int = 8,
) -> list:
    """Evaluate every property against the graph; returns one result each.

    planted, when given, is a pair of id lists naming a known dense block;
    density_threshold defaults to half that block's density.  Eight traced
    local runs start from the first eight left vertices, and with a planted
    block one run starts from each good seed.  Each of the two schedules
    grows its seeds as the lanes of one growth call (up to 128 lanes per
    call), with the results and errors of lone local_density runs.
    """
    out: list[PropertyResult] = []

    def report(name: str, ok, detail: str) -> None:
        # ok is None for a property whose inputs do not apply
        out.append(PropertyResult(name, "skip" if ok is None else "pass" if ok else "fail", detail))

    # every argument is checked before anything grows
    try:
        exact = exact_densest(g, side_cap)
    except TooLarge:
        exact = None
    if planted is not None:
        left_set, right_set = g.left_indices(planted[0]), g.right_indices(planted[1])
        base = density(g, left_set, right_set)
        threshold = density_threshold if density_threshold is not None else base.density / 2.0
        cover = good_seed_set(g, left_set, right_set, threshold)
    sched = LocalSchedule.for_target(target_size)

    runs, traces = _collect_traces(g, sched)
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
    # the oracles below need only the densities; the traces are most of the
    # memory verify holds (about 0.8 MB on a 14-by-1000 graph)
    del traces

    est = top_eigenvalue(g)
    best_density = max(d for _, d in runs)

    # spectral-dominance: no observed density may exceed the eigenvalue
    # estimate plus its residual, which bounds the top eigenvalue only when
    # the estimate has converged to it; the rounding tolerance is relative,
    # so a graph with every weight scaled reads as the original
    report(
        "spectral-dominance",
        best_density <= est.value + est.residual + 1e-9 * est.value,
        f"best density {best_density:.6g} vs eigenvalue {est.value:.6g} "
        f"(residual {est.residual:.2g})",
    )

    glob_density = next(d for kind, d in runs if kind == "global")
    if est.value > 0:
        floor = global_guarantee_bound(est.value, g.vertex_count)
        report(
            "global-guarantee",
            glob_density >= floor,
            f"global density {glob_density:.6g} vs floor {floor:.6g}",
        )
    else:
        report("global-guarantee", None, "eigenvalue estimate is not positive")

    if exact is None:
        report("exact-agreement", None, f"smaller side above cap {side_cap}")
    else:
        report(
            "exact-agreement",
            all(d <= exact.density + 1e-9 * exact.density for _, d in runs),
            f"exact optimum {exact.density:.6g} dominates all runs",
        )

    if planted is None:
        for name in PROPERTY_NAMES[-3:]:
            report(name, None, "no planted block given")
        return out

    report(
        "planted-coverage",
        cover.coverage >= 0.5,
        f"coverage {cover.coverage:.3f} over {len(cover.good)} seeds",
    )

    min_weight = 1.0 / math.sqrt(2.0 * len(left_set))
    # a margin is the least slack of A x - threshold * x for a unit x, which
    # scales with the weights as the threshold does; so does its tolerance
    invalid = sum(
        cert.margin < -1e-9 * threshold
        or cert.vertex_value < min_weight - 1e-12
        for cert in cover.certificates.values()
    )
    report(
        "planted-certificates",
        invalid == 0,
        f"{len(cover.certificates)} certificates, {invalid} invalid",
    )

    size = max(len(left_set), len(right_set))
    floor = local_guarantee_bound(threshold, max(delta, 1.0), size)
    below = 0
    for res in _grow_left(g, sorted(cover.good), LocalSchedule.for_target(size)):
        if isinstance(res, Exception):
            raise res
        below += res.density < floor
    report(
        "planted-local-guarantee",
        below == 0,
        f"{len(cover.good)} good seeds vs floor {floor:.6g}, {below} below",
    )
    return out


def exit_code(results) -> int:
    return 3 if any(r.status == "fail" for r in results) else 0
