"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the package from the outside: each
target function is replaced by a timing wrapper in every module namespace
of the package that binds it (``localdense.growth.run_pruned_growth``,
``localdense.local.run_pruned_growth``, ``localdense.run_pruned_growth``),
so calls between modules are seen as well as calls from the benchmark.  Nothing in the package changes, and
``uninstall`` puts every original binding back.

A span is (name, start, end, parent, thread) plus optional counters taken
from the call's arguments and result.  Spans stay in memory until
``summarize`` turns them into per-op layer metrics.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

ROOT = "op"  # name of the span around one benchmark operation

# Public functions timed in the traced run, as "module:function".
TARGETS = (
    "localdense.cli:main",
    "localdense.verify:run_verification",
    "localdense.io:load_edge_list",
    "localdense.io:write_records",
    "localdense.graph:build_bipartite",
    "localdense.graph:restrict",
    "localdense.graph:edge_weight_between",
    "localdense.local:seed_scan",
    "localdense.local:local_density",
    "localdense.globalopt:global_density",
    "localdense.growth:run_pruned_growth",
    "localdense.growth:step",
    "localdense.growth:multiply",
    "localdense.growth:round_up_pow2",
    "localdense.growth:truncate",
    "localdense.growth:level_sets",
    "localdense.growth:evaluate_candidates",
    "localdense.oracle:top_eigenvalue",
    "localdense.oracle:exact_densest",
    "localdense.oracle:good_seed_set",
)


# ---------------------------------------------------------------------------
# counters
#
# A probe sees the call's arguments before the call and returns a function
# that maps the call's result to counter increments.  Probes read only what
# the public signatures and result types expose.


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _probe_growth(args, kwargs):
    return lambda out: {
        "growth.steps": out.steps_executed,
        "growth.edges_touched": out.edges_touched,
    }


def _probe_multiply(args, kwargs):
    return lambda out: {"growth.product_entries": len(out)}


def _probe_truncate(args, kwargs):
    offered = len(_arg(args, kwargs, 0, "z").exponents)
    return lambda out: {"growth.offered": offered, "growth.kept": len(out.exponents)}


def _probe_seed_scan(args, kwargs):
    seeds = len(_arg(args, kwargs, 1, "seeds"))
    return lambda out: {
        "local.seed_scan.seeds": seeds,
        "local.seed_scan.failed": len(out.failures),
    }


def _probe_eigen(args, kwargs):
    return lambda est: {
        "oracle.top_eigenvalue.iterations": est.iterations,
        "oracle.top_eigenvalue.unconverged": 0 if est.converged else 1,
    }


def _probe_exact(args, kwargs):
    g = _arg(args, kwargs, 0, "g")
    subsets = (1 << min(g.left_count, g.right_count)) - 1
    return lambda sub: {"oracle.exact_densest.subsets": subsets}


def _probe_good_seeds(args, kwargs):
    return lambda rep: {"oracle.good_seed_set.batches": rep.batches}


def _probe_write(args, kwargs):
    stream = _arg(args, kwargs, 1, "stream")
    start = stream.tell()
    return lambda _: {"io.bytes_out": stream.tell() - start}


# span name -> (probe, counters it emits); a probe never called reports 0
PROBES = {
    "growth.run_pruned_growth": (_probe_growth, ("growth.steps", "growth.edges_touched")),
    "growth.multiply": (_probe_multiply, ("growth.product_entries",)),
    "growth.truncate": (_probe_truncate, ("growth.offered", "growth.kept")),
    "local.seed_scan": (
        _probe_seed_scan,
        ("local.seed_scan.seeds", "local.seed_scan.failed"),
    ),
    "oracle.top_eigenvalue": (
        _probe_eigen,
        ("oracle.top_eigenvalue.iterations", "oracle.top_eigenvalue.unconverged"),
    ),
    "oracle.exact_densest": (_probe_exact, ("oracle.exact_densest.subsets",)),
    "oracle.good_seed_set": (_probe_good_seeds, ("oracle.good_seed_set.batches",)),
    "io.write_records": (_probe_write, ("io.bytes_out",)),
}

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "growth.kept_ratio": ("growth.kept", "growth.offered"),
    "local.seed_scan.failed_ratio": ("local.seed_scan.failed", "local.seed_scan.seeds"),
}

# counters that exist only to form a ratio and are not reported on their own
_RATIO_PARTS = {part for pair in RATIOS.values() for part in pair}


# ---------------------------------------------------------------------------
# recording


@dataclass(slots=True)
class Span:
    name: str
    start: float
    thread: int
    parent: "Span | None"
    end: float = math.nan
    counts: dict | None = None


class SpanRecorder:
    """Collects spans from wrapped functions; one instance per traced run.

    A span's parent is the innermost open span on its own thread.  A span
    opened on a worker thread with nothing open on that thread takes as
    parent the innermost span open on the op's root thread at that moment:
    the op's root span itself, or the span (such as ``seed_scan``) that is
    waiting for the worker.
    """

    def __init__(self):
        self.spans: list = []
        self.ops: list = []  # (first span index, end span index) per op
        self.names: list = []  # span names of installed targets
        self.missing: list = []  # targets that no longer exist
        self.probe_errors: dict = {}  # span name -> exception type name
        self._local = threading.local()
        self._root_stack: list | None = None
        self._patches: list = []  # (module, attribute, original)

    # ---- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack is not None:
            # slicing is atomic, so the root thread popping meanwhile is safe
            top = self._root_stack[-1:]
            parent = top[0] if top else None
        else:
            parent = None
        span = Span(name, time.perf_counter(), threading.get_ident(), parent)
        stack.append(span)
        self.spans.append(span)  # list.append is atomic under the GIL
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def root(self):
        """Span for one benchmark operation; worker spans attach beneath it."""
        first = len(self.spans)
        span = self._open(ROOT)
        self._root_stack = self._stack()
        try:
            yield span
        finally:
            self._close(span)
            self._root_stack = None
            self.ops.append((first, len(self.spans)))

    # ---- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name, (None,))[0]
        recorder = self

        def wrapper(*args, **kwargs):
            finish = None
            if probe is not None:
                try:
                    finish = probe(args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                    recorder.probe_errors[name] = type(exc).__name__
            span = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if finish is not None:
                try:
                    span.counts = finish(result)
                except (AttributeError, TypeError) as exc:
                    recorder.probe_errors[name] = type(exc).__name__
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap each target in every module of its package that binds it.

        A target whose module or function no longer exists is listed in
        ``missing`` and yields no metrics.
        """
        self.names, self.missing = [], []
        resolved = []
        for target in targets:
            modname, attr = target.split(":")
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(target)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(target)
                continue
            name = f"{modname.rsplit('.', 1)[-1]}.{attr}"
            self.names.append(name)
            resolved.append((name, fn, modname.split(".")[0]))
        packages = {
            package: [
                mod for key, mod in list(sys.modules.items())
                if mod is not None and (key == package or key.startswith(package + "."))
            ]
            for package in {package for _, _, package in resolved}
        }
        for name, fn, package in resolved:
            wrapper = self._wrap(name, fn)
            for mod in packages[package]:
                for attr_name, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr_name, fn))
                        setattr(mod, attr_name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def op_counts(self, index: int) -> dict:
        """Counter totals of one op, for checking that counts repeat."""
        first, end = self.ops[index]
        totals: dict = {}
        for span in self.spans[first:end]:
            for key, val in (span.counts or {}).items():
                totals[key] = totals.get(key, 0) + val
        return totals


# ---------------------------------------------------------------------------
# summarizing


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the union of its children's intervals.

    Children on several threads that overlap in time count once.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        kids = children.get(id(span), ())
        covered = union_length(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        out[id(span)] = (span.end - span.start) - covered
    return out


def tail(samples):
    """Highest percentile with at least ten samples beyond it, but not
    below the median.

    Returns (value, percentile, samples beyond).  With fewer than 22
    samples no percentile above the median has ten beyond it, and the upper
    median stands in; the floor keeps the figure continuous as the sample
    count changes from run to run.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan, math.nan, 0
    k = max(n - 11, n // 2)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def median(samples) -> float:
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def summarize(recorder: SpanRecorder) -> dict:
    """Per-op layer metrics from every recorded span.

    For each span name: ``calls``, ``ms`` (summed durations over all
    threads) and ``self_ms`` per op, plus ``p50_ms`` and ``tail_ms`` of
    single calls.  Counters are summed per op; ratios are formed over all
    ops.  A target that was never installed has no metrics at all.
    """
    ops = max(len(recorder.ops), 1)
    selfs = self_times(recorder.spans)
    by_name: dict = {}
    counters: dict = {}
    for span in recorder.spans:
        if span.name == ROOT:
            continue
        by_name.setdefault(span.name, []).append(span)
        for key, val in (span.counts or {}).items():
            counters[key] = counters.get(key, 0) + val

    metrics: dict = {}
    for name in recorder.names:
        spans = by_name.get(name, [])
        durations = [1000.0 * (s.end - s.start) for s in spans]
        metrics[f"{name}.calls"] = len(spans) / ops
        metrics[f"{name}.ms"] = sum(durations) / ops
        metrics[f"{name}.self_ms"] = 1000.0 * sum(selfs[id(s)] for s in spans) / ops
        metrics[f"{name}.p50_ms"] = median(durations) if durations else 0.0
        metrics[f"{name}.tail_ms"] = tail(durations)[0] if durations else 0.0
        if name in PROBES and name not in recorder.probe_errors:
            for key in PROBES[name][1]:
                if key not in _RATIO_PARTS:
                    metrics[key] = counters.get(key, 0) / ops
    for ratio, (num, den) in RATIOS.items():
        owner = next(name for name, (_, keys) in PROBES.items() if num in keys)
        if owner in recorder.names and owner not in recorder.probe_errors:
            d = counters.get(den, 0)
            metrics[ratio] = counters.get(num, 0) / d if d else 0.0
    return metrics

