"""Benchmark harness for localdense.

One workload per process:

    python3 perfbench/run.py --workload local-scan --seed 1 --seconds 15 --trace 0

sets the workload up from the seed, runs its op in a closed loop (one caller,
next op after the previous one returns) for the given seconds, checks every
output, and prints one JSON object as the last line of stdout.  With
``--trace 0`` its metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the op runs under the span recorder and the metrics are the
per-layer ones.  A line before it, ``{"info": ...}``, carries the details
(op count, tail percentile, fail ratio, tracing state).

    python3 perfbench/run.py --workload all --seed 1 --seconds 15

runs every workload untraced and then traced, each in its own process,
prints every end-to-end metric by name and unit with the tracing overhead,
and writes the lot with machine info to .perfbench/BENCH_seed<seed>.json.

The package is imported from src/ of the checkout this file sits in, never
from anywhere else; without it the harness exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("local-scan", "certify")

# Set-up runs once before the timed loop, again at whole-cycle boundaries
# inside it for as long as set-up has taken less than SETUP_SHARE of the
# loop's time, and once after it.  A shared machine's speed changes from
# one second to the next, so repetitions spread through the run see it as
# the ops do; repetitions bunched before and after the loop saw single slow
# or fast stretches.  The loop's clock stops while set-up runs.
SETUP_SHARE = 0.1

# Figures printed by --workload all besides the end-to-end metrics.  They
# are in every run's info line but carry no bound: on a shared machine the
# median and tail of one run moved more from run to run than any bound the
# benchmark may set, while the whole loop's rate moved less.
UNBOUNDED = (("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("fail_ratio", "ratio"))


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_package():
    src = ROOT / "src"
    if not (src / "localdense" / "__init__.py").is_file():
        _fail(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import localdense

    if Path(localdense.__file__).resolve().parent != src / "localdense":
        _fail(f"imported localdense from {localdense.__file__}, not from {src}")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


@contextmanager
def _on_cpu(slot: int):
    """Run the calling thread on one usable CPU, chosen round robin by slot.

    On a shared VM one virtual CPU can run half as fast as the other for
    tens of seconds, while a busy thread stays on the CPU it started on.  A
    run that stuck to one CPU measured that CPU's luck; rotating spreads
    every run's work evenly over the CPUs.  Threads started inside, such as
    seed_scan's pool, inherit the one CPU.
    """
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if not allowed or len(allowed) < 2:
        yield
        return
    os.sched_setaffinity(0, {sorted(allowed)[slot % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float, workdir: str, trace: bool = False):
    """Set up, run the closed loop with set-ups spread through it, check
    every output.

    Returns (raw figures, tracing recorder or None).  One untraced op warms
    the heap before the loop.  Each input's first untraced output is the
    reference that its later outputs, traced or not, must equal byte for
    byte.  Traced, the loop alternates an untraced and a traced op on each
    input, so the tracing overhead is measured in the same stretch of time;
    the span recorder is installed around the traced ops only.  The
    workload's ``tap`` targets are wrapped around its untraced ops.
    Set-ups and ops rotate over the CPUs (see ``_on_cpu``); an untraced op
    and its traced twin share a CPU, and each input moves to the next CPU
    from one cycle to the next.
    """
    setup_times = []
    setup_dirs = []

    def set_up():
        # each repetition writes into a fresh directory and replaces the
        # workload's state with an identical one
        started = time.perf_counter()
        setup_dirs.append(tempfile.mkdtemp(prefix="setup-", dir=workdir))
        with _on_cpu(len(setup_times)):
            t0 = time.perf_counter()
            wl.setup(setup_dirs[-1])
            setup_times.append(time.perf_counter() - t0)
        if len(setup_dirs) > 1:
            shutil.rmtree(setup_dirs.pop(0))
        return time.perf_counter() - started

    set_up()
    inputs = list(wl.inputs())
    wl.collect(inputs[0], wl.run(inputs[0]))

    tap = spans.SpanRecorder() if wl.tap else None
    tracer = spans.SpanRecorder() if trace else None
    modes = (False, True) if trace else (False,)
    cycle = len(inputs) * len(modes)
    ops = []  # (input, traced, seconds, output or None, counters, error)
    loop_start = time.perf_counter()
    paused = 0.0  # time spent setting up inside the loop

    def elapsed():
        return time.perf_counter() - loop_start - paused

    # whole cycles only, so every input weighs the same in each figure
    while len(ops) < cycle or len(ops) % cycle or elapsed() < seconds:
        while ops and len(ops) % cycle == 0 and paused < SETUP_SHARE * elapsed():
            paused += set_up()
        i = inputs[len(ops) // len(modes) % len(inputs)]
        traced = modes[len(ops) % len(modes)]
        rec, targets = (tracer, spans.TARGETS) if traced else (tap, wl.tap)
        raw = error = None
        slot = len(ops) // len(modes) + len(ops) // cycle
        if rec is not None:
            rec.install(targets)
        try:
            with _on_cpu(slot):
                t0 = time.perf_counter()
                try:
                    with rec.root() if rec is not None else nullcontext():
                        raw = wl.run(i)
                except Exception:  # an op that raises counts as failed; the loop goes on
                    error = traceback.format_exc()
                t1 = time.perf_counter()
        finally:
            if rec is not None:
                rec.uninstall()
        counts = rec.op_counts(len(rec.ops) - 1) if rec is not None else {}
        ops.append((i, traced, t1 - t0, None if raw is None else wl.collect(i, raw), counts, error))
    loop_wall = elapsed()
    set_up()

    reference: dict = {}
    first_counts: dict = {}
    per_input: dict = {}
    problems = []
    for k, (i, traced, _, out, counts, error) in enumerate(ops):
        if out is None:
            problems.append((k, error))
            continue
        try:
            found = wl.check(i, out)
            digest = wl.digest(out)
            if digest != reference.setdefault(i, digest):
                found.append("output bytes differ from the input's first untraced output")
            if (i, traced) not in first_counts:
                first_counts[i, traced] = counts
                if not traced:
                    per_input[i] = (wl.edges_touched(out, counts), wl.density_ratio(out))
            elif counts != first_counts[i, traced]:
                found.append(f"counters {counts} differ from the first run's")
        except Exception:  # output too malformed to check counts as a failed op
            found = [traceback.format_exc()]
        if found:
            problems.append((k, "; ".join(found)))

    # with no checked output these stay 0, and the result reads incorrect
    edges = ratio = 0.0
    if per_input:
        edges = sum(e for e, _ in per_input.values()) / len(per_input)
        ratio = sum(r for _, r in per_input.values()) / len(per_input)
    plain = [t for _, traced, t, *_ in ops if not traced]
    tail, tail_pct, tail_beyond = spans.tail(plain)
    fig = {
        "setup_s": spans.median(setup_times),
        "setup_reps": len(setup_times),
        "op_p50_ms": 1000.0 * spans.median(plain),
        "op_tail_ms": 1000.0 * tail,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "ops_per_s": len(ops) / loop_wall,
        "edges_touched_per_op": edges,
        "density_ratio": ratio,
        "peak_rss_mb": _peak_rss_mb(),
        "samples_ms": [round(1000.0 * t, 3) for _, traced, t, *_ in ops if not traced],
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems,
    }
    if trace:
        traced_p50 = 1000.0 * spans.median([t for _, traced, t, *_ in ops if traced])
        fig["traced_op_p50_ms"] = traced_p50
        fig["tracing_overhead_ms"] = traced_p50 - fig["op_p50_ms"]
    return fig, tracer


def run_one(args) -> int:
    t0 = time.perf_counter()
    _import_package()
    spec = _spec()
    import workloads  # needs the package on the path

    import_s = time.perf_counter() - t0
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        fig, recorder = measure(wl, args.seconds, workdir, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    source = spans.summarize(recorder) if args.trace else fig
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    for k, problem in fig["problems"][:5]:
        sys.stderr.write(f"op {k} failed: {problem}\n")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "import_s": import_s,
        "fail_ratio": fig["failed"] / fig["attempted"],
        "absent": [m["name"] for m in wanted if m["name"] not in source],
        "missing_targets": recorder.missing if recorder is not None else [],
        "probe_errors": recorder.probe_errors if recorder is not None else {},
        **{key: fig[key] for key in fig if key != "problems"},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": fig["failed"] == 0,
        "attempted": fig["attempted"],
        "failed": fig["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# all workloads, untraced and traced


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace} exited with {proc.returncode}")
    return {"info": json.loads(lines[-2])["info"], **json.loads(lines[-1])}


def run_all(args) -> int:
    _import_package()
    spec = _spec()
    report = {"machine": _machine(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        plain = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        overhead = traced["info"]["tracing_overhead_ms"]
        report["workloads"][name] = {
            "untraced": plain,
            "traced": traced,
            "tracing_overhead_ms": overhead,
        }
        print(f"== {name}  ({plain['attempted']} ops, {plain['failed']} failed; "
              f"tail is p{plain['info']['tail_percentile']:.1f} with "
              f"{plain['info']['tail_beyond']} beyond)")
        for m in spec["end_to_end"]:
            print(f"  {m['name']:<22} {plain['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
        for key, unit in UNBOUNDED:
            print(f"  {key:<22} {plain['info'][key]:>14.6g} {unit} (no bound)")
        print(f"  {'tracing_overhead':<22} {overhead:>14.6g} ms (traced op_p50_ms "
              f"{traced['info']['traced_op_p50_ms']:.6g} vs untraced "
              f"{traced['info']['op_p50_ms']:.6g}, alternating in one run)")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"BENCH_seed{args.seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
