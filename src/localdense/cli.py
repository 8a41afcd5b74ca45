"""Command-line interface.

Subcommands: stats, local, global, exact, scan, verify.  Results go to
stdout as line-delimited JSON (or to --out); timing and diagnostics go to
stderr.  Exit codes: 0 success, 1 usage error, 2 data error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import LocalDenseError, ParseError
from .generate import generate_planted
from .globalopt import global_density, global_guarantee_bound
from .io import (
    load_edge_list,
    result_record,
    save_edge_list,
    subgraph_record,
    trace_records,
    write_records,
)
from .local import local_density, seed_scan
from .oracle import exact_densest, top_eigenvalue
from .verify import PROPERTY_NAMES, exit_code, run_verification

USAGE_EXIT = 1
DATA_EXIT = 2
VERIFY_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(USAGE_EXIT)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(f"# {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="localdense",
        description="Dense subgraph discovery on weighted bipartite graphs.",
        epilog="verify properties: " + ", ".join(PROPERTY_NAMES),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("graph", help="edge-list file: left right [weight]")
        p.add_argument(
            "--directed",
            action="store_true",
            help="treat rows as arcs and analyze the bipartite form",
        )
        p.add_argument("--out", help="write records here instead of stdout")

    p = sub.add_parser("stats", help="basic size and degree numbers")
    add_common(p)

    p = sub.add_parser("local", help="grow a dense subgraph from one seed")
    add_common(p)
    p.add_argument("--seed", required=True, help="seed vertex id")
    p.add_argument(
        "--side", choices=["L", "R"], help="which side the seed id lives on"
    )
    p.add_argument(
        "--target-size",
        type=int,
        required=True,
        help="size the guarantee speaks about",
    )
    p.add_argument("--trace", action="store_true", help="also emit per-step records")

    p = sub.add_parser("global", help="whole-graph search from both sides")
    add_common(p)
    p.add_argument("--trace", action="store_true", help="also emit per-step records")

    p = sub.add_parser("exact", help="brute-force optimum (small graphs)")
    add_common(p)
    p.add_argument("--side-cap", type=int, default=20, help="enumeration cap per side")

    p = sub.add_parser("scan", help="run the local search from many seeds")
    add_common(p)
    p.add_argument(
        "--seeds",
        required=True,
        help="'all' or a file with one seed id per line (prefix 'L:' or 'R:' to pin a side)",
    )
    p.add_argument("--target-size", type=int, required=True)
    p.add_argument("--top", type=int, default=10, help="how many results to keep")

    p = sub.add_parser("verify", help="self-check suite; fails with exit code 3")
    add_common(p)
    p.add_argument("--theta", type=float, help="density threshold for planted checks")
    p.add_argument(
        "--planted",
        nargs=2,
        metavar=("S_FILE", "T_FILE"),
        help="files naming a known dense block, one id per line",
    )
    p.add_argument("--side-cap", type=int, default=20)
    p.add_argument("--target-size", type=int, default=8)

    p = sub.add_parser("generate", help="write a planted benchmark graph")
    p.add_argument("out", help="edge-list file to write")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--noise", type=int, required=True)
    p.add_argument("--block", nargs=2, type=int, metavar=("A", "B"), required=True)
    p.add_argument("--factor", type=float, default=1.0)
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--isolate-block", action="store_true")
    return parser


def _load(args):
    mode = "directed" if getattr(args, "directed", False) else "bipartite"
    return load_edge_list(args.graph, mode)


def _write_out(records, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            write_records(records, fh)
    else:
        write_records(records, sys.stdout)


def _read_ids(path):
    """One id per line, stripped; blank lines and '#' comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        return [tok for tok in map(str.strip, fh) if tok and not tok.startswith("#")]


def _read_seeds(path):
    """_read_ids, with an 'L:' or 'R:' prefix pinning a seed to a side."""
    return [(tok[2:], tok[0]) if tok[:2] in ("L:", "R:") else tok for tok in _read_ids(path)]


def _cmd_stats(args) -> int:
    g = _load(args)
    record = {
        "kind": "stats",
        "vertices": g.vertex_count,
        "left": g.left_count,
        "right": g.right_count,
        "edge_weight": g.total_weight,
        "max_degree": g.max_degree,
        "max_fanout": g.max_fanout,
        "avg_degree": 2.0 * g.total_weight / g.vertex_count,
    }
    _write_out([record], args)
    return 0


def _cmd_local(args) -> int:
    g = _load(args)
    t0 = time.perf_counter()
    res = local_density(g, args.seed, args.target_size, args.side, keep_trace=args.trace)
    _note(f"wall_time_ms={1000.0 * (time.perf_counter() - t0):.3f}")
    records = [result_record(g, res, "local")]
    if args.trace:
        records.extend(trace_records(res))
    _write_out(records, args)
    return 0


def _cmd_global(args) -> int:
    g = _load(args)
    t0 = time.perf_counter()
    res = global_density(g, keep_trace=args.trace)
    est = top_eigenvalue(g)
    _note(f"wall_time_ms={1000.0 * (time.perf_counter() - t0):.3f}")
    records = [result_record(g, res, "global")]
    bound_rec = {
        "kind": "global-bound",
        "eigenvalue_estimate": est.value,
        "residual": est.residual,
        "converged": est.converged,
        "guarantee": (
            global_guarantee_bound(est.value, g.vertex_count)
            if est.value > 0 and g.vertex_count >= 2
            else None
        ),
    }
    records.append(bound_rec)
    if args.trace:
        records.extend(trace_records(res))
    _write_out(records, args)
    return 0


def _cmd_exact(args) -> int:
    g = _load(args)
    t0 = time.perf_counter()
    sub = exact_densest(g, args.side_cap)
    _note(f"wall_time_ms={1000.0 * (time.perf_counter() - t0):.3f}")
    _write_out([subgraph_record(g, sub, "exact")], args)
    return 0


def _cmd_scan(args) -> int:
    g = _load(args)
    if args.seeds == "all":
        seeds = [(g.left_id(u), "L") for u in range(g.left_count)]
        seeds += [(g.right_id(v), "R") for v in range(g.right_count)]
    else:
        seeds = _read_seeds(args.seeds)
    t0 = time.perf_counter()
    outcome = seed_scan(g, seeds, args.target_size, args.top)
    _note(f"wall_time_ms={1000.0 * (time.perf_counter() - t0):.3f}")
    records = [result_record(g, res, "local") for res in outcome.results]
    for failure in outcome.failures:
        records.append(
            {
                "kind": "seed-failure",
                "seed": str(failure.seed),
                "reason": failure.kind,
                "message": failure.message,
            }
        )
    _write_out(records, args)
    return 0


def _cmd_verify(args) -> int:
    g = _load(args)
    planted = None
    if args.planted:
        planted = (_read_ids(args.planted[0]), _read_ids(args.planted[1]))
    results = run_verification(
        g,
        density_threshold=args.theta,
        planted=planted,
        side_cap=args.side_cap,
        target_size=args.target_size,
    )
    for r in results:
        print(f"{r.status.upper():4s} {r.name}: {r.detail}")
    if args.out:
        records = [
            {"kind": "verify", "property": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ]
        with open(args.out, "w", encoding="utf-8") as fh:
            write_records(records, fh)
    code = exit_code(results)
    if code:
        _emit_error(
            "verification",
            "; ".join(r.name for r in results if r.status == "fail"),
        )
    return code


def _cmd_generate(args) -> int:
    g, left_set, right_set = generate_planted(
        args.left,
        args.right,
        args.noise,
        args.block[0],
        args.block[1],
        args.factor,
        args.rng_seed,
        args.isolate_block,
    )
    save_edge_list(g, args.out)
    _note(f"planted_left={sorted(g.left_id(u) for u in left_set)}")
    _note(f"planted_right={sorted(g.right_id(v) for v in right_set)}")
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "local": _cmd_local,
    "global": _cmd_global,
    "exact": _cmd_exact,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        _emit_error("parse", str(exc))
        return DATA_EXIT
    except LocalDenseError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return DATA_EXIT
    except OSError as exc:
        _emit_error("io", str(exc))
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
