"""Edge-list files and line-delimited result documents.

Edge lists are whitespace-separated: left id, right id, optional weight
(default 1.0).  Lines starting with '#' and blank lines are skipped.  Result
documents are JSON, one object per line, with sorted keys so repeated runs
are byte-identical.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable

from .errors import ParseError
from .graph import BipartiteGraph, Subgraph, build_bipartite, from_directed, ratio_density
from .local import DensityResult

__all__ = [
    "load_edge_list",
    "parse_edge_lines",
    "save_edge_list",
    "result_record",
    "trace_records",
    "write_records",
]


def parse_edge_lines(lines: Iterable[str]):
    """Yield (left, right, weight) from edge-list text lines.

    Raises ParseError with a 1-based line number for malformed rows,
    non-numeric or non-finite weights, and negative weights.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 2:
            u, v = parts
            w = 1.0
        elif len(parts) == 3:
            u, v = parts[0], parts[1]
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(lineno, f"weight {parts[2]!r} is not a number") from None
            if not math.isfinite(w):
                raise ParseError(lineno, f"weight {parts[2]!r} is not finite")
            if w < 0:
                raise ParseError(lineno, f"negative weight {parts[2]!r}")
        else:
            raise ParseError(
                lineno, f"expected 2 or 3 whitespace-separated fields, got {len(parts)}"
            )
        yield u, v, w


def load_edge_list(path, mode: str = "bipartite") -> BipartiteGraph:
    """Read an edge-list file.

    mode "bipartite" keeps the two id columns as separate namespaces; mode
    "directed" treats rows as arcs of a directed graph and builds its
    bipartite form (every vertex appears on both sides).
    """
    if mode not in ("bipartite", "directed"):
        raise ParseError(0, f"unknown mode {mode!r}")
    build = from_directed if mode == "directed" else build_bipartite
    with open(path, "r", encoding="utf-8") as fh:
        return build(parse_edge_lines(fh))


def save_edge_list(g: BipartiteGraph, path) -> None:
    """Write the graph back out, one merged edge per line, sorted by index."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v, w in g.edges():
            lu = g.left_id(u)
            rv = g.right_id(v)
            lu_tok, rv_tok = str(lu), str(rv)
            if any(ch.isspace() for ch in lu_tok + rv_tok):
                raise ValueError(f"vertex id {lu!r} or {rv!r} contains whitespace")
            fh.write(f"{lu_tok} {rv_tok} {w!r}\n")


def _sorted_ids(ids):
    return sorted(ids, key=lambda tok: (str(type(tok).__name__), str(tok)))


def subgraph_record(g: BipartiteGraph, sub: Subgraph, kind: str) -> dict:
    """The fields every record of a vertex-set pair carries.

    Vertex sets are reported as sorted external ids.
    """
    left_ids = _sorted_ids(g.left_id(u) for u in sub.left)
    right_ids = _sorted_ids(g.right_id(v) for v in sub.right)
    return {
        "kind": kind,
        "S": left_ids,
        "T": right_ids,
        "S_size": len(left_ids),
        "T_size": len(right_ids),
        "edge_weight": sub.edge_weight,
        "density": sub.density,
    }


def result_record(g: BipartiteGraph, result: DensityResult, kind: str) -> dict:
    """Flatten one run result into a JSON-ready mapping.

    Vertex sets are reported as sorted external ids.  Wall-clock timing is
    deliberately absent: documents for identical inputs must be
    byte-identical.
    """
    sub = result.subgraph
    t, i, j = result.found_at
    return {
        **subgraph_record(g, sub, kind),
        "ratio_density": ratio_density(g, sub.left, sub.right),
        "t": t,
        "i": i,
        "j": j,
        "seed": result.start,
        "target_size": result.target_size,
        "bound_factor": result.bound,
        "bound_factor_eps": result.bound_eps,
        "edges_touched": result.edges_touched,
        "steps": result.steps,
    }


def trace_records(result: DensityResult) -> list:
    """Per-step trace rows for a result that kept its traces."""
    rows = []
    for trace in result.traces or ():
        for rec in trace.steps:
            rows.append(
                {
                    "kind": "trace-step",
                    "start": trace.start,
                    "t": rec.t,
                    "eps_t": rec.eps_t,
                    "eps_prune": rec.eps_prune,
                    "side": rec.x_side,
                    "x_norm": rec.x_norm,
                    "x_support": rec.x_support,
                    "pre_norm": rec.pre_norm,
                    "levels": rec.post_levels.level_count,
                    "max_pair_density": rec.max_pair_density,
                    "pruned_mass": rec.pruned_mass,
                    "pruned_count": rec.pruned_count,
                    "next_support": rec.next_support,
                    "next_norm": rec.next_norm,
                }
            )
    return rows


def write_records(records: Iterable[dict], stream: IO[str]) -> None:
    for rec in records:
        stream.write(json.dumps(rec, sort_keys=True) + "\n")
