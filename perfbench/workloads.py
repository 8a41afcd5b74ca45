"""The benchmark's workloads: inputs made from a seed, one timed op, checks.

Each workload is built from the workload seed alone.  ``setup`` makes the
graphs and writes any files the op reads into a fresh directory it is
given (overwriting files in place made set-up times erratic on ext4);
``inputs`` lists the distinct op inputs, which the runner cycles through;
``run`` is the timed op, calling only the package's public entry points;
``collect`` gathers the op's output outside the timed region; ``check``
returns the problems found in one output; ``digest`` gives the bytes that
must repeat exactly for a given input.

Why these two workloads, and which layer each metric belongs to, is in
README.md beside this file.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout

import localdense
from localdense import cli
from localdense.verify import PROPERTY_NAMES


def _result_lines(g, results) -> bytes:
    return b"".join(
        (json.dumps(localdense.result_record(g, res, "local"), sort_keys=True) + "\n").encode()
        for res in results
    )


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class LocalScan:
    """seed_scan over batches of about 100 seeds on a large in-memory graph."""

    name = "local-scan"
    # the results carry edges_touched only for the top_n that survive dedup
    # and ranking, so the work of every growth run is read from a wrapper;
    # about a hundred calls per op
    tap = ("localdense.growth:run_pruned_growth",)
    top_n = 10
    parallel = 2  # what the CLI's default --parallel 0 gives on two cores
    # each batch holds seeds inside the planted block, and growth from them
    # finds most of it: 0.85 to 0.96 of its density over 19 seeds
    planted_share = 0.5

    def __init__(self, seed, side=100_000, noise=1_000_000, block=16,
                 factor=0.75, batches=8, background=90, planted=10,
                 target_size=32):
        self.seed = seed
        self.side, self.noise, self.block, self.factor = side, noise, block, factor
        self.batch_count, self.background, self.planted_seeds = batches, background, planted
        self.target_size = target_size

    def setup(self, workdir) -> None:
        self.g = None  # let the previous repetition's graph go first
        g, left, right = localdense.generate_planted(
            self.side, self.side, self.noise, self.block, self.block,
            self.factor, rng_seed=self.seed,
        )
        rng = random.Random(f"local-scan-batches-{self.seed}")
        planted = [(g.left_id(u), "L") for u in sorted(left)]
        planted += [(g.right_id(v), "R") for v in sorted(right)]
        self.batches = []
        for _ in range(self.batch_count):
            batch = rng.sample(planted, self.planted_seeds)
            for k in range(self.background):
                if k % 2 == 0:
                    batch.append((g.left_id(rng.randrange(g.left_count)), "L"))
                else:
                    batch.append((g.right_id(rng.randrange(g.right_count)), "R"))
            rng.shuffle(batch)
            self.batches.append(batch)
        self.planted = localdense.density(g, left, right)
        self.floor = localdense.local_guarantee_bound(
            self.planted.density / 2.0, max(g.max_degree, 1.0), self.target_size
        )
        self.g = g

    def inputs(self):
        return range(self.batch_count)

    def run(self, i):
        return localdense.seed_scan(
            self.g, self.batches[i], self.target_size, self.top_n, self.parallel
        )

    def collect(self, i, out):
        return out

    def check(self, i, out) -> list:
        problems = []
        if out.failures:
            problems.append(f"{len(out.failures)} seeds failed")
        if not out.results:
            return problems + ["no results"]
        for res in out.results:
            sub = res.subgraph
            again = localdense.density(self.g, sub.left, sub.right)
            if not (_same(again.edge_weight, sub.edge_weight) and _same(again.density, sub.density)):
                problems.append(
                    f"{res.start}: reported weight/density {sub.edge_weight}/{sub.density}, "
                    f"re-measured {again.edge_weight}/{again.density}"
                )
        best = out.results[0].density
        if best < self.floor:
            problems.append(f"best density {best} below the local guarantee {self.floor}")
        # the guarantee is about 0.005 of the planted density here, below any
        # single edge, so it cannot fail; this share can
        if best < self.planted_share * self.planted.density:
            problems.append(
                f"best density {best} below {self.planted_share} of the planted "
                f"pair's {self.planted.density}"
            )
        return problems

    def digest(self, out) -> bytes:
        return _result_lines(self.g, out.results)

    def edges_touched(self, out, counts) -> int:
        return counts["growth.edges_touched"]

    def density_ratio(self, out) -> float:
        return out.results[0].density / self.planted.density


_DETAIL = {
    "best": re.compile(r"best density (\S+) vs eigenvalue"),
    "exact": re.compile(r"exact optimum (\S+) dominates"),
}


class Certify:
    """CLI ``verify`` with a planted block on graphs with a 14-vertex side."""

    name = "certify"
    # verify prints no work counts, so edges touched are read from the
    # results of the growth runs it makes; about twenty calls per op
    tap = ("localdense.growth:run_pruned_growth",)

    def __init__(self, seed, graphs=4, left=14, right=1000, noise=4000,
                 block=(12, 40), factor=0.5, target_size=16):
        self.seed, self.graph_count = seed, graphs
        self.left, self.right, self.noise = left, right, noise
        self.block, self.factor, self.target_size = block, factor, target_size

    def setup(self, workdir) -> None:
        self.argvs = []
        self.workdir, self.ops = workdir, 0
        for j in range(self.graph_count):
            g, left, right = localdense.generate_planted(
                self.left, self.right, self.noise, self.block[0], self.block[1],
                self.factor, rng_seed=self.seed * 1000 + j,
            )
            path = os.path.join(workdir, f"certify-{j}.txt")
            localdense.save_edge_list(g, path)
            planted = []
            for side, ids in (("S", [g.left_id(u) for u in sorted(left)]),
                              ("T", [g.right_id(v) for v in sorted(right)])):
                planted.append(os.path.join(workdir, f"certify-{j}-{side}.txt"))
                with open(planted[-1], "w", encoding="utf-8") as fh:
                    fh.writelines(f"{tok}\n" for tok in ids)
            theta = localdense.density(g, left, right).density / 2.0
            self.argvs.append([
                "verify", path, "--theta", repr(theta), "--planted", *planted,
                "--target-size", str(self.target_size),
            ])

    def inputs(self):
        return range(self.graph_count)

    def run(self, i):
        # the records go to a new file each time, as a user would write them
        self.ops += 1
        out_path = os.path.join(self.workdir, f"out-{self.ops}.jsonl")
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(self.argvs[i] + ["--out", out_path])
        return code, stdout.getvalue(), out_path

    def collect(self, i, raw):
        code, text, out_path = raw
        with open(out_path, "rb") as fh:
            data = fh.read()
        os.remove(out_path)
        return code, text, data

    def _statuses(self, text) -> dict:
        out = {}
        for line in text.splitlines():
            status, _, rest = line.partition(" ")
            name, _, detail = rest.strip().partition(": ")
            out[name] = (status, detail)
        return out

    def check(self, i, out) -> list:
        code, text, data = out
        problems = [] if code == 0 else [f"exit code {code}"]
        statuses = self._statuses(text)
        names = set(PROPERTY_NAMES)
        if set(statuses) != names:
            problems.append(f"properties {sorted(statuses)} are not {sorted(names)}")
        problems += [
            f"{name}: {status} {detail}"
            for name, (status, detail) in sorted(statuses.items())
            if status != "PASS"
        ]
        try:
            records = [json.loads(line) for line in data.decode().splitlines()]
        except ValueError as exc:
            return problems + [f"records do not parse: {exc}"]
        written = {
            r.get("property"): (str(r.get("status", "")).upper(), r.get("detail"))
            for r in records if r.get("kind") == "verify"
        }
        if len(records) != len(statuses) or written != statuses:
            problems.append("the records written differ from the lines printed")
        return problems

    def digest(self, out) -> bytes:
        code, text, data = out
        return f"{code}\n{text}".encode() + data

    def edges_touched(self, out, counts) -> int:
        return counts["growth.edges_touched"]

    def density_ratio(self, out) -> float:
        statuses = self._statuses(out[1])
        best = float(_DETAIL["best"].match(statuses["spectral-dominance"][1]).group(1))
        exact = float(_DETAIL["exact"].match(statuses["exact-agreement"][1]).group(1))
        return best / exact


WORKLOADS = {w.name: w for w in (LocalScan, Certify)}
