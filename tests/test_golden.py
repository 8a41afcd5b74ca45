"""Golden CLI documents: fixed inputs, outputs pinned to the bit.

tests/golden/ holds two inputs and the documents each case wrote when the
expected files were made.  weighted.txt is a bipartite graph whose weights
are dyadic, so every sum is exact on any platform, with duplicate and
zero-weight rows; directed.txt is a directed graph with zero-weight arcs.
weighted-planted-left.txt and weighted-planted-right.txt name the verify
case's planted block, the exact optimum of weighted.txt.  Every JSON line is
compared exactly, with three exceptions: the global-bound record is dropped
and only the status of the spectral-dominance verify record is compared,
because the eigenvalue and residual come from a Lanczos run that goes
through BLAS, and the two bound factors go through the platform's log2, so
they are compared to 1e-15 relative.  The generate case compares the edge
list it writes.
"""

import json
import math
from pathlib import Path

import pytest

from localdense.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "weighted-stats": ["stats", "weighted.txt"],
    "weighted-local": ["local", "weighted.txt", "--seed", "a0", "--target-size", "4", "--trace"],
    "weighted-global": ["global", "weighted.txt", "--trace"],
    "weighted-scan": ["scan", "weighted.txt", "--seeds", "all", "--target-size", "4"],
    "weighted-exact": ["exact", "weighted.txt"],
    "weighted-verify": [
        "verify", "weighted.txt", "--planted",
        str(GOLDEN / "weighted-planted-left.txt"), str(GOLDEN / "weighted-planted-right.txt"),
    ],
    "directed-stats": ["stats", "directed.txt", "--directed"],
    "directed-local": [
        "local", "directed.txt", "--directed", "--seed", "v1", "--side", "R",
        "--target-size", "3", "--trace",
    ],
    "directed-global": ["global", "directed.txt", "--directed", "--trace"],
    "directed-scan": [
        "scan", "directed.txt", "--directed", "--seeds", "all", "--target-size", "3",
    ],
    "directed-exact": ["exact", "directed.txt", "--directed"],
}

GENERATE = [
    "--left", "40", "--right", "30", "--noise", "150", "--block", "4", "5",
    "--factor", "0.8", "--rng-seed", "5", "--isolate-block",
]

# computed through math.log2, which the platform's libm supplies
_LOG_FIELDS = ("bound_factor", "bound_factor_eps")


def run_case(args, out):
    """Run one case with its input taken from tests/golden/, writing to out."""
    return main([args[0], str(GOLDEN / args[1]), *args[2:], "--out", str(out)])


def _records(text):
    records = [json.loads(line) for line in text.splitlines()]
    for rec in records:
        if rec.get("property") == "spectral-dominance":
            del rec["detail"]
    return [rec for rec in records if rec["kind"] != "global-bound"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    out = tmp_path / "out.jsonl"
    assert run_case(CASES[name], out) == 0
    got = _records(out.read_text())
    want = _records((GOLDEN / f"{name}.jsonl").read_text())
    assert len(got) == len(want)
    for g_rec, w_rec in zip(got, want):
        for key in _LOG_FIELDS:
            g_val, w_val = g_rec.pop(key, None), w_rec.pop(key, None)
            if w_val is None:
                assert g_val is None
            else:
                assert math.isclose(g_val, w_val, rel_tol=1e-15, abs_tol=0.0)
        assert g_rec == w_rec


def test_golden_generate(tmp_path):
    out = tmp_path / "planted.txt"
    assert main(["generate", str(out), *GENERATE]) == 0
    assert out.read_text() == (GOLDEN / "generate.txt").read_text()
