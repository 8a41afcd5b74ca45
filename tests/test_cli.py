import json
import math
import shutil
import subprocess
import sys

import pytest

from localdense.verify import PropertyResult, exit_code


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "localdense", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def parse_stdout(proc):
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


@pytest.fixture
def block_file(tmp_path):
    path = tmp_path / "block.txt"
    rows = [f"l{i} r{j} 1.0" for i in range(2) for j in range(3)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_stats_command(block_file):
    proc = run_cli("stats", str(block_file))
    assert proc.returncode == 0
    (rec,) = parse_stdout(proc)
    assert rec["kind"] == "stats"
    assert rec["vertices"] == 5
    assert rec["left"] == 2 and rec["right"] == 3
    assert rec["edge_weight"] == 6.0
    assert rec["max_degree"] == 3.0
    assert rec["max_fanout"] == 3
    assert rec["avg_degree"] == 2.4

def test_local_command_deterministic_output(block_file):
    runs = [run_cli("local", str(block_file), "--seed", "l0", "--target-size", "3") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0
        assert "# wall_time_ms=" in proc.stderr
        assert "wall_time" not in proc.stdout
    assert runs[0].stdout == runs[1].stdout
    (rec,) = parse_stdout(runs[0])
    assert rec["kind"] == "local"
    assert rec["density"] == pytest.approx(math.sqrt(6))
    assert rec["S"] == ["l0", "l1"]
    assert rec["T"] == ["r0", "r1", "r2"]


def test_local_trace_and_side(block_file):
    proc = run_cli(
        "local",
        str(block_file),
        "--seed",
        "r1",
        "--side",
        "R",
        "--target-size",
        "3",
        "--trace",
    )
    assert proc.returncode == 0
    records = parse_stdout(proc)
    assert records[0]["seed"] == "seed:R:r1"
    steps = [r for r in records[1:] if r["kind"] == "trace-step"]
    assert len(steps) == records[0]["steps"]
    assert all(r["eps_prune"] < r["eps_t"] for r in steps)


def test_global_command(block_file):
    proc = run_cli("global", str(block_file))
    assert proc.returncode == 0
    main_rec, bound_rec = parse_stdout(proc)
    assert main_rec["kind"] == "global"
    assert main_rec["density"] == pytest.approx(math.sqrt(6))
    assert bound_rec["kind"] == "global-bound"
    assert bound_rec["eigenvalue_estimate"] == pytest.approx(math.sqrt(6), rel=1e-9)
    assert bound_rec["converged"] is True
    assert main_rec["density"] >= bound_rec["guarantee"] - 1e-12


def test_exact_command(block_file):
    proc = run_cli("exact", str(block_file))
    assert proc.returncode == 0
    (rec,) = parse_stdout(proc)
    assert rec["kind"] == "exact"
    assert rec["density"] == pytest.approx(math.sqrt(6))
    assert rec["S"] == ["l0", "l1"]


def test_out_writes_file_instead_of_stdout(block_file, tmp_path):
    out = tmp_path / "res.jsonl"
    proc = run_cli("exact", str(block_file), "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    (rec,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert rec["kind"] == "exact"


def test_directed_flag(tmp_path):
    path = tmp_path / "arcs.txt"
    path.write_text("a b\nb c\nc a\n")
    proc = run_cli("stats", str(path), "--directed")
    (rec,) = parse_stdout(proc)
    assert rec["vertices"] == 6
    proc2 = run_cli("stats", str(path))
    (rec2,) = parse_stdout(proc2)
    assert rec2["vertices"] == 6
    assert rec2["left"] == 3 and rec2["right"] == 3


def test_scan_all_recovers_planted_block(tmp_path):
    graph = tmp_path / "planted.txt"
    gen = run_cli(
        "generate",
        str(graph),
        "--left",
        "30",
        "--right",
        "30",
        "--noise",
        "60",
        "--block",
        "4",
        "4",
        "--rng-seed",
        "5",
    )
    assert gen.returncode == 0
    assert "planted_left=" in gen.stderr
    proc = run_cli(
        "scan", str(graph), "--seeds", "all", "--target-size", "4", "--top", "3"
    )
    assert proc.returncode == 0
    records = parse_stdout(proc)
    assert records[0]["kind"] == "local"
    assert records[0]["density"] == pytest.approx(4.0)


def test_scan_seed_file_with_failures(block_file, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("# seeds\nl0\nR:r2\nmissing\n")
    proc = run_cli("scan", str(block_file), "--seeds", str(seeds), "--target-size", "3")
    assert proc.returncode == 0
    records = parse_stdout(proc)
    kinds = [r["kind"] for r in records]
    assert kinds.count("seed-failure") == 1
    failure = records[kinds.index("seed-failure")]
    assert failure["seed"] == "missing"
    assert failure["reason"] == "UnknownVertex"


def test_generate_deterministic_bytes(tmp_path):
    paths = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path / name
        proc = run_cli(
            "generate",
            str(path),
            "--left",
            "20",
            "--right",
            "20",
            "--noise",
            "30",
            "--block",
            "3",
            "3",
            "--rng-seed",
            "9",
        )
        assert proc.returncode == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_command_passes_on_planted_graph(tmp_path):
    graph = tmp_path / "v.txt"
    run_cli(
        "generate",
        str(graph),
        "--left",
        "25",
        "--right",
        "25",
        "--noise",
        "40",
        "--block",
        "4",
        "4",
        "--rng-seed",
        "2",
    )
    out = tmp_path / "verify.jsonl"
    proc = run_cli("verify", str(graph), "--target-size", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 10
    assert all(line.startswith(("PASS", "SKIP")) for line in lines)
    assert sum(line.startswith("PASS") for line in lines) >= 7
    records = [json.loads(l) for l in out.read_text().splitlines()]
    assert all(r["kind"] == "verify" for r in records)


def test_planted_files_skip_indented_comments(block_file, tmp_path):
    plain, commented = [], []
    for name, ids in (("s", ["l0", "l1"]), ("t", ["r0", "r1", "r2"])):
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(f"{tok}\n" for tok in ids))
        plain.append(str(path))
        path = tmp_path / f"{name}_commented.txt"
        path.write_text("  # block rows\n" + "".join(f" {tok} \n" for tok in ids))
        commented.append(str(path))
    want = run_cli("verify", str(block_file), "--planted", *plain)
    assert want.returncode in (0, 3), want.stderr
    got = run_cli("verify", str(block_file), "--planted", *commented)
    assert (got.returncode, got.stdout) == (want.returncode, want.stdout)


def test_usage_errors_exit_one(block_file):
    proc = run_cli()
    assert proc.returncode == 1
    err = json.loads(proc.stderr.splitlines()[-1])["error"]
    assert err["kind"] == "usage"
    proc2 = run_cli("local", str(block_file), "--seed", "l0")
    assert proc2.returncode == 1
    proc3 = run_cli("frobnicate")
    assert proc3.returncode == 1


def test_data_errors_exit_two(block_file, tmp_path):
    proc = run_cli("local", str(tmp_path / "missing.txt"), "--seed", "a", "--target-size", "2")
    assert proc.returncode == 2
    err = json.loads(proc.stderr.splitlines()[-1])["error"]
    assert err["kind"] == "io"

    proc2 = run_cli("local", str(block_file), "--seed", "ghost", "--target-size", "2")
    assert proc2.returncode == 2
    err2 = json.loads(proc2.stderr.splitlines()[-1])["error"]
    assert err2["kind"] == "UnknownVertex"

    bad = tmp_path / "bad.txt"
    bad.write_text("a b weight\n")
    proc3 = run_cli("stats", str(bad))
    assert proc3.returncode == 2
    err3 = json.loads(proc3.stderr.splitlines()[-1])["error"]
    assert err3["kind"] == "parse"
    assert "line 1" in err3["message"]


def test_overflowing_weights_are_data_errors(tmp_path):
    # a finite weight whose products overflow, and finite duplicate rows
    # whose merged weight would, each end in one typed error line
    huge = tmp_path / "huge.txt"
    huge.write_text("a x 1e200\n")
    merged = tmp_path / "merged.txt"
    merged.write_text("a x 1e308\na x 1e308\nb y 1.0\n")
    for path, args, kind in (
        (huge, ("local", "--seed", "a", "--target-size", "4"), "NegativeEntry"),
        (huge, ("global",), "NegativeEntry"),
        (merged, ("stats",), "NegativeWeight"),
        (merged, ("stats", "--directed"), "NegativeWeight"),
        (merged, ("local", "--seed", "a", "--target-size", "2"), "NegativeWeight"),
    ):
        proc = run_cli(args[0], str(path), *args[1:])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        # no numpy warning either
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"]["kind"] == kind


def test_scan_reports_overflowing_seeds(tmp_path):
    graph = tmp_path / "huge.txt"
    graph.write_text("a x 1e300\nb x 1e300\nc y 1.0\n")
    proc = run_cli("scan", str(graph), "--seeds", "all", "--target-size", "4")
    assert proc.returncode == 0
    records = parse_stdout(proc)
    # y's pair is c's, so it is deduplicated away
    assert records[0]["kind"] == "local"
    assert records[0]["seed"] == "seed:L:c"
    assert [(r["kind"], r["seed"], r["reason"]) for r in records[1:]] == [
        ("seed-failure", f"{seed!r}", "NegativeEntry")
        for seed in (("a", "L"), ("b", "L"), ("x", "R"))
    ]


def test_verification_failures_use_exit_three():
    results = [
        PropertyResult("support-bound", "pass", "ok"),
        PropertyResult("growth-cap", "fail", "exceeded"),
    ]
    assert exit_code(results) == 3
    assert exit_code(results[:1]) == 0


@pytest.mark.skipif(shutil.which("localdense") is None, reason="entry point not on PATH")
def test_console_script(block_file):
    proc = subprocess.run(
        ["localdense", "stats", str(block_file)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    (rec,) = parse_stdout(proc)
    assert rec["kind"] == "stats"
