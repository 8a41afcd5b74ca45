import json
import math
import shutil
import subprocess
import sys

import pytest

from localdense import cli
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


def test_stats_are_strict_json(tmp_path):
    # twice the total weight overflows, the average degree does not
    path = tmp_path / "big.txt"
    path.write_text("a x 1e308\nb y 1\n")
    proc = run_cli("stats", str(path))
    assert proc.returncode == 0

    def reject(name):
        raise ValueError(f"non-finite constant {name}")

    (line,) = proc.stdout.splitlines()
    rec = json.loads(line, parse_constant=reject)
    assert rec["avg_degree"] == 5e307


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


def test_seed_file_with_byte_order_mark(block_file, tmp_path):
    # the mark is not part of the first seed's id
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):
        seeds = tmp_path / f"{encoding}.txt"
        seeds.write_text("l1\n", encoding=encoding)
        runs.append(run_cli("scan", str(block_file), "--seeds", str(seeds), "--target-size", "3"))
    plain, marked = runs
    assert marked.returncode == 0
    assert [(r["kind"], r["seed"]) for r in parse_stdout(marked)] == [("local", "seed:L:l1")]
    assert marked.stdout == plain.stdout


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


def test_verify_failures_exit_three_with_one_error_record(block_file, monkeypatch, capsys):
    results = [
        PropertyResult("support-bound", "pass", "ok"),
        PropertyResult("growth-cap", "fail", "one violation"),
        PropertyResult("exact-agreement", "fail", "above the optimum"),
    ]
    monkeypatch.setattr(cli, "run_verification", lambda *args, **kwargs: results)
    assert cli.main(["verify", str(block_file)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in err] == [
        {"error": {"kind": "verification", "message": "growth-cap; exact-agreement"}}
    ]


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


def test_target_size_past_the_float_range_is_a_domain_error(block_file):
    proc = run_cli("verify", str(block_file), "--target-size", str(10**110))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"]["kind"] == "DomainError"


@pytest.mark.parametrize("command", ["stats", "scan", "verify"])
def test_files_that_are_not_utf8_exit_two(block_file, tmp_path, command):
    # the message names the bad file, and not verify's good planted file
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a x 1\n\xff\xfe y 2\n")
    good = tmp_path / "good.txt"
    good.write_text("l0\n")
    args = {
        "stats": ("stats", str(bad)),
        "scan": ("scan", str(block_file), "--seeds", str(bad), "--target-size", "2"),
        "verify": ("verify", str(block_file), "--planted", str(good), str(bad)),
    }[command]
    proc = run_cli(*args)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["kind"] == "io"
    assert repr(str(bad)) in error["message"]
    assert str(good) not in error["message"]


def test_overflowing_weights_are_data_errors(tmp_path):
    # a finite weight whose products pass the float range is data like any
    # other: each vector is held at its own scale, and the level exponents
    # carry the rest
    huge = tmp_path / "huge.txt"
    huge.write_text("a x 1e200\n")
    for args, kind in ((("local", "--seed", "a", "--target-size", "4"), "local"), (("global",), "global")):
        proc = run_cli(args[0], str(huge), *args[1:])
        assert proc.returncode == 0
        (record,) = [r for r in parse_stdout(proc) if r["kind"] == kind]
        assert (record["density"], record["t"], record["i"], record["j"]) == (1e200, 0, 0, 665)
    # finite duplicate rows whose merged weight would overflow, and rows
    # whose sum is finite but one vertex's weighted degree is not, each end
    # in one typed error line
    merged = tmp_path / "merged.txt"
    merged.write_text("a x 1e308\na x 1e308\nb y 1.0\n")
    degree = tmp_path / "degree.txt"
    rows = [f"a{k} v {2.0**968!r}" for k in range(1, 5)] + [f"a8 v {sys.float_info.max!r}"]
    rows += [f"{u} w 1.0" for u in ("a0", "a5", "a6", "a7", *(f"b{k}" for k in range(7)))]
    degree.write_text("\n".join(sorted(rows)) + "\n")
    for path, args, kind in (
        (degree, ("stats",), "NegativeWeight"),
        (degree, ("global",), "NegativeWeight"),
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
    # the seeds whose products pass the float range find their pair like
    # any other: no seed fails
    graph = tmp_path / "huge.txt"
    graph.write_text("a x 1e300\nb x 1e300\nc y 1.0\n")
    proc = run_cli("scan", str(graph), "--seeds", "all", "--target-size", "4")
    assert proc.returncode == 0
    records = parse_stdout(proc)
    # b's and x's pair is a's, and y's is c's, so they are deduplicated away
    assert [(r["kind"], r["seed"], r["S"], r["T"]) for r in records] == [
        ("local", "seed:L:a", ["a", "b"], ["x"]),
        ("local", "seed:L:c", ["c"], ["y"]),
    ]
    assert records[0]["density"] == 2e300 / math.sqrt(2)
    assert (records[0]["t"], records[0]["i"], records[0]["j"]) == (1, 997, 1994)


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
