import io
import json
import math

import numpy as np
import pytest

from localdense import (
    DomainError,
    ParseError,
    build_bipartite,
    density,
    generate_planted,
    global_density,
    load_edge_list,
    local_density,
    result_record,
    save_edge_list,
    trace_records,
    write_records,
)
from localdense.io import parse_edge_lines

from conftest import k_ab


def test_parse_edge_lines_basic():
    text = [
        "# header comment",
        "",
        "a x 2.0",
        "b y",
        "  c z 0.5  ",
    ]
    rows = list(parse_edge_lines(text))
    assert rows == [("a", "x", 2.0), ("b", "y", 1.0), ("c", "z", 0.5)]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("a", "expected 2 or 3"),
        ("a b c d", "expected 2 or 3"),
        ("a b three", "not a number"),
        ("a b nan", "not finite"),
        ("a b inf", "not finite"),
        ("a b -1", "negative"),
    ],
)
def test_parse_edge_lines_errors(line, fragment):
    with pytest.raises(ParseError) as exc:
        list(parse_edge_lines(["# ok", line]))
    assert exc.value.line == 2
    assert fragment in str(exc.value)


def test_load_save_round_trip(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("# demo\nb y 2.0\na x\na x 0.5\n")
    g = load_edge_list(src)
    assert g.total_weight == 3.5
    out = tmp_path / "out.txt"
    save_edge_list(g, out)
    h = load_edge_list(out)
    assert sorted(
        (g.left_id(u), g.right_id(v), w) for u, v, w in g.edges()
    ) == sorted((h.left_id(u), h.right_id(v), w) for u, v, w in h.edges())


def test_load_directed_mode(tmp_path):
    src = tmp_path / "d.txt"
    src.write_text("a b\nb c\nc a\n")
    g = load_edge_list(src, mode="directed")
    assert g.vertex_count == 6
    with pytest.raises(DomainError, match="mystery"):
        load_edge_list(src, mode="mystery")


def test_save_rejects_ids_with_whitespace(tmp_path):
    bad = build_bipartite([("a b", "x", 1.0)])
    with pytest.raises(ValueError):
        save_edge_list(bad, tmp_path / "bad.txt")


@pytest.mark.parametrize(
    "left, right",
    [("", "x"), ("#a", "x"), ("a", "#x"), ("a b", "x"), ("a", "x\ty")],
)
def test_save_rejects_unreadable_ids_before_writing(tmp_path, left, right):
    # an empty id shifts the columns, a '#' id reads back as a comment, and
    # whitespace splits the id: each would load as a different graph
    bad = build_bipartite([("a0", "x0", 1.0), (left, right, 2.0)])
    path = tmp_path / "bad.txt"
    with pytest.raises(ValueError):
        save_edge_list(bad, path)
    assert not path.exists()


def test_result_record_recomputes(star4):
    res = local_density(star4, "c", target_size=4)
    rec = result_record(star4, res, "local")
    assert rec["kind"] == "local"
    assert rec["S"] == ["c"]
    assert rec["T"] == ["w", "x", "y", "z"]
    assert rec["S_size"] == 1 and rec["T_size"] == 4
    assert rec["density"] == pytest.approx(
        rec["edge_weight"] / math.sqrt(rec["S_size"] * rec["T_size"]), rel=1e-9
    )
    assert rec["ratio_density"] == pytest.approx(4 / 5)
    assert (rec["t"], rec["i"], rec["j"]) == res.found_at
    assert rec["seed"] == "seed:L:c"
    assert "wall_time_ms" not in rec


def test_result_record_global_fields():
    g = k_ab(2, 3)
    res = global_density(g)
    rec = result_record(g, res, "global")
    assert rec["seed"] == "ones:L"
    assert rec["target_size"] is None
    assert rec["bound_factor"] == pytest.approx(1 / (8 + 4 * math.log2(5)))
    assert rec["bound_factor_eps"] is None


def test_records_round_trip_and_stable_bytes(star4):
    res = local_density(star4, "c", target_size=4, keep_trace=True)
    records = [result_record(star4, res, "local")] + trace_records(res)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_records(records, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    parsed = [json.loads(line) for line in bufs[0].splitlines()]
    assert parsed[0]["kind"] == "local"
    assert all(row["kind"] == "trace-step" for row in parsed[1:])
    assert len(parsed) == 1 + res.steps


def test_trace_records_empty_without_trace(star4):
    res = local_density(star4, "c", target_size=4)
    assert trace_records(res) == []


def test_generator_is_deterministic():
    a = generate_planted(50, 60, 70, 4, 5, rng_seed=11)
    b = generate_planted(50, 60, 70, 4, 5, rng_seed=11)
    assert a[1] == b[1] and a[2] == b[2]
    assert list(a[0].edges()) == list(b[0].edges())
    c = generate_planted(50, 60, 70, 4, 5, rng_seed=12)
    assert list(a[0].edges()) != list(c[0].edges())


def test_generator_plants_exact_density():
    g, left, right = generate_planted(40, 40, 120, 4, 5, rng_seed=2)
    sub = density(g, left, right)
    assert sub.density == pytest.approx(math.sqrt(20), rel=1e-12)
    assert sub.edge_weight == 20.0


def test_generator_partial_block_density():
    g, left, right = generate_planted(
        30, 30, 0, 4, 4, planted_density_factor=0.5, rng_seed=7
    )
    sub = density(g, left, right)
    assert sub.edge_weight == 8.0
    assert sub.density == pytest.approx(2.0)
    # every planted vertex still touches an edge
    assert all(g.fanout("L", u) > 0 for u in left)
    assert all(g.fanout("R", v) > 0 for v in right)


def test_generator_isolated_block_mode():
    g, left, right = generate_planted(
        30, 30, 100, 3, 3, rng_seed=9, noise_avoids_planted=True
    )
    for u in left:
        nbrs, _ = g.neighbors("L", u)
        assert set(nbrs.tolist()) <= right


def test_generator_validation():
    cases = [
        dict(n_left=2, n_right=9, noise_edges=0, planted_a=3, planted_b=3),
        dict(n_left=9, n_right=9, noise_edges=-1, planted_a=3, planted_b=3),
        dict(n_left=9, n_right=9, noise_edges=0, planted_a=0, planted_b=3),
        dict(
            n_left=9,
            n_right=9,
            noise_edges=0,
            planted_a=3,
            planted_b=3,
            planted_density_factor=1.5,
        ),
        dict(
            n_left=9,
            n_right=9,
            noise_edges=0,
            planted_a=3,
            planted_b=3,
            planted_density_factor=0.1,
        ),
        dict(n_left=3, n_right=3, noise_edges=50, planted_a=2, planted_b=2),
    ]
    for kwargs in cases:
        with pytest.raises(DomainError):
            generate_planted(**kwargs)


def test_generator_requires_integer_counts():
    counts = dict(n_left=9, n_right=9, noise_edges=4, planted_a=3, planted_b=3)
    for name in counts:
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError):
                generate_planted(**{**counts, name: bad})
    g, left, right = generate_planted(**{k: np.int64(v) for k, v in counts.items()})
    h, h_left, h_right = generate_planted(**counts)
    assert list(g.edges()) == list(h.edges())
    assert (left, right) == (h_left, h_right)


def test_generator_dense_noise_regime():
    # ask for nearly every available noise slot to hit the enumeration path
    g, left, right = generate_planted(6, 6, 26, 3, 3, rng_seed=13)
    assert g.total_weight == pytest.approx(9 + 26)
    sub = density(g, left, right)
    assert sub.edge_weight == 9.0
