import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localdense.generate as generate_module
from localdense import (
    LEFT,
    RIGHT,
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

from conftest import k_ab, reference_generate


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
    counts = dict(n_left=9, n_right=9, noise_edges=4, planted_a=3, planted_b=3, rng_seed=1)
    for name in counts:
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(DomainError):
                generate_planted(**{**counts, name: bad})
    for bad in (True, "0.5", None):
        with pytest.raises(DomainError):
            generate_planted(**counts, planted_density_factor=bad)
    g, left, right = generate_planted(**{k: np.int64(v) for k, v in counts.items()})
    h, h_left, h_right = generate_planted(**counts)
    assert list(g.edges()) == list(h.edges())
    assert (left, right) == (h_left, h_right)


def test_generator_caps_sides_below_two_to_the_32():
    # raised before anything of a side's size is built
    for sides in ((2**32, 9), (9, 2**32)):
        with pytest.raises(DomainError, match="2\\*\\*32"):
            generate_planted(*sides, 1, 3, 3)


def assert_same_generated(got, want):
    g, left, right = got
    h, h_left, h_right = want
    assert g._ids == h._ids
    assert {type(i) for side in (LEFT, RIGHT) for i in g._ids[side]} == {int}
    for side in (LEFT, RIGHT):
        for x, y in zip(g.csr_arrays(side), h.csr_arrays(side)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert (g.total_weight, g.max_degree, g.max_fanout) == (
        h.total_weight, h.max_degree, h.max_fanout
    )
    assert (left, right) == (h_left, h_right)


def assert_matches_reference(args):
    """The bulk draws against the randrange loop, once with whole chunks and
    once with three-word chunks, so that pairs and redraws straddle chunk
    boundaries."""
    want = reference_generate(*args)
    assert_same_generated(generate_planted(*args), want)
    with mock.patch.object(generate_module, "_CHUNK_WORDS", 3):
        assert_same_generated(generate_planted(*args), want)


# (n_left, n_right, noise_edges, a, b, factor, rng_seed, noise_avoids_planted)
GENERATOR_GRID = [
    (9, 9, 4, 3, 3, 1.0, 0, False),
    (300, 517, 5000, 6, 6, 1.0, 3, False),
    (14, 1000, 3000, 12, 40, 0.5, 7, False),
    (14, 1000, 900, 12, 40, 0.5, 7, True),
    (1, 1, 0, 1, 1, 1.0, 5, False),
    (1, 40, 19, 1, 2, 1.0, 6, False),
    (40, 2, 19, 2, 1, 1.0, 6, True),
    (2, 2, 1, 1, 1, 1.0, 8, False),
    (64, 32, 700, 4, 4, 1.0, 1, False),
    (1024, 1024, 20000, 8, 8, 0.75, 1, True),
    (63, 127, 1500, 5, 3, 1.0, 2, False),
    (63, 127, 1500, 5, 3, 1.0, 2, True),
    (64, 64, 2039, 4, 4, 1.0, 2, False),
    (64, 63, 1769, 5, 3, 0.8, 11, True),
    (40, 40, 0, 4, 5, 0.5, 9, False),
    (6, 6, 26, 3, 3, 1.0, 13, False),
    (8, 8, 20, 2, 2, 1.0, 4, True),
]


@pytest.mark.parametrize("args", GENERATOR_GRID)
def test_generator_matches_randrange_loop(args):
    assert_matches_reference(args)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generator_matches_randrange_loop_drawn(data):
    n_left = data.draw(st.integers(1, 70))
    n_right = data.draw(st.integers(1, 70))
    a = data.draw(st.integers(1, n_left))
    b = data.draw(st.integers(1, n_right))
    factor = data.draw(st.sampled_from([1.0, 0.75, 0.5]))
    if round(factor * a * b) < max(a, b):
        factor = 1.0
    avoid = data.draw(st.booleans())
    capacity = (n_left - a) * (n_right - b) if avoid else n_left * n_right - a * b
    noise = data.draw(st.integers(0, capacity))
    seed = data.draw(st.integers(0, 2**40))
    assert_matches_reference((n_left, n_right, noise, a, b, factor, seed, avoid))


def test_generator_dense_noise_regime():
    # ask for nearly every available noise slot to hit the enumeration path
    g, left, right = generate_planted(6, 6, 26, 3, 3, rng_seed=13)
    assert g.total_weight == pytest.approx(9 + 26)
    sub = density(g, left, right)
    assert sub.edge_weight == 9.0
