"""Tests for the span recorder and the traced benchmark path.

Run with: python -m pytest perfbench/tests
"""

import sys
import threading
import time
import types

import pytest

import run
import spans
import workloads


@pytest.fixture
def fakepkg():
    """A two-module package: b re-binds a's functions, as the real modules do."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")

    def work(delay=0.0):
        time.sleep(delay)
        return delay

    def scan(delay):
        # calls work through the module namespace, from two worker threads
        threads = [threading.Thread(target=a.work, args=(delay,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)

    a.work, a.scan = work, scan
    b = types.ModuleType("fakepkg.b")
    b.work = work
    pkg.a, pkg.b, pkg.work = a, b, work
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    try:
        yield pkg
    finally:
        for key in mods:
            sys.modules.pop(key, None)


def _span(name, start, end, parent=None, thread=1):
    s = spans.Span(name, start, thread, parent)
    s.end = end
    return s


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span("scan", 0.0, 10.0)
    kids = [
        _span("work", 1.0, 5.0, parent, thread=2),
        _span("work", 3.0, 7.0, parent, thread=3),  # overlaps the first
        _span("work", 8.0, 9.0, parent, thread=2),
    ]
    selfs = spans.self_times([parent] + kids)
    assert selfs[id(parent)] == pytest.approx(10.0 - 7.0)
    assert all(selfs[id(k)] == pytest.approx(k.end - k.start) for k in kids)


def test_worker_children_count_once_in_recorded_self_time(fakepkg):
    rec = spans.SpanRecorder()
    rec.install(["fakepkg.a:scan", "fakepkg.a:work"])
    try:
        with rec.root():
            fakepkg.a.scan(0.2)
    finally:
        rec.uninstall()
    scan = next(s for s in rec.spans if s.name == "a.scan")
    works = [s for s in rec.spans if s.name == "a.work"]
    assert len(works) == 2
    assert len({s.thread for s in works}) == 2
    assert all(s.parent is scan for s in works)
    # the two sleeps overlap, so subtracting their sum would go negative
    self_s = spans.self_times(rec.spans)[id(scan)]
    assert 0.0 <= self_s < 0.1


def test_worker_span_without_local_parent_attaches_to_root(fakepkg):
    rec = spans.SpanRecorder()
    rec.install(["fakepkg.a:work"])
    try:
        with rec.root() as root:
            t = threading.Thread(target=fakepkg.a.work)
            t.start()
            t.join(10)
        assert not t.is_alive()
        outside = threading.Thread(target=fakepkg.a.work)
        outside.start()
        outside.join(10)
    finally:
        rec.uninstall()
    inside, after = [s for s in rec.spans if s.name == "a.work"]
    assert inside.parent is root and inside.thread != root.thread
    assert after.parent is None


def _bindings(prefix):
    return {
        (key, attr): val
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == prefix or key.startswith(prefix + "."))
        for attr, val in vars(mod).items()
    }


def test_uninstall_restores_every_binding(fakepkg):
    before = _bindings("fakepkg")
    rec = spans.SpanRecorder()
    rec.install(["fakepkg.a:work"])
    try:
        assert fakepkg.work is not before[("fakepkg", "work")]
        assert fakepkg.b.work is fakepkg.a.work is fakepkg.work
    finally:
        rec.uninstall()
    after = _bindings("fakepkg")
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_uninstall_restores_the_package_bindings():
    import localdense  # noqa: F401

    before = _bindings("localdense")
    rec = spans.SpanRecorder()
    rec.install()
    assert not rec.missing
    changed = [k for k, v in _bindings("localdense").items() if v is not before[k]]
    # every target is re-bound somewhere besides its own module
    assert {k[1] for k in changed} == {t.split(":")[1] for t in spans.TARGETS}
    rec.uninstall()
    after = _bindings("localdense")
    assert all(after[k] is before[k] for k in before)


def test_removed_function_gives_absent_metric(fakepkg):
    rec = spans.SpanRecorder()
    rec.install(["fakepkg.a:work", "fakepkg.a:gone", "fakepkg.nomodule:work"])
    try:
        with rec.root():
            fakepkg.b.work()
    finally:
        rec.uninstall()
    assert rec.missing == ["fakepkg.a:gone", "fakepkg.nomodule:work"]
    metrics = spans.summarize(rec)
    assert metrics["a.work.calls"] == 1
    assert not any(key.startswith(("a.gone", "nomodule.")) for key in metrics)


def test_tail_needs_ten_samples_beyond_and_stays_above_the_median():
    value, pct, beyond = spans.tail(range(100))
    assert (value, beyond) == (89, 10)
    assert pct == pytest.approx(90.0)
    # no percentile has ten samples beyond it: the upper median stands in
    assert spans.tail(range(10)) == (5, 60.0, 4)
    # as the sample count grows the figure moves by one rank at a time
    assert [spans.tail(range(n))[0] for n in (20, 21, 22, 23)] == [10, 10, 11, 12]


TINY = {
    "local-scan": dict(side=300, noise=2000, block=6, factor=1.0, batches=2,
                       background=8, planted=2, target_size=8),
    "certify": dict(graphs=2, left=8, right=60, noise=150, block=(6, 12), factor=0.5,
                    target_size=8),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_runs_repeat_untraced_outputs_and_counts(name, tmp_path):
    figures, counts = [], []
    for trace in (False, True, True):
        wl = workloads.WORKLOADS[name](5, **TINY[name])
        fig, rec = run.measure(wl, 0.05, str(tmp_path), trace)
        assert fig["failed"] == 0, fig["problems"]
        figures.append(fig)
        if trace:
            counts.append([rec.op_counts(k) for k in range(len(wl.inputs()))])
    # measure() compares each traced output's bytes with an untraced run and
    # each op's counters with the first op on the same input; across the two
    # traced runs every counter repeats exactly as well
    assert counts[0] == counts[1]
    assert all(c["growth.edges_touched"] > 0 for c in counts[0])
    assert len({f["edges_touched_per_op"] for f in figures}) == 1
    assert len({f["density_ratio"] for f in figures}) == 1
