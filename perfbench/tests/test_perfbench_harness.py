"""Self-tests of the benchmark harness: the tail-percentile rule, span
self-time arithmetic, metric names, and that every output check rejects
a corrupted result.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import os
import re
import sys
import threading
from collections import Counter

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, stats  # noqa: E402
from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.spans import (  # noqa: E402
    Patches,
    Recorder,
    Span,
    self_times,
    union_length,
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- tail percentile rule ------------------------------------------------- #

@pytest.mark.parametrize("n, pct", [
    (19, 0.0), (20, 50.0), (39, 50.0), (40, 75.0), (50, 80.0),
    (99, 80.0), (100, 90.0), (199, 90.0), (200, 95.0), (400, 97.5),
    (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_leaves_ten_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct:
        assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND
    higher = [p for p in stats.LADDER if p > pct]
    if higher:
        assert stats.samples_beyond(n, higher[0]) < stats.MIN_BEYOND


@pytest.mark.parametrize("pct", stats.LADDER)
def test_each_ladder_step_starts_at_ten_beyond(pct):
    n = math.ceil(stats.MIN_BEYOND * 100 / (100 - pct) - 1e-9)
    assert stats.tail_percentile(n) >= pct
    assert stats.tail_percentile(n - 1) < pct


def test_workload_tails_are_on_the_ladder():
    from perfbench.workloads import WORKLOADS

    for wl in WORKLOADS.values():
        assert wl.TAIL_PCT in stats.LADDER


def test_percentile_matches_numpy():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.median(values) == 3.0
    assert stats.percentile(values, 90) == pytest.approx(
        np.percentile(values, 90))


# -- span self time --------------------------------------------------------- #

def _span(name, sid, parent, start, end):
    sp = Span(name, sid, parent, 1, start)
    sp.end = end
    return sp


def test_union_clips_and_merges_overlaps():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([(-5, -1), (11, 20)], 0, 10) == 0
    assert union_length([(2, 3), (2, 3), (2.5, 2.75)], 0, 10) == 1


def test_self_time_with_overlapping_children():
    spans = [
        _span("op", 1, None, 0.0, 10.0),
        # two pool-thread children overlapping on [3, 4]
        _span("engine.execute", 2, 1, 1.0, 4.0),
        _span("engine.execute", 3, 1, 3.0, 6.0),
        # a child that outlives its parent counts only up to 10
        _span("storage.get", 4, 1, 8.0, 12.0),
        # a grandchild is subtracted from its parent only
        _span("codec.decode", 5, 2, 1.5, 2.5),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - (5 + 2))
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(3)
    assert selfs[4] == pytest.approx(4)
    assert selfs[5] == pytest.approx(1)


def test_recorder_parents_across_threads():
    ticks = iter(range(1000))
    rec = Recorder(clock=lambda: float(next(ticks)))
    seen = {}

    def worker():
        with rec.span("codec.decode") as sp:
            seen["worker"] = sp

    with rec.operation("epoch") as op:
        with rec.span("engine.execute") as parent:
            th = threading.Thread(target=rec.carry(worker))
            th.start()
            th.join(timeout=10)
        # a thread with nothing carried is adopted by the one operation
        th = threading.Thread(target=worker)
        th.start()
        th.join(timeout=10)
    assert not th.is_alive()
    assert seen["worker"].parent_id == op.span_id
    carried = [s for s in rec.spans if s.parent_id == parent.span_id]
    assert [s.name for s in carried] == ["codec.decode"]
    assert all(s.trace_id == op.trace_id for s in rec.spans)
    assert rec.adopted == 1 and rec.unparented == 0


def test_recorder_counts_spans_it_cannot_parent():
    rec = Recorder()
    with rec.span("storage.get"):
        pass
    assert rec.unparented == 1
    assert rec.spans[0].parent_id is None


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "child"

    patches = Patches()
    patches.replace(Child, "f", lambda fn: lambda self: "patched")
    patches.replace(Child, "g", lambda fn: lambda self: "patched")
    assert Child().f() == Child().g() == "patched"
    patches.undo()
    assert Child().f() == "base" and Child().g() == "child"
    assert "f" not in vars(Child)


def test_layer_metrics_cover_every_per_layer_name():
    m = layer_metrics([], {}, op_tail_ms=1.0, unparented=0,
                      overhead_ratio=1.0, ops_failed_ratio=0.0)
    assert list(m) == [name for name, _unit, _better in PER_LAYER]


# -- metric names ------------------------------------------------------------ #

def test_metric_names_and_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(END_TO_END)
    assert layers == PER_LAYER
    names = [n for n, _u in e2e] + [n for n, _u, _b in layers] + [
        w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


# -- output checks reject corrupted results ---------------------------------- #

def test_loader_checks_reject_corruption():
    labels = [3, 5, 7]
    shapes = [(10, 12, 3), (11, 12, 3), (10, 9, 3)]
    expected = checks.sample_keys(labels, shapes)
    batch = {"labels": np.asarray(labels),
             "images": [np.zeros(s, np.uint8) for s in shapes]}
    keys = checks.batch_keys(batch)
    assert checks.check_batch(keys, expected, 3)
    assert checks.check_epoch(Counter(keys), expected)

    wrong_label = dict(batch, labels=np.asarray([3, 5, 8]))
    assert not checks.check_batch(checks.batch_keys(wrong_label), expected, 3)
    wrong_shape = dict(batch, images=[np.zeros((10, 12, 3), np.uint8)] * 3)
    assert not checks.check_batch(checks.batch_keys(wrong_shape), expected, 3)
    assert not checks.check_batch(keys[:2], expected, 3)
    duplicated = Counter(keys[:2] + keys[:1])
    assert not checks.check_epoch(duplicated, expected)


def _table(n=64, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.random(n).astype(np.float32),
        "g": rng.integers(0, 4, n).astype(np.int32),
        "t": np.cumsum(rng.integers(1, 5, n)).astype(np.int64),
    }


def test_tql_oracle_and_checks_reject_corruption():
    cols = _table()
    rows = checks.tql_oracle("scan", {"c": 0.5}, cols)
    assert checks.check_rows(rows, np.nonzero(cols["x"] > 0.5)[0])
    assert not checks.check_rows(rows[:-1], rows)
    assert not checks.check_rows(list(rows) + [0], rows)
    swapped = np.array(rows)
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not checks.check_rows(swapped, rows)

    top = checks.tql_oracle("topk", {"limit": 5}, cols)
    assert checks.check_values(cols["x"][top], np.sort(cols["x"])[:5])
    assert not checks.check_values(cols["x"][top][::-1], cols["x"][top])

    ranged = checks.tql_oracle("range", {"a": int(cols["t"][3]),
                                         "b": int(cols["t"][9])}, cols)
    assert list(ranged) == list(range(3, 9))
    sel = checks.tql_oracle("selective", {"k": 1, "c": 0.5}, cols)
    assert all(cols["g"][r] == 1 and cols["x"][r] < 0.5 for r in sel)

    means = checks.tql_oracle("group", {}, cols)
    keys, vals = list(means), [np.float32(means[k]) for k in means]
    assert checks.check_groups(keys, vals, means)
    assert not checks.check_groups(keys[:-1], vals[:-1], means)
    bad = list(vals)
    bad[0] = bad[0] + np.float32(1e-3)
    assert not checks.check_groups(keys, bad, means)


def test_ingest_check_rejects_corruption():
    expected = {
        "labels": np.array([1, 2], np.int32),
        "shapes": [(4, 4, 3), (5, 4, 3)],
        "a": np.array([0.5, 0.25], np.float32),
        "b": np.array([7, -9], np.int64),
    }
    good = (expected["labels"].copy(), list(expected["shapes"]),
            expected["a"].copy(), expected["b"].copy())
    assert checks.check_ingest_step(*good, expected)
    for i, corrupt in enumerate([
        np.array([1, 3], np.int32),
        [(4, 4, 3), (4, 4, 3)],
        np.array([0.5, 0.125], np.float32),
        np.array([7], np.int64),
    ]):
        args = list(good)
        args[i] = corrupt
        assert not checks.check_ingest_step(*args, expected), i


def test_served_columns_check_rejects_corruption():
    img = np.arange(24, dtype=np.uint8).reshape(2, 4, 3)
    expected = {"images": [img, img + 1],
                "labels": [np.array(3, np.int32), np.array(4, np.int32)]}
    got = {"images": [img.copy(), img + 1],
           "labels": [np.array([3], np.int32), np.array(4, np.int32)]}
    assert checks.check_columns(got, expected)  # the tolerated reshape

    flipped = img.copy()
    flipped[0, 0, 0] ^= 1
    for corrupt in (
        {"images": [flipped, img + 1]},
        {"images": [img.astype(np.int16), img + 1]},
        {"images": [img.reshape(4, 2, 3), img + 1]},
        {"images": [img]},
        {"labels": [np.array([3, 3], np.int32), np.array(4, np.int32)]},
        {"labels": [np.array(3, np.int64), np.array(4, np.int32)]},
    ):
        assert not checks.check_columns(dict(got, **corrupt), expected)
    assert not checks.check_columns({"images": got["images"]}, expected)
