"""ingest_write: the write side of chunk_engine and storage (Fig 6).

Two datasets on simulated S3, each holding a committed base: an image
dataset (JPEG ``images`` + lz4 ``labels``) and a table of two scalar
columns.  The load is a closed loop of write cycles.  A cycle runs
:data:`STEPS` write steps on a fresh pair of datasets: each step extends
the image dataset by 32 JPEG images with their labels, then the table by
256 scalar rows, and every :data:`COMMIT_EVERY` steps both datasets
commit (the commit is timed with the table batch).  The cycle ends with
a flush of both (timed).  A fresh ``repro.load`` of only the flushed
bytes is then checked against the inputs, step by step, outside the
timing.  Restarting on fresh datasets keeps the loop stationary: commit
cost grows with the number of commits a dataset holds.

Each extend call is one write batch, the unit of the latency metrics;
256-row table batches cost about as much as 32-image batches, so the
latency distribution has one mode and the tail holds the commits and
the watermark flushes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from perfbench.checks import check_ingest_step
from perfbench.harness import (
    Budget,
    Outcome,
    Probe,
    operation,
    probed,
    unrecorded,
)
from perfbench.spans import Recorder

NAME = "ingest_write"
WHY = ("appending JPEG images and scalar rows with periodic commits: the "
       "write path of the paper's Fig 6, so read-side changes that slow "
       "writes show")
STRESSES = ("chunk_engine stage/commit/flush, JPEG encode, storage "
            "set_many, version_control commit")
BYPASSES = "dataloader, tql, serve, JPEG decode"

IMAGE_BASE = 96
IMAGE_BATCH = 32
ROW_BATCH = 256
POOL_BATCHES = 8
STEPS = 16
COMMIT_EVERY = 4
#: tail percentile of write-batch latency; needs >= 100 batches
TAIL_PCT = 90.0
#: cycles per half of the traced run (>= 100 batches for the tail)
TRACE_OPS = 4


@dataclass
class Inputs:
    images: List[np.ndarray]
    labels: np.ndarray
    a: np.ndarray
    b: np.ndarray


def generate(seed: int) -> Inputs:
    from repro.workloads import imagenet_like

    n = IMAGE_BATCH * POOL_BATCHES
    pairs = list(imagenet_like(n, seed=seed, base=IMAGE_BASE))
    rng = np.random.default_rng([seed, 3])
    rows = ROW_BATCH * POOL_BATCHES
    return Inputs(
        images=[img for img, _label in pairs],
        labels=np.asarray([label for _img, label in pairs], dtype=np.int32),
        a=rng.random(rows).astype(np.float32),
        b=rng.integers(-(2**40), 2**40, rows).astype(np.int64),
    )


def step_batch(inputs: Inputs, step: int) -> dict:
    """What write step *step* appends (step 0 is the committed base)."""
    i = step % POOL_BATCHES
    img = slice(i * IMAGE_BATCH, (i + 1) * IMAGE_BATCH)
    row = slice(i * ROW_BATCH, (i + 1) * ROW_BATCH)
    return {
        "images": inputs.images[img],
        "labels": inputs.labels[img],
        "a": inputs.a[row],
        "b": inputs.b[row],
    }


@dataclass
class State:
    tag: str
    img_url: str
    tab_url: str
    img: object
    tab: object


def setup(inputs: Inputs, tag) -> State:
    import repro

    img_url = f"s3-sim://pb-ingest-img-{tag}"
    tab_url = f"s3-sim://pb-ingest-tab-{tag}"
    img = repro.empty(img_url, overwrite=True)
    img.create_tensor("images", htype="image", sample_compression="jpeg")
    img.create_tensor("labels", htype="class_label",
                      chunk_compression="lz4")
    tab = repro.empty(tab_url, overwrite=True)
    tab.create_tensor("a", dtype="float32")
    tab.create_tensor("b", dtype="int64")
    base = step_batch(inputs, 0)
    img.extend({"images": base["images"], "labels": base["labels"]})
    tab.extend({"a": base["a"], "b": base["b"]})
    img.commit("base")
    tab.commit("base")
    return State(str(tag), img_url, tab_url, img, tab)


def stored_bytes(url: str) -> int:
    from repro.storage import storage_from_url

    return storage_from_url(url, cache_bytes=0).nbytes()


def verify(state: State, inputs: Inputs, steps: int, out: Outcome) -> None:
    """Reload both datasets from the object store and check each step."""
    import repro

    img = repro.load(state.img_url, read_only=True)
    tab = repro.load(state.tab_url, read_only=True)
    n_img = IMAGE_BATCH * (steps + 1)
    n_tab = ROW_BATCH * (steps + 1)
    if len(img) != n_img or len(tab) != n_tab:
        out.fail(2 * steps, f"reloaded lengths {len(img)}/{len(tab)}, "
                        f"expected {n_img}/{n_tab}")
        return
    labels = img["labels"].numpy().reshape(-1)
    shapes = img["images"].shapes()
    a = tab["a"].numpy().reshape(-1)
    b = tab["b"].numpy().reshape(-1)
    for step in range(1, steps + 1):
        batch = step_batch(inputs, step)
        ri = slice(step * IMAGE_BATCH, (step + 1) * IMAGE_BATCH)
        rt = slice(step * ROW_BATCH, (step + 1) * ROW_BATCH)
        expected = {
            "labels": batch["labels"],
            "shapes": [im.shape for im in batch["images"]],
            "a": batch["a"], "b": batch["b"],
        }
        if not check_ingest_step(labels[ri], shapes[ri], a[rt], b[rt],
                                 expected):
            out.fail(2, f"write step {step}: reloaded rows differ from "
                        "the inputs")


def _timed(out: Outcome, fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    t1 = time.perf_counter()
    out.latencies.append((t0, t1))
    return t1 - t0


def write_cycle(state: State, inputs: Inputs, out: Outcome,
                recorder: Optional[Recorder]) -> None:
    """One cycle of write steps and the final flush; the samples (images
    and table rows) written per second land in *out*."""
    busy = 0.0
    start = time.perf_counter()
    for step in range(1, STEPS + 1):
        batch = step_batch(inputs, step)

        def table_batch():
            state.tab.extend({"a": batch["a"], "b": batch["b"]})
            if step % COMMIT_EVERY == 0:
                state.img.commit(f"step {step}")
                state.tab.commit(f"step {step}")

        with operation(recorder, "write_step", step=step):
            busy += _timed(out, state.img.extend, {
                "images": batch["images"], "labels": batch["labels"]})
            busy += _timed(out, table_batch)
        out.attempted += 2
    t0 = time.perf_counter()
    with operation(recorder, "flush"):
        state.img.flush()
        state.tab.flush()
    busy += time.perf_counter() - t0
    out.busy_s += busy
    out.rates.append((STEPS * (IMAGE_BATCH + ROW_BATCH), busy, start,
                      time.perf_counter()))


def run(state: State, inputs: Inputs, budget: Budget,
        recorder: Optional[Recorder] = None,
        probe: Optional[Probe] = None) -> Outcome:
    """Write cycles, each on datasets set up like *state* (its tag
    names them), until *budget* is spent."""
    import repro

    out = Outcome()
    while budget.more(out.ops):
        with unrecorded(recorder):
            cycle = setup(inputs, f"{state.tag}.{out.ops}")
        try:
            with probed(probe):
                write_cycle(cycle, inputs, out, recorder)
        except Exception as exc:  # noqa: BLE001 - count, go on
            out.attempted += 1
            out.fail(1, f"write cycle {out.ops}: {exc!r}")
        else:
            with unrecorded(recorder):
                out.stored_bytes += stored_bytes(cycle.img_url) + \
                    stored_bytes(cycle.tab_url)
                verify(cycle, inputs, STEPS, out)
        out.ops += 1
        with unrecorded(recorder):
            repro.delete(cycle.img_url)
            repro.delete(cycle.tab_url)
    return out
