"""train_loader: streaming training epochs (the paper's Fig 7 / Fig 9).

~1.2k ImageNet-like ragged JPEG images (``imagenet_like(base=96)``,
~14 MB stored in 1 MB chunks) plus lz4 ``class_label`` labels on
simulated S3.  Each epoch opens the dataset with a fresh ``repro.load``,
so every chunk streams from the object store, then runs a shuffled
``dataloader(batch_size=32, num_workers=2)``.  Within an epoch the
working set fits every program cache.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from perfbench.checks import batch_keys, check_batch, check_epoch, sample_keys
from perfbench.harness import Budget, Outcome, Probe, operation, probed
from perfbench.layers import collate_hook
from perfbench.spans import Recorder

NAME = "train_loader"
WHY = ("streaming training epochs from object storage: the loader case "
       "of the paper's Fig 7/9")
STRESSES = ("storage get_many, chunk_engine plan execution, JPEG/lz4 "
            "decode, collate")
BYPASSES = "tql, serve, the write path (except set-up)"

N_IMAGES = 1200
IMAGE_BASE = 96
IMAGE_CHUNK_BYTES = 1024 * 1024
BATCH = 32
WORKERS = 2
SETUP_BATCH = 200
#: tail percentile of batch latency; needs >= 200 batches (~6 epochs)
TAIL_PCT = 95.0
#: epochs per half of the traced run (>= 200 batches for the tail)
TRACE_OPS = 6


@dataclass
class Inputs:
    images: List[np.ndarray]
    labels: np.ndarray
    #: multiset of (label, image shape) over all rows
    expected: Counter
    epoch_seeds: List[int]


def generate(seed: int) -> Inputs:
    from repro.workloads import imagenet_like

    pairs = list(imagenet_like(N_IMAGES, seed=seed, base=IMAGE_BASE))
    images = [img for img, _label in pairs]
    labels = np.asarray([label for _img, label in pairs], dtype=np.int32)
    rng = np.random.default_rng([seed, 1])
    return Inputs(
        images=images,
        labels=labels,
        expected=sample_keys(labels, [img.shape for img in images]),
        epoch_seeds=[int(s) for s in rng.integers(0, 2**31, 4096)],
    )


def build(url: str, inputs: Inputs) -> None:
    """Write the image dataset to *url* (set-up work, shared with
    serve_mixed)."""
    import repro

    ds = repro.empty(url, overwrite=True)
    ds.create_tensor("images", htype="image", sample_compression="jpeg",
                     max_chunk_size=IMAGE_CHUNK_BYTES)
    ds.create_tensor("labels", htype="class_label", chunk_compression="lz4")
    for i in range(0, len(inputs.images), SETUP_BATCH):
        ds.extend({
            "images": inputs.images[i : i + SETUP_BATCH],
            "labels": inputs.labels[i : i + SETUP_BATCH],
        })
    ds.flush()


def setup(inputs: Inputs, tag: int) -> str:
    url = f"s3-sim://pb-train-{tag}"
    build(url, inputs)
    return url


def stream_epoch(open_dataset: Callable, epoch_seed: int, inputs: Inputs,
                 out: Outcome, collate: Callable) -> None:
    """One shuffled loader epoch over a freshly opened dataset.  Its
    samples per second, batch latencies, loader stats and check results
    land in *out*."""
    n = len(inputs.labels)
    t0 = time.perf_counter()
    check_s = 0.0
    ds = open_dataset()
    loader = ds.dataloader(batch_size=BATCH, shuffle=True,
                           num_workers=WORKERS, seed=epoch_seed,
                           collate=collate)
    seen: Counter = Counter()
    batches = failed = samples = 0
    it = iter(loader)
    while True:
        b0 = time.perf_counter()
        try:
            batch = next(it)
        except StopIteration:
            break
        b1 = time.perf_counter()
        out.latencies.append((b0, b1))
        keys = batch_keys(batch)
        batches += 1
        if not check_batch(keys, inputs.expected, min(BATCH, n - samples)):
            failed += 1
            out.fail(1, f"batch {batches} of epoch seed {epoch_seed}: "
                        "labels or image shapes differ from the inputs")
        seen.update(keys)
        samples += len(keys)
        check_s += time.perf_counter() - b1
    wall = time.perf_counter() - t0 - check_s
    out.attempted += batches
    if not check_epoch(seen, inputs.expected):
        out.fail(max(1, batches - failed),
                 f"epoch seed {epoch_seed}: rows not delivered exactly once")
    out.loader_wait_s += loader.stats.wait_s
    out.loader_total_s += loader.stats.total_s
    out.rates.append((samples, wall, t0, t0 + wall + check_s))


def run(url: str, inputs: Inputs, budget: Budget,
        recorder: Optional[Recorder] = None,
        probe: Optional[Probe] = None) -> Outcome:
    import repro
    from repro.dataloader.collate import default_collate

    out = Outcome()
    collate = collate_hook(recorder, default_collate)
    while budget.more(out.ops):
        seed = inputs.epoch_seeds[out.ops % len(inputs.epoch_seeds)]
        with probed(probe):
            t0 = time.perf_counter()
            with operation(recorder, "epoch", seed=seed):
                try:
                    stream_epoch(lambda: repro.load(url), seed, inputs, out,
                                 collate)
                except Exception as exc:  # noqa: BLE001 - count, go on
                    out.attempted += 1
                    out.fail(1, f"epoch seed {seed}: {exc!r}")
            out.busy_s += time.perf_counter() - t0
        out.ops += 1
    return out
