"""serve_mixed: two tenants of one Tensor Streaming Server (Fig 8).

The train_loader dataset is hosted by one ``DatasetServer``
(``ThreadedTransport``, 2 workers) whose shared cache holds about a
quarter of the stored bytes, so this is the one workload whose data is
larger than the program's cache.  Two tenant threads drive it:

- tenant ``reader`` runs closed-loop ``read_columns(["images", "labels"],
  16 rows)`` windows, in runs of 2-6 sequential windows that start at
  Zipf-skewed offsets, so server-push prefetch both hits and wastes;
- tenant ``trainer`` re-``connect``s every epoch and streams shuffled
  loader epochs through ``serve://``, so its chunks go through the
  server cache.

The server's hosted dataset view keeps its own decoded-chunk cache, so
after the first touches ``read_columns`` windows are answered from it;
the trainer's fresh connections always reach the shared cache.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from perfbench.checks import check_columns, scalar_reshaped
from perfbench.harness import (
    Budget,
    Outcome,
    Probe,
    operation,
    probed,
    unrecorded,
)
from perfbench.layers import collate_hook
from perfbench.spans import Recorder
from perfbench.workloads import train_loader
from perfbench.workloads.train_loader import stream_epoch

NAME = "serve_mixed"
WHY = ("one server, two tenants: windowed reads with push-prefetch next to "
       "loader epochs, over a shared cache smaller than the data")
STRESSES = ("serve protocol/transport, single-flight, push prefetch, "
            "server cache eviction")
BYPASSES = "tql, the write path (except set-up)"

WINDOW = 16
TENSORS = ("images", "labels")
CACHE_SHARE = 0.25
SERVER_WORKERS = 2
ZIPF_A = 1.3
#: tail percentile of read_columns latency; needs >= 200 windows
TAIL_PCT = 95.0
#: trainer epochs per half of the traced run (>= 200 windows for the
#: tail)
TRACE_OPS = 2


@dataclass
class Inputs:
    train: train_loader.Inputs
    #: runs of sequential window indices for the reader tenant
    runs: List[List[int]]


def generate(seed: int) -> Inputs:
    train = train_loader.generate(seed)
    rng = np.random.default_rng([seed, 4])
    n_windows = train_loader.N_IMAGES // WINDOW
    hot = rng.permutation(n_windows)  # popularity rank -> window
    runs = []
    for _ in range(4096):
        rank = min(int(rng.zipf(ZIPF_A)), n_windows) - 1
        start = int(hot[rank])
        length = int(rng.integers(2, 7))
        runs.append(list(range(start, min(start + length, n_windows))))
    return Inputs(train=train, runs=runs)


@dataclass
class State:
    url: str
    stored_bytes: int
    #: the direct ``Dataset.read_rows`` answer for every row
    expected: Dict[str, list]


def setup(inputs: Inputs, tag: int) -> State:
    from repro.storage import storage_from_url

    url = train_loader.setup(inputs.train, tag)
    return State(url, storage_from_url(url, cache_bytes=0).nbytes(), {})


def _expected(state: State) -> Dict[str, list]:
    """Direct reads of every row, made once outside the timing."""
    import repro

    if not state.expected:
        ds = repro.load(state.url, read_only=True)
        state.expected = ds.read_rows(range(train_loader.N_IMAGES),
                                      list(TENSORS))
    return state.expected


def reader(conn, inputs: Inputs, expected, out: Outcome,
           stop: threading.Event, recorder: Optional[Recorder]) -> None:
    """Tenant ``reader``: sequential runs of read_columns windows."""
    i = 0
    while not stop.is_set():
        for w in inputs.runs[i % len(inputs.runs)]:
            rows = list(range(w * WINDOW, (w + 1) * WINDOW))
            t0 = time.perf_counter()
            with operation(recorder, "read_window", window=w):
                try:
                    got = conn.read_columns(list(TENSORS), rows)
                except Exception as exc:  # noqa: BLE001 - count, go on
                    got = exc
            out.latencies.append((t0, time.perf_counter()))
            out.attempted += 1
            want = {n: expected[n][rows[0]: rows[-1] + 1] for n in TENSORS}
            if isinstance(got, Exception):
                out.fail(1, f"read_columns window {w}: {got!r}")
            elif not check_columns(got, want):
                out.fail(1, f"read_columns window {w} differs from the "
                            "direct read")
            else:
                out.note("served_scalar_reshaped_to_1d", sum(
                    scalar_reshaped(np.asarray(a), np.asarray(b))
                    for n in TENSORS for a, b in zip(got[n], want[n])))
            if stop.is_set():
                break
        i += 1


def trainer(server_name: str, inputs: Inputs, budget: Budget, out: Outcome,
            recorder: Optional[Recorder], probe: Optional[Probe]) -> None:
    """Tenant ``trainer``: loader epochs over a fresh connection each."""
    import repro
    from repro.dataloader.collate import default_collate

    collate = collate_hook(recorder, default_collate)
    url = f"serve://trainer@{server_name}/train"
    while budget.more(out.ops):
        seeds = inputs.train.epoch_seeds
        seed = seeds[out.ops % len(seeds)]
        with probed(probe):
            t0 = time.perf_counter()
            with operation(recorder, "served_epoch", seed=seed):
                try:
                    stream_epoch(lambda: repro.connect(url), seed,
                                 inputs.train, out, collate)
                except Exception as exc:  # noqa: BLE001 - count, go on
                    out.attempted += 1
                    out.fail(1, f"served epoch seed {seed}: {exc!r}")
            out.busy_s += time.perf_counter() - t0
        out.ops += 1


def run(state: State, inputs: Inputs, budget: Budget,
        recorder: Optional[Recorder] = None,
        probe: Optional[Probe] = None) -> Outcome:
    import repro

    with unrecorded(recorder):
        expected = _expected(state)
    server = repro.serve(
        {"train": state.url}, name=f"pb-serve-{id(budget)}",
        num_workers=SERVER_WORKERS,
        cache_bytes=int(state.stored_bytes * CACHE_SHARE),
    )
    streamed = Outcome()
    reads = Outcome()
    stop = threading.Event()
    errors: List[BaseException] = []

    def guarded(fn, *args):
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
        finally:
            stop.set()

    conn = server.connect("train", tenant="reader")
    threads = [
        threading.Thread(target=guarded, name="tenant-reader",
                         args=(reader, conn, inputs, expected, reads, stop,
                               recorder)),
        threading.Thread(target=guarded, name="tenant-trainer",
                         args=(trainer, server.name, inputs, budget,
                               streamed, recorder, probe)),
    ]
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        stop.set()
        for th in threads:
            if th.ident is not None:
                th.join()
        server.drain_prefetch()
        server.stop()
    if errors:
        raise errors[0]
    # the trainer's epochs set the pace (ops, throughput, trace
    # overhead); the reader's windows give the latency metrics
    streamed.latencies = reads.latencies
    streamed.merge(reads)
    return streamed
