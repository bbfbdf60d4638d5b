"""tql_scan: TQL over tabular columns (the paper's §4.4).

A table of float32 ``x``, int32 ``g`` (16 groups) and a strictly
increasing int64 ``t``, stored in small chunks so predicate pushdown has
chunks to skip.  The load is a closed loop of rounds; each round runs
the five query shapes below once, in a seeded order with seeded
constants, each on a fresh ``repro.load``:

- ``scan``: unselective ``WHERE x > c``
- ``selective``: ``WHERE g == k AND x < c``
- ``range``: prunable ``WHERE t >= a AND t < b`` (5% of the rows)
- ``group``: ``SELECT g, MEAN(x) GROUP BY g``
- ``topk``: ``ORDER BY x LIMIT 100``
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from perfbench.checks import check_groups, check_rows, check_values, tql_oracle
from perfbench.harness import (
    Budget,
    Outcome,
    Probe,
    operation,
    probed,
    unrecorded,
)
from perfbench.spans import Recorder

NAME = "tql_scan"
WHY = ("TQL filter, group and sort queries over tabular columns with "
       "chunk-statistics pushdown: the paper's §4.4")
STRESSES = "tql parse/plan/kernels, chunk_engine plan_reads per row"
BYPASSES = "JPEG codec, dataloader, serve"

N_ROWS = 6000
N_GROUPS = 16
CHUNK_BYTES = 8 * 1024
SETUP_BATCH = 2000
TOPK = 100
RANGE_SHARE = 0.05
SHAPES = ("scan", "selective", "range", "group", "topk")
#: tail percentile of query latency; needs >= 100 queries (20 rounds)
TAIL_PCT = 90.0
#: rounds (of five queries) per half of the traced run (>= 100
#: queries for the tail)
TRACE_OPS = 20


@dataclass
class Inputs:
    cols: Dict[str, np.ndarray]
    #: rounds of (shape, params, query text); cycled when a run needs more
    rounds: List[List[tuple]]


def _dyadic(rng, lo: float, hi: float) -> float:
    """A constant exactly representable in float32 and float64, so the
    oracle and the program compare the same numbers."""
    return int(rng.integers(int(lo * 1024), int(hi * 1024))) / 1024.0


def _query(shape: str, rng, t: np.ndarray) -> tuple:
    # constants vary in a narrow band so every seed's queries select
    # about as many rows (result size moves a query's cost)
    if shape == "scan":
        params = {"c": _dyadic(rng, 0.45, 0.55)}
        text = f"SELECT * WHERE x > {params['c']!r}"
    elif shape == "selective":
        params = {"k": int(rng.integers(0, N_GROUPS)),
                  "c": _dyadic(rng, 0.45, 0.55)}
        text = (f"SELECT * WHERE g == {params['k']} "
                f"AND x < {params['c']!r}")
    elif shape == "range":
        span = int(len(t) * RANGE_SHARE)
        lo = int(rng.integers(0, len(t) - span))
        params = {"a": int(t[lo]), "b": int(t[lo + span])}
        text = f"SELECT * WHERE t >= {params['a']} AND t < {params['b']}"
    elif shape == "group":
        params = {}
        text = "SELECT g, MEAN(x) AS mx GROUP BY g"
    else:
        params = {"limit": TOPK}
        text = f"SELECT * ORDER BY x LIMIT {TOPK}"
    return shape, params, text


def generate(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 2])
    cols = {
        "x": rng.random(N_ROWS).astype(np.float32),
        "g": rng.integers(0, N_GROUPS, N_ROWS).astype(np.int32),
        "t": (10**9 + np.cumsum(rng.integers(1, 5, N_ROWS))).astype(
            np.int64),
    }
    rounds = [
        [_query(SHAPES[i], rng, cols["t"]) for i in rng.permutation(5)]
        for _ in range(64)
    ]
    return Inputs(cols=cols, rounds=rounds)


def setup(inputs: Inputs, tag: int) -> str:
    import repro

    url = f"s3-sim://pb-tql-{tag}"
    ds = repro.empty(url, overwrite=True)
    for name, col in inputs.cols.items():
        ds.create_tensor(name, dtype=col.dtype.name,
                         max_chunk_size=CHUNK_BYTES,
                         create_shape_tensor=False, create_id_tensor=False)
    for i in range(0, N_ROWS, SETUP_BATCH):
        ds.extend({name: col[i : i + SETUP_BATCH]
                   for name, col in inputs.cols.items()})
    ds.flush()
    return url


def check(shape: str, params: dict, result, inputs: Inputs) -> bool:
    """The query result equals the numpy oracle over the inputs."""
    expected = tql_oracle(shape, params, inputs.cols)
    if shape == "group":
        return check_groups(result["g"].numpy(aslist=True),
                            result["mx"].numpy(aslist=True), expected)
    rows = result.index.row_indices(N_ROWS)
    if not check_rows(rows, expected):
        return False
    if shape == "topk":  # read the ordered values back through the view
        return check_values(result["x"].numpy(),
                            inputs.cols["x"][expected])
    return True


def run(url: str, inputs: Inputs, budget: Budget,
        recorder: Optional[Recorder] = None,
        probe: Optional[Probe] = None) -> Outcome:
    import repro

    out = Outcome()
    while budget.more(out.ops):
        queries = inputs.rounds[out.ops % len(inputs.rounds)]
        round_s = 0.0
        round_t0 = time.perf_counter()
        for shape, params, text in queries:
            with probed(probe):
                t0 = time.perf_counter()
                with operation(recorder, "query", shape=shape):
                    try:
                        result = repro.load(url).query(text)
                    except Exception as exc:  # noqa: BLE001 - count
                        result = exc
                t1 = time.perf_counter()
            round_s += t1 - t0
            out.latencies.append((t0, t1))
            out.attempted += 1
            if isinstance(result, Exception):
                out.fail(1, f"{text}: {result!r}")
                continue
            with unrecorded(recorder):
                ok = check(shape, params, result, inputs)
            if not ok:
                out.fail(1, f"{text}: result differs from the oracle")
        out.busy_s += round_s
        out.rates.append((len(queries) * N_ROWS, round_s, round_t0,
                          time.perf_counter()))
        out.ops += 1
    return out
