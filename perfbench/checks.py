"""Output checks.  Each returns True only for a correct result; a failed
check counts the operation as failed, and nothing is retried.

The checks are pure functions of the generated inputs and the program's
outputs, so the harness self-tests can feed them corrupted results.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

SampleKey = Tuple[int, Tuple[int, ...]]


def sample_keys(labels: Sequence[int], shapes: Sequence[Tuple[int, ...]]
                ) -> Counter:
    """Multiset of (label, image shape) pairs, one per row."""
    return Counter(
        (int(label), tuple(int(x) for x in shape))
        for label, shape in zip(labels, shapes)
    )


def batch_keys(batch: Dict[str, object]) -> List[SampleKey]:
    """(label, image shape) of every sample of one collated loader batch."""
    labels = np.asarray(batch["labels"]).reshape(-1)
    images = batch["images"]
    if len(images) != len(labels):
        return []
    return [
        (int(label), tuple(int(x) for x in np.shape(img)))
        for label, img in zip(labels, images)
    ]


def check_batch(keys: Sequence[SampleKey], expected: Counter,
                size: int) -> bool:
    """Every sample of a batch is an input row: label exact and image
    shape matching that row's input; the batch has *size* samples."""
    return len(keys) == size and all(expected[k] > 0 for k in keys)


def check_epoch(seen: Counter, expected: Counter) -> bool:
    """Every row arrived exactly once in the epoch."""
    return seen == expected


# -- tql_scan ------------------------------------------------------------- #

def tql_oracle(shape: str, params: dict, cols: Dict[str, np.ndarray]):
    """The numpy answer to one generated query: selected rows in result
    order, or ``{group: mean}`` for the GROUP BY shape."""
    x, g, t = cols["x"], cols["g"], cols["t"]
    if shape == "scan":
        return np.nonzero(x > np.float32(params["c"]))[0]
    if shape == "selective":
        mask = (g == params["k"]) & (x < np.float32(params["c"]))
        return np.nonzero(mask)[0]
    if shape == "range":
        return np.nonzero((t >= params["a"]) & (t < params["b"]))[0]
    if shape == "group":
        return {
            int(k): float(np.mean(x[g == k], dtype=np.float64))
            for k in np.unique(g)
        }
    if shape == "topk":
        return np.argsort(x, kind="stable")[: params["limit"]]
    raise ValueError(f"unknown query shape {shape!r}")


def check_rows(got: Sequence[int], expected: np.ndarray) -> bool:
    got = np.asarray(list(got), dtype=np.int64)
    return got.shape == expected.shape and bool(np.all(got == expected))


def check_groups(got_keys: Sequence, got_means: Sequence,
                 expected: Dict[int, float]) -> bool:
    """Group means equal the oracle to float32 accumulation accuracy."""
    got = {
        int(np.asarray(k).reshape(-1)[0]): float(np.asarray(v).reshape(-1)[0])
        for k, v in zip(got_keys, got_means)
    }
    if sorted(got) != sorted(expected):
        return False
    return all(
        np.isclose(got[k], expected[k], rtol=1e-5, atol=1e-6) for k in got
    )


def check_values(got: np.ndarray, expected: np.ndarray) -> bool:
    got = np.asarray(got).reshape(-1)
    expected = np.asarray(expected).reshape(-1)
    return got.shape == expected.shape and bool(np.array_equal(got, expected))


# -- ingest_write --------------------------------------------------------- #

def check_ingest_step(labels: np.ndarray, shapes: Sequence[Tuple[int, ...]],
                      a: np.ndarray, b: np.ndarray, expected: dict) -> bool:
    """One write step's rows, read back from a fresh load, equal what the
    step wrote: labels and both scalar columns exact, image shapes."""
    return (
        check_values(labels, expected["labels"])
        and [tuple(s) for s in shapes] == [
            tuple(s) for s in expected["shapes"]]
        and check_values(a, expected["a"])
        and check_values(b, expected["b"])
    )


# -- serve_mixed ---------------------------------------------------------- #

def scalar_reshaped(got: np.ndarray, expected: np.ndarray) -> bool:
    """A 0-d sample that came back as a 1-element 1-d array.

    Known serve-tier defect: ``read_batch`` ships each sample through
    ``np.ascontiguousarray``, which turns 0-d arrays into shape ``(1,)``.
    :func:`check_columns` accepts exactly this reshape (values and dtype
    must still match) and the workload counts every occurrence.
    """
    return expected.ndim == 0 and got.shape == (1,)


def check_columns(got: Dict[str, List[np.ndarray]],
                  expected: Dict[str, List[np.ndarray]]) -> bool:
    """A served ``read_columns`` window equals the direct read of the same
    rows, sample for sample: dtype, shape (up to :func:`scalar_reshaped`)
    and values."""
    if sorted(got) != sorted(expected):
        return False
    for name, values in expected.items():
        column = got[name]
        if len(column) != len(values):
            return False
        for a, b in zip(column, values):
            a = np.asarray(a)
            b = np.asarray(b)
            if a.dtype != b.dtype:
                return False
            if a.shape != b.shape and not scalar_reshaped(a, b):
                return False
            if not np.array_equal(a.reshape(b.shape), b):
                return False
    return True
