"""Order statistics shared by the workloads.

Timings are reported as a median plus one fixed *tail* percentile per
workload.  The tail is the highest percentile on a fixed ladder that
still leaves at least :data:`MIN_BEYOND` samples beyond it at the run
length the benchmark fixes; each workload pins its percentile as a
constant (chosen with :func:`tail_percentile` at its typical sample
count) so the metric means the same thing on every run and commit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: samples a tail percentile must leave beyond it
MIN_BEYOND = 10

#: the percentiles a tail may be reported at, lowest first
LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)


def samples_beyond(n: int, pct: float) -> float:
    """How many of *n* samples lie beyond the *pct*-th percentile."""
    return round(n * (100.0 - pct) / 100.0, 9)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest ladder percentile with at least *min_beyond* of *n*
    samples beyond it; 0.0 when even the median leaves too few."""
    best = 0.0
    for pct in LADDER:
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not len(values):
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)
