"""Machine-speed normalization of wall-clock times.

On a shared machine the CPU's effective speed drifts by tens of percent
over seconds (other tenants on the same cores), which moves every
wall-clock figure with it.  :class:`SpeedMonitor` runs a fixed reference
computation every :data:`INTERVAL_S` on one background thread per CPU
the process may use (each pinned to its CPU where the platform allows),
and records its CPU time (``time.thread_time``, so waiting for the
interpreter lock or for a core does not count, only how fast the core
runs it).  A time measured over ``[t0, t1]`` is then reported at
reference speed:

    normalized = measured * REFERENCE_CPU_S / median reference CPU time
                 of the samples taken within WINDOW_S of [t0, t1]

so "ms" in the end-to-end metrics means milliseconds on a machine where
one :func:`reference` call costs :data:`REFERENCE_CPU_S` of CPU.  Raw
times are kept in every report beside the normalized ones.
"""

from __future__ import annotations

import os
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: CPU seconds one reference() call is scaled to
REFERENCE_CPU_S = 0.001
INTERVAL_S = 0.05
WINDOW_S = 0.25
#: at most this many CPUs are sampled (one thread each)
MAX_CPUS = 4

_SORT_INPUT = np.arange(512, dtype=np.float64)[::-1]


def reference() -> int:
    """Fixed interpreter-plus-numpy work, like the program's own mix."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    for _ in range(20):
        b = _SORT_INPUT.copy()
        b.sort()
        s += int(b[3])
    return s


class SpeedMonitor:
    """Samples the reference's CPU time on every CPU while a phase runs."""

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []  # (time, cpu seconds)
        self._stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))[:MAX_CPUS] \
            if hasattr(os, "sched_getaffinity") else [None]
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,),
                             name=f"speed-monitor-{cpu}", daemon=True)
            for cpu in cpus
        ]
        self._times = self._costs = None

    def _sample(self) -> None:
        c0 = time.thread_time()
        t0 = time.perf_counter()
        reference()
        cost = time.thread_time() - c0
        self.samples.append(((t0 + time.perf_counter()) / 2, cost))

    def _loop(self, cpu: Optional[int]) -> None:
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})  # this thread only
            except OSError:
                pass  # unpinned samples still track the machine
        self._sample()
        while not self._stop.wait(INTERVAL_S):
            self._sample()

    def __enter__(self) -> "SpeedMonitor":
        for th in self._threads:
            th.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        for th in self._threads:
            th.join()
        order = sorted(self.samples)
        self._times = np.asarray([t for t, _c in order])
        self._costs = np.asarray([c for _t, c in order])

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_CPU_S over the median reference cost near [t0, t1]
        (the nearest sample when none fell in the window)."""
        lo = np.searchsorted(self._times, t0 - WINDOW_S)
        hi = np.searchsorted(self._times, t1 + WINDOW_S, side="right")
        if hi > lo:
            cost = float(np.median(self._costs[lo:hi]))
        else:
            mid = (t0 + t1) / 2
            cost = float(self._costs[np.argmin(np.abs(self._times - mid))])
        return REFERENCE_CPU_S / cost

    def median_cost(self) -> float:
        return float(np.median(self._costs))
