"""What every workload shares: the outcome of a measured phase, the
probe that reads the program's counts at operation boundaries, and the
clock that bounds a phase by time or by operation count."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench.layers import count_delta, program_counts
from perfbench.spans import Recorder

MAX_ERRORS = 5


@dataclass
class Outcome:
    """Everything one measured phase of a workload produced."""

    #: operations run (the unit a traced phase repeats: an epoch, a
    #: query, a write step, a served epoch)
    ops: int = 0
    #: checked outputs (batches, queries, write steps, served windows)
    attempted: int = 0
    failed: int = 0
    #: (start, end) of every output behind the p50 / tail metrics
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: per-operation throughput samples: (items, seconds, start, end);
    #: seconds may be less than end - start (checks are excluded)
    rates: List[Tuple[float, float, float, float]] = field(
        default_factory=list)
    #: wall seconds spent inside operations (trace overhead base)
    busy_s: float = 0.0
    loader_wait_s: float = 0.0
    loader_total_s: float = 0.0
    #: bytes stored by the datasets this phase wrote (write amplification)
    stored_bytes: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: tolerated, known program defects seen, by kind
    notes: Dict[str, int] = field(default_factory=dict)

    def note(self, kind: str, n: int) -> None:
        if n:
            self.notes[kind] = self.notes.get(kind, 0) + n

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(why)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: MAX_ERRORS - len(self.errors)])
        for kind, n in other.notes.items():
            self.note(kind, n)


class Probe:
    """Reads ``repro.obs.snapshot()`` before and after every operation
    and keeps the per-operation deltas of the program's counts."""

    def __init__(self):
        self.deltas: List[Dict[str, float]] = []

    @staticmethod
    def _counts() -> Dict[str, float]:
        import repro

        return program_counts(repro.obs.snapshot())

    @contextmanager
    def around(self) -> Iterator[None]:
        before = self._counts()
        yield
        self.deltas.append(count_delta(before, self._counts()))

    def total(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for d in self.deltas:
            for k, v in d.items():
                out[k] = out.get(k, 0.0) + v
        return out


def probed(probe: Optional[Probe]):
    """``probe.around()``, or nothing when no probe is attached."""
    return probe.around() if probe is not None else nullcontext()


def operation(recorder: Optional[Recorder], name: str, **attrs):
    """One benchmark operation (a trace root) when tracing."""
    return recorder.operation(name, **attrs) if recorder else nullcontext()


def unrecorded(recorder: Optional[Recorder]):
    """Benchmark-side work (checks, set-up inside a loop) kept out of
    the per-layer spans."""
    return recorder.paused() if recorder else nullcontext()


class Budget:
    """Bounds a phase by wall seconds or by a fixed operation count.

    A time-bounded phase always finishes the operation in progress and
    runs at least one.
    """

    def __init__(self, seconds: Optional[float] = None,
                 max_ops: Optional[int] = None):
        if (seconds is None) == (max_ops is None):
            raise ValueError("give exactly one of seconds / max_ops")
        self.seconds = seconds
        self.max_ops = max_ops
        self.start = time.perf_counter()

    def more(self, done: int) -> bool:
        if self.max_ops is not None:
            return done < self.max_ops
        return done == 0 or time.perf_counter() - self.start < self.seconds
