"""In-memory span recorder for the traced benchmark run.

A span keeps its name, start, end, parent and trace id.  Spans are held
in memory and written out once, when the run ends.  The recorder never
touches the program: :func:`wrap_callable` wraps a public entry point so
every call records one span, and :meth:`Recorder.carry` moves the
caller's span onto the worker thread that runs a submitted task, so
spans recorded on pool threads keep their real parent.

A span that starts on a thread with no span of its own (and no carried
one) is parented to the benchmark operation in flight when exactly one
is; otherwise it cannot be parented and is counted in
:attr:`Recorder.unparented`.  Nothing is recorded inside
:meth:`Recorder.paused` blocks (the benchmark's own output checks).

Self time is a span's duration minus the union of its children's
intervals, each clipped to the parent's interval, so children that
overlap (pool threads working for one parent) are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


class Span:
    __slots__ = ("name", "span_id", "parent_id", "trace_id", "start", "end",
                 "attrs")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 trace_id: Optional[int], start: float,
                 attrs: Optional[dict] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = start
        self.end = start
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name, "id": self.span_id, "parent": self.parent_id,
            "trace": self.trace_id, "start": self.start, "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


#: stack marker of a paused block (see :meth:`Recorder.paused`)
PAUSED = Span("paused", 0, None, None, 0.0)


class Recorder:
    """Collects spans from every thread of the benchmark process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.unparented = 0
        self.adopted = 0
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._in_flight: Dict[int, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def operation(self, name: str, **attrs) -> Iterator[Span]:
        """One benchmark operation: the root span of a new trace."""
        sp = Span(name, next(self._ids), None, next(self._traces),
                  self.clock(), attrs)
        stack = self._stack()
        stack.append(sp)
        with self._lock:
            self._in_flight[sp.span_id] = sp
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()
            with self._lock:
                del self._in_flight[sp.span_id]
            self.spans.append(sp)

    def _parent(self) -> Optional[Span]:
        parent = self.current()
        if parent is not None:
            return parent
        with self._lock:
            ops = list(self._in_flight.values())
            if len(ops) == 1:
                self.adopted += 1
                return ops[0]
            self.unparented += 1
            return None

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing under this block, on this thread or on pool
        threads it hands work to (the benchmark's own output checks)."""
        stack = self._stack()
        stack.append(PAUSED)
        try:
            yield
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        """A layer span under the calling thread's current span (None,
        and nothing recorded, while paused)."""
        parent = self._parent()
        if parent is PAUSED:
            yield None
            return
        sp = Span(
            name, next(self._ids),
            parent.span_id if parent is not None else None,
            parent.trace_id if parent is not None else None,
            self.clock(), attrs,
        )
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            stack.pop()
            self.spans.append(sp)

    def carry(self, fn: Callable) -> Callable:
        """*fn* wrapped to run under the caller's current span, for tasks
        handed to another thread."""
        parent = self.current()
        if parent is None:
            return fn

        @functools.wraps(fn)
        def carried(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return carried


def wrap_callable(recorder: Recorder, fn: Callable, name: str,
                  attrs: Optional[Callable] = None) -> Callable:
    """*fn* recording one span named *name* per call; ``attrs(args,
    kwargs, result)`` may return a dict of span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as sp:
            result = fn(*args, **kwargs)
            if attrs is not None and sp is not None:
                sp.attrs = attrs(args, kwargs, result)
            return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores exactly."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]):
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, had_own))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def union_length(intervals: Iterable[Tuple[float, float]], lo: float,
                 hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals
        if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``{span_id: self seconds}`` for every span."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id].append((sp.start, sp.end))
    return {
        sp.span_id: sp.duration - union_length(
            children.get(sp.span_id, ()), sp.start, sp.end
        )
        for sp in spans
    }
