"""Identifier generation for chunks, commits and samples.

Sample ids are stable identities used by merge to match rows across
branches (paper §4.2: "ids of samples are generated and stored during the
dataset population").  Chunk/commit ids only need uniqueness.

All generation flows through a module RNG so tests can make runs
deterministic via :func:`seed_ids`.
"""

from __future__ import annotations

import threading

import numpy as np

_lock = threading.Lock()
_rng = np.random.default_rng()


def seed_ids(seed: int | None) -> None:
    """Re-seed the id generator (``None`` restores OS entropy)."""
    global _rng
    with _lock:
        _rng = np.random.default_rng(seed)


def _hex(nbytes: int) -> str:
    with _lock:
        raw = _rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    return bytes(raw).hex()


def new_chunk_name() -> str:
    """8-byte hex chunk blob name.

    Must round-trip through :class:`ChunkIdEncoder`'s uint64 chunk ids
    (``int(name, 16)``), so exactly 16 hex chars.
    """
    return _hex(8)


def new_commit_id() -> str:
    """20-byte hex commit id."""
    return _hex(20)


def new_sample_ids(n: int) -> np.ndarray:
    """*n* random sample identities (stored in a hidden id tensor) as one
    int64 array.  A single ``size=n`` draw yields exactly the values of
    *n* successive :func:`new_sample_id` calls, so seeded ids do not
    depend on how rows were batched."""
    with _lock:
        return _rng.integers(1, np.iinfo(np.int64).max, size=n,
                             dtype=np.int64)


def new_sample_id() -> int:
    """One random sample identity (see :func:`new_sample_ids`)."""
    return int(new_sample_ids(1)[0])


def new_view_id() -> str:
    return _hex(8)


def new_trace_id() -> str:
    """16-byte hex trace identifier (observability spans)."""
    return _hex(16)


def new_span_id() -> str:
    """8-byte hex span identifier (observability spans)."""
    return _hex(8)
