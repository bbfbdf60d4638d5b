"""ChunkEngine: per-tensor orchestration of the Tensor Storage Format.

One engine owns everything between a tensor's public API and raw storage:

- chunk construction within [min, max] size bounds (§3.4), sample vs chunk
  compression, tiling of oversize samples, the video no-tiling exception;
- the compressed index map (:class:`ChunkIdEncoder`) plus tile / sequence /
  pad encoders;
- version-aware chunk resolution: reads walk the commit chain and take the
  first commit whose chunk_set contains the chunk (§4.2), writes
  copy-on-write chunks owned by ancestor commits;
- partial (ranged) reads of single samples out of big chunks, with a
  decoded-chunk LRU buffer ("maintaining a buffer cache of fetched and
  unutilized data", §3.5);
- the on-the-fly :meth:`rechunk` layout optimiser;
- sparse out-of-bounds assignment via padding (strict mode off).

The ReadPlan layer
------------------
Chunks exist so that one fetch + one decompress amortizes over many
samples (§3.4–3.5), so every multi-row consumer goes through a shared
batched read path instead of N independent :meth:`read_sample` calls:

- :meth:`plan_reads` turns an array of sample indices into a
  :class:`ReadPlan`: rows are range-checked and resolved through
  :class:`ChunkIdEncoder` in one vectorized lookup and grouped by owning
  chunk as arrays (version-aware — each chunk's storage key is resolved
  against the commit chain exactly once), with tiled samples, sequence
  samples, and sparse padding handled in the plan;
- :meth:`execute_plan` runs a plan: every missing chunk is fetched in
  one :meth:`~repro.storage.provider.StorageProvider.get_many` call and
  decompressed once into the decoded-chunk cache; fixed-shape numeric
  samples are sliced per chunk into one typed :class:`Column`, every
  other kind is decoded item by item;
- :meth:`read_shapes_batch` answers bulk shape lookups from one header
  (or cached chunk) per chunk instead of per-row metadata reads.

``Dataset.read_rows``, the dataloader's group fetch, TQL's column scans,
and the Tensor Streaming Server's ``read_batch`` op all ride this one
path, so a full-column scan costs one storage GET per chunk.  The
``chunk_cache_hits`` / ``chunk_cache_misses`` counters make the batching
observable from loader stats and per-tenant serve stats.
"""

from __future__ import annotations

import collections.abc
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compression import (
    compress_array,
    decompress_array,
    get_codec,
)
from repro.core.chunk import Chunk, ChunkHeader
from repro.core.encoders import (
    ChunkIdEncoder,
    PadEncoder,
    SequenceEncoder,
    TileEncoder,
)
from repro.core.meta import TensorMeta
from repro.core.sample import LinkedSample, Sample
from repro.core.version_state import VersionState
from repro.core import tiling
from repro.core.htypes import validate_sample
from repro.exceptions import (
    FormatError,
    KeyNotFound,
    LinkError,
    SampleIndexError,
)
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.storage.provider import StorageProvider
from repro.util import keys as K
from repro.util.json_util import json_dumps, json_loads

_HEADER_PROBE = 4096  # first ranged request size when reading chunk headers
_CHUNK_CACHE_BYTES = 64 * 1024 * 1024

#: Write-pipeline knobs (process-global, mirroring the ReadPlan layer):
#: ``enabled`` buffers finalized chunks in memory and uploads them in
#: batched :meth:`~repro.storage.provider.StorageProvider.set_many` calls
#: (one request overhead per batch on object storage) with flush ordering
#: chunks -> encoders -> meta; disabled is the pre-pipeline serial path
#: (one PUT per chunk at finalize time, individual bookkeeping writes) kept
#: as the benchmark ablation.  ``workers`` bounds the serialization /
#: compression thread pool; ``watermark_chunks`` is how many finalized
#: chunks may accumulate before a commit triggers a background-free upload
#: batch, bounding write-buffer memory to ~watermark * max_chunk_size.
_WRITE_PIPELINE = {"enabled": True, "workers": 4, "watermark_chunks": 8}


@contextmanager
def write_pipeline(enabled=None, workers=None, watermark_chunks=None):
    """Temporarily reconfigure the write pipeline (tests / ablations).

    ``with write_pipeline(enabled=False): ...`` restores the serial
    one-PUT-per-chunk write path; ``workers=1`` keeps batching but drops
    parallel serialization.
    """
    prev = dict(_WRITE_PIPELINE)
    if enabled is not None:
        _WRITE_PIPELINE["enabled"] = bool(enabled)
    if workers is not None:
        _WRITE_PIPELINE["workers"] = max(1, int(workers))
    if watermark_chunks is not None:
        _WRITE_PIPELINE["watermark_chunks"] = max(1, int(watermark_chunks))
    try:
        yield
    finally:
        _WRITE_PIPELINE.clear()
        _WRITE_PIPELINE.update(prev)


#: Read-pipeline knobs (process-global, the read mirror of
#: ``_WRITE_PIPELINE``): ``enabled`` dispatches per-chunk decode and
#: per-sample slicing work of a :class:`ReadPlan` to the shared decode
#: pool (numpy/lz4/jpeg decode releases the GIL) and lets consumers fuse
#: the per-tensor plans of one request into a single
#: :meth:`~repro.storage.provider.StorageProvider.get_many`
#: (:class:`FusedReadPlan`); disabled restores the serial
#: one-plan-per-tensor execution exactly (the benchmark ablation).
#: ``workers`` bounds the process-global decode pool.
_READ_PIPELINE = {
    "enabled": True,
    "workers": max(2, min(8, os.cpu_count() or 4)),
}

_DECODE_POOL: Optional[ThreadPoolExecutor] = None
_DECODE_POOL_WORKERS = 0
_DECODE_POOL_LOCK = threading.Lock()
_DECODE_THREAD_PREFIX = "decode-pool"


@contextmanager
def read_pipeline(enabled=None, workers=None):
    """Temporarily reconfigure the read pipeline (tests / ablations).

    ``with read_pipeline(enabled=False): ...`` restores the serial read
    path: plans execute on the calling thread and every tensor issues its
    own ``get_many``; ``workers=N`` resizes the shared decode pool.
    """
    prev = dict(_READ_PIPELINE)
    if enabled is not None:
        _READ_PIPELINE["enabled"] = bool(enabled)
    if workers is not None:
        _READ_PIPELINE["workers"] = max(1, int(workers))
    try:
        yield
    finally:
        _READ_PIPELINE.clear()
        _READ_PIPELINE.update(prev)


def read_pipeline_enabled() -> bool:
    """Whether parallel plan execution / cross-tensor fusion is on."""
    return bool(_READ_PIPELINE["enabled"])


def _decode_pool() -> ThreadPoolExecutor:
    """The process-global decode pool, resized lazily when the configured
    worker count changes (old pools drain in the background)."""
    global _DECODE_POOL, _DECODE_POOL_WORKERS
    workers = max(1, int(_READ_PIPELINE["workers"]))
    with _DECODE_POOL_LOCK:
        if _DECODE_POOL is None or _DECODE_POOL_WORKERS != workers:
            if _DECODE_POOL is not None:
                _DECODE_POOL.shutdown(wait=False)
            _DECODE_POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=_DECODE_THREAD_PREFIX
            )
            _DECODE_POOL_WORKERS = workers
        return _DECODE_POOL


def _read_parallelism() -> int:
    """Usable decode-pool fan-out for the current calling context.

    Work already running *on* a decode-pool thread (e.g. a server-push
    prefetch executing a fused plan) must not block on nested pool
    submissions — with every worker waiting on sub-tasks the pool would
    deadlock — so nested calls run serially on the worker itself.
    """
    if not _READ_PIPELINE["enabled"]:
        return 1
    if threading.current_thread().name.startswith(_DECODE_THREAD_PREFIX):
        return 1
    return max(1, int(_READ_PIPELINE["workers"]))


class _PrunedCell:
    """Sentinel returned by :meth:`ChunkEngine.execute_plan` for rows whose
    chunk was skipped by statistics pushdown: the chunk's [min, max] proves
    no sample in it can satisfy the predicate, so the cell was never
    fetched.  Falsy, so predicate code treats it as a non-match."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "<pruned>"


PRUNED = _PrunedCell()


class CommitDiff:
    """Per-tensor per-commit change record (feeds diff & merge, §4.2)."""

    def __init__(self, first_index: int = 0, created: bool = False):
        self.created = created
        self.first_index = int(first_index)  # tensor length at commit start
        self.num_added = 0
        self.updated: Set[int] = set()

    @property
    def added_range(self) -> Tuple[int, int]:
        return self.first_index, self.first_index + self.num_added

    def add(self, count: int = 1) -> None:
        self.num_added += count

    def update(self, index: int) -> None:
        if index < self.first_index or index >= self.first_index + self.num_added:
            self.updated.add(int(index))

    def to_json(self) -> bytes:
        return json_dumps(
            {
                "created": self.created,
                "first_index": self.first_index,
                "num_added": self.num_added,
                "updated": sorted(self.updated),
            }
        )

    @classmethod
    def from_json(cls, data: bytes) -> "CommitDiff":
        obj = json_loads(data)
        diff = cls(obj.get("first_index", 0), obj.get("created", False))
        diff.num_added = obj.get("num_added", 0)
        diff.updated = set(obj.get("updated", []))
        return diff


class ReadPlan:
    """Chunk-granular execution plan for one batched read.

    A plan is tensor-local and commit-resolved: every referenced chunk's
    storage key has already been walked through the version tree, so
    executing the plan is pure I/O + slicing.  It covers ``num_items``
    *flat* items in request order (one per requested row; sequence rows
    expand to their item ranges), described by arrays of item positions:

    - ``chunks``: chunk name -> ``(positions, locals)`` int64 arrays —
      the items that are plain samples of that chunk, and their local
      indices within it;
    - ``tiled``: ``(position, sample index, chunk names)`` per item tiled
      across dedicated chunks (all of them are in the fetch set);
    - ``padded``: positions of sparse padding (no storage access);
    - ``pruned``: positions whose chunk statistics pushdown skipped.

    For sequence tensors ``seq_spans`` records each requested row's
    ``(start, count)`` span over the items so results reassemble into
    per-row sequences.
    """

    __slots__ = ("tensor", "row_array", "num_items", "chunks", "tiled",
                 "padded", "pruned", "chunk_keys", "active_chunks",
                 "seq_spans", "skipped_chunks")

    def __init__(self, tensor: str):
        self.tensor = tensor
        #: normalized requested rows (int64)
        self.row_array: np.ndarray = np.empty(0, dtype=np.int64)
        self.num_items = 0
        self.chunks: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.tiled: List[Tuple[int, int, Tuple[str, ...]]] = []
        self.padded: Optional[np.ndarray] = None
        self.pruned: Optional[np.ndarray] = None
        self.chunk_keys: Dict[str, str] = {}  # chunk -> resolved storage key
        self.active_chunks: Set[str] = set()  # in-memory write-back chunks
        self.seq_spans: Optional[List[Tuple[int, int]]] = None
        #: chunks proven irrelevant by statistics pushdown (never fetched)
        self.skipped_chunks: Set[str] = set()

    @property
    def rows(self) -> List[int]:
        """The normalized requested rows as Python ints."""
        return self.row_array.tolist()

    @property
    def num_chunks(self) -> int:
        """Distinct chunks the plan touches (fetchable + active)."""
        return len(self.chunk_keys) + len(self.active_chunks)

    @property
    def num_fetches(self) -> int:
        """Upper bound on storage GETs this plan can issue."""
        return len(self.chunk_keys)

    def pruned_mask(self) -> Optional[np.ndarray]:
        """Boolean item mask of :attr:`pruned`, or None when nothing was
        pruned."""
        if self.pruned is None:
            return None
        mask = np.zeros(self.num_items, dtype=bool)
        mask[self.pruned] = True
        return mask

    def __repr__(self) -> str:
        return (
            f"ReadPlan(tensor={self.tensor!r}, rows={len(self.row_array)}, "
            f"items={self.num_items}, chunks={self.num_chunks}, "
            f"fetches={self.num_fetches})"
        )


class Column(collections.abc.Sequence):
    """What :meth:`ChunkEngine.execute_plan` returns: one value per
    planned row, in request order.

    ``array`` is the dense typed column — a leading row axis over
    fixed-shape samples — when the plan qualified for the dense fast
    path, else None; per-row consumers index or iterate the column and
    get 0-d/n-d views of ``array`` (or the per-row values otherwise).
    ``pruned`` marks rows statistics pushdown skipped (their value is
    :data:`PRUNED`), or is None when nothing was pruned.
    """

    __slots__ = ("array", "pruned", "_values")

    def __init__(self, array: Optional[np.ndarray] = None,
                 values: Optional[List] = None,
                 pruned: Optional[np.ndarray] = None):
        self.array = array
        self.pruned = pruned
        self._values = values

    def tolist(self) -> List:
        if self._values is None:
            arr = self.array
            values = [arr[i, ...] for i in range(len(arr))]
            if self.pruned is not None:
                for i in np.flatnonzero(self.pruned).tolist():
                    values[i] = PRUNED
            self._values = values
        return self._values

    def __len__(self) -> int:
        if self._values is None:
            return len(self.array)
        return len(self._values)

    def __getitem__(self, i):
        return self.tolist()[i]

    def __iter__(self):
        return iter(self.tolist())

    def __repr__(self) -> str:
        kind = "dense" if self.array is not None else "values"
        return f"Column({kind}, rows={len(self)})"


class WritePlan:
    """Staged samples awaiting an atomic commit — the write mirror of
    :class:`ReadPlan`.

    Staging (:meth:`ChunkEngine.stage_appends`) runs every fallible step —
    coercion, validation, sample compression — *without touching engine
    state*.  Committing (:meth:`ChunkEngine.commit_appends`) then only
    moves already-serialized payloads into chunks and registers them,
    under the engine lock, with a cheap truncation snapshot so a failure
    anywhere in the batch rolls the engine back to the pre-commit state.

    A plan holds either one *dense segment* or per-row entries:

    - ``dense`` is ``(column, raw)`` when the whole batch is one
      fixed-shape numeric array — ``column`` stacks the coerced samples
      on a leading row axis and ``raw`` is its C-order bytes, so every
      sample has the same size and commit places whole runs of rows per
      chunk;
    - otherwise ``entries`` holds one spec per appended row, in request
      order: ``("flat", value, [(raw, shape, arr)])`` for plain samples
      (one payload) and ``("seq", value, [(raw, shape, arr), ...])`` for
      sequence rows (one payload per item).
    """

    __slots__ = ("tensor", "entries", "dense")

    def __init__(self, tensor: str):
        self.tensor = tensor
        self.entries: List[Tuple] = []
        self.dense: Optional[Tuple[np.ndarray, bytes]] = None

    @property
    def num_rows(self) -> int:
        if self.dense is not None:
            return len(self.dense[0])
        return len(self.entries)

    @property
    def num_bytes(self) -> int:
        if self.dense is not None:
            return len(self.dense[1])
        return sum(
            len(raw) for _k, _v, payloads in self.entries
            for raw, _shape, _arr in payloads
        )

    def __repr__(self) -> str:
        return (
            f"WritePlan(tensor={self.tensor!r}, rows={self.num_rows}, "
            f"bytes={self.num_bytes})"
        )


class ChunkEngine:
    """Reads and writes one tensor's chunks against a storage provider."""

    def __init__(
        self,
        tensor: str,
        storage: StorageProvider,
        version_state: VersionState,
        meta: Optional[TensorMeta] = None,
        cache_bytes: int = _CHUNK_CACHE_BYTES,
    ):
        self.tensor = tensor
        self.storage = storage
        self.version_state = version_state
        self._lock = threading.RLock()

        # decoded-chunk buffer cache + header cache (shared across commits;
        # keys are full storage keys so versions never alias)
        self._chunk_cache: "OrderedDict[str, Chunk]" = OrderedDict()
        self._chunk_cache_bytes = 0
        self._chunk_cache_budget = cache_bytes
        self._header_cache: Dict[str, ChunkHeader] = {}

        # per-ancestor-commit chunk_set cache
        self._ancestor_chunk_sets: Dict[str, Set[str]] = {}

        # per-chunk column statistics sidecar (min/max/count/shape bounds),
        # the input to predicate pushdown: a chunk whose [min, max] cannot
        # satisfy a WHERE predicate is skipped before any GET.  A missing
        # entry means "never computed"; an explicit ``None`` means the
        # chunk's content is not fully observable (e.g. pre-encoded Sample
        # fast-path appends), so pruning must not trust it.
        self.chunk_stats: Dict[str, Optional[dict]] = {}

        # I/O accounting: all counts are registry-backed metrics.  Each
        # engine keeps *standalone* Counter handles (exact per-engine
        # views, exposed through the read-only properties below — the one
        # source the loader's and serve tier's stats read from) and
        # mirrors every event into the tensor-labeled aggregate series so
        # one registry snapshot explains I/O across all engines.
        reg = _metrics.REGISTRY
        self._c_partial = _metrics.Counter(reg)
        self._c_full = _metrics.Counter(reg)
        self._c_hits = _metrics.Counter(reg)
        self._c_misses = _metrics.Counter(reg)
        self._m_partial = reg.counter(
            "chunk_engine.partial_reads", tensor=tensor
        )
        self._m_full = reg.counter(
            "chunk_engine.full_chunk_reads", tensor=tensor
        )
        self._m_hits = reg.counter(
            "chunk_engine.decoded_cache_hits", tensor=tensor
        )
        self._m_misses = reg.counter(
            "chunk_engine.decoded_cache_misses", tensor=tensor
        )
        self._m_chunks_planned = reg.counter(
            "chunk_engine.chunks_planned", tensor=tensor
        )
        self._m_bytes_decoded = reg.counter(
            "chunk_engine.bytes_decoded", tensor=tensor
        )
        self._h_decode = reg.histogram(
            "chunk_engine.decode_seconds", tensor=tensor
        )
        self._h_plan_chunks = reg.histogram(
            "chunk_engine.plan_chunks", tensor=tensor
        )

        self._m_chunks_flushed = reg.counter(
            "chunk_engine.chunks_flushed", tensor=tensor
        )
        self._h_flush_batch = reg.histogram(
            "chunk_engine.flush_batch_chunks", tensor=tensor
        )
        # read-pipeline accounting: wall time a plan spent fanned out on
        # the shared decode pool, and how many chunks were decoded/sliced
        # there instead of on the calling thread
        self._h_decode_pool = reg.histogram(
            "engine.decode_pool_seconds", tensor=tensor
        )
        self._m_parallel_chunks = reg.counter(
            "engine.parallel_chunks", tensor=tensor
        )

        # write-back chunk being filled by appends (not yet in storage)
        self._active_chunk: Optional[Chunk] = None
        # finalized chunks buffered for a batched upload (write pipeline);
        # authoritative until _flush_pending hands them to storage — every
        # read path consults _mem_chunk() so buffered data stays readable
        self._pending_chunks: "OrderedDict[str, Chunk]" = OrderedDict()

        if meta is not None:
            self.meta = meta
            self.enc = ChunkIdEncoder()
            self.tile_enc = TileEncoder()
            self.seq_enc = SequenceEncoder()
            self.pad_enc = PadEncoder()
            self.chunk_set: Set[str] = set()
            self.commit_diff = CommitDiff(0, created=True)
            self._dirty = True
        else:
            self._load_state()

    # ------------------------------------------------------------------ #
    # state load/save
    # ------------------------------------------------------------------ #

    @property
    def commit_id(self) -> str:
        return self.version_state.commit_id

    def _state_key(self, key_fn) -> str:
        return key_fn(self.commit_id, self.tensor)

    def _read_versioned(self, key_fn) -> Optional[bytes]:
        """First hit walking the commit chain, else None."""
        for cid in self.version_state.commit_chain():
            try:
                return self.storage[key_fn(cid, self.tensor)]
            except KeyError:
                continue
        return None

    def _load_state(self) -> None:
        data = self._read_versioned(K.tensor_meta_key)
        if data is None:
            raise FormatError(
                f"tensor {self.tensor!r} has no metadata at commit "
                f"{self.commit_id!r}"
            )
        self.meta = TensorMeta.from_json(data)

        enc = self._read_versioned(K.chunk_id_encoder_key)
        self.enc = ChunkIdEncoder.frombytes(enc) if enc else ChunkIdEncoder()
        tile = self._read_versioned(K.tile_encoder_key)
        self.tile_enc = TileEncoder.frombytes(tile) if tile else TileEncoder()
        seq = self._read_versioned(K.sequence_encoder_key)
        self.seq_enc = SequenceEncoder.frombytes(seq) if seq else SequenceEncoder()
        pad = self._read_versioned(K.pad_encoder_key)
        self.pad_enc = PadEncoder.frombytes(pad) if pad else PadEncoder()

        # statistics sidecar: merge the whole commit chain, nearest commit
        # wins (a rewritten chunk's fresh stats shadow the ancestor's)
        self.chunk_stats = {}
        for cid in reversed(self.version_state.commit_chain()):
            try:
                blob = self.storage[K.chunk_stats_key(cid, self.tensor)]
            except KeyError:
                continue
            self.chunk_stats.update(json_loads(blob))

        # chunk_set / commit_diff belong strictly to the current commit
        try:
            self.chunk_set = set(
                json_loads(self.storage[self._state_key(K.chunk_set_key)])
            )
        except KeyError:
            self.chunk_set = set()
        try:
            self.commit_diff = CommitDiff.from_json(
                self.storage[self._state_key(K.commit_diff_key)]
            )
        except KeyError:
            self.commit_diff = CommitDiff(self.meta.length)
        self._dirty = False

    def _encoder_items(self) -> Dict[str, bytes]:
        items = {
            self._state_key(K.chunk_id_encoder_key): self.enc.tobytes()
        }
        if self.tile_enc.num_tiled:
            items[self._state_key(K.tile_encoder_key)] = self.tile_enc.tobytes()
        if self.meta.is_sequence:
            items[self._state_key(K.sequence_encoder_key)] = (
                self.seq_enc.tobytes()
            )
        if self.pad_enc.num_padded:
            items[self._state_key(K.pad_encoder_key)] = self.pad_enc.tobytes()
        return items

    def _meta_items(self) -> Dict[str, bytes]:
        items = {
            self._state_key(K.tensor_meta_key): self.meta.to_json(),
            self._state_key(K.chunk_set_key): json_dumps(
                sorted(self.chunk_set)
            ),
        }
        if self.chunk_stats:
            items[self._state_key(K.chunk_stats_key)] = json_dumps(
                self.chunk_stats
            )
        items[self._state_key(K.commit_diff_key)] = self.commit_diff.to_json()
        return items

    def flush(self) -> None:
        """Persist buffered chunks, meta, encoders and bookkeeping for the
        current commit — in crash-consistent order.

        Durability order is chunk payloads, then encoders, then
        meta/bookkeeping: a crash between stages strands at worst
        unreferenced chunk blobs (garbage), never an encoder or meta file
        pointing at a chunk that was never uploaded.  With the write
        pipeline enabled each stage goes down as one batched ``set_many``;
        disabled, the pre-pipeline individual writes are kept (the serial
        benchmark ablation), with the same ordering guarantee.
        """
        with self._lock:
            self._finalize_active()
            self._flush_pending()
            if not self._dirty:
                return
            if _WRITE_PIPELINE["enabled"]:
                self.storage.set_many(self._encoder_items())
                self.storage.set_many(self._meta_items())
            else:
                for items in (self._encoder_items(), self._meta_items()):
                    for key, value in items.items():
                        self.storage[key] = value
            self._dirty = False

    def reload(self) -> None:
        """Drop in-memory state and reread from storage (after checkout)."""
        with self._lock:
            self.flush()
            self._ancestor_chunk_sets.clear()
            self._chunk_cache.clear()
            self._chunk_cache_bytes = 0
            self._header_cache.clear()
            self._load_state()

    def begin_new_commit(self) -> None:
        """Reset per-commit bookkeeping after the head moved to a child.

        Must be called *after* the old state was flushed and the shared
        :class:`VersionState` points at the new head commit.
        """
        with self._lock:
            self._active_chunk = None
            self._pending_chunks.clear()
            self.chunk_set = set()
            self.commit_diff = CommitDiff(self.num_samples)
            self._ancestor_chunk_sets.clear()
            self._dirty = True
            self.flush()

    @property
    def has_changes(self) -> bool:
        d = self.commit_diff
        return bool(d.num_added or d.updated or d.created)

    # ------------------------------------------------------------------ #
    # chunk storage resolution (version tree walk)
    # ------------------------------------------------------------------ #

    def _ancestor_chunk_set(self, cid: str) -> Set[str]:
        if cid not in self._ancestor_chunk_sets:
            try:
                names = set(json_loads(self.storage[K.chunk_set_key(cid, self.tensor)]))
            except KeyError:
                names = set()
            self._ancestor_chunk_sets[cid] = names
        return self._ancestor_chunk_sets[cid]

    def _chunk_storage_key(self, chunk_name: str) -> str:
        chain = self.version_state.commit_chain()
        for cid in chain:
            owned = (
                self.chunk_set
                if cid == self.commit_id
                else self._ancestor_chunk_set(cid)
            )
            if chunk_name in owned:
                return K.chunk_key(cid, self.tensor, chunk_name)
        # legacy fallback: unversioned dataset written at the root
        return K.chunk_key(K.FIRST_COMMIT_ID, self.tensor, chunk_name)

    def _chunk_owned_by_current(self, chunk_name: str) -> bool:
        return chunk_name in self.chunk_set

    # ------------------------------------------------------------------ #
    # I/O accounting (registry-backed; ad-hoc int fields are gone)
    # ------------------------------------------------------------------ #

    @property
    def partial_reads(self) -> int:
        """Ranged single-sample reads this engine issued (§3.5 path)."""
        return self._c_partial.value

    @property
    def full_chunk_reads(self) -> int:
        """Whole-chunk fetch+decode operations this engine performed."""
        return self._c_full.value

    @property
    def chunk_cache_hits(self) -> int:
        """Decoded-chunk buffer cache hits (one source of truth; loader
        and serve stats are views over this)."""
        return self._c_hits.value

    @property
    def chunk_cache_misses(self) -> int:
        return self._c_misses.value

    def _count_partial_read(self) -> None:
        self._c_partial.inc()
        self._m_partial.inc()

    def _decode_chunk(self, blob: bytes, name: str) -> Chunk:
        """Parse *blob* into a Chunk, charging decode accounting."""
        t0 = time.perf_counter()
        chunk = Chunk.frombytes(blob, name=name)
        self._h_decode.observe(time.perf_counter() - t0)
        self._c_full.inc()
        self._m_full.inc()
        self._m_bytes_decoded.inc(len(blob))
        self._lazy_stats(name, chunk)
        return chunk

    # ------------------------------------------------------------------ #
    # chunk cache
    # ------------------------------------------------------------------ #

    def _cache_put(self, key: str, chunk: Chunk) -> None:
        size = len(chunk.data)
        if size > self._chunk_cache_budget:
            return
        with self._lock:
            if key in self._chunk_cache:
                self._chunk_cache_bytes -= len(self._chunk_cache.pop(key).data)
            while (
                self._chunk_cache
                and self._chunk_cache_bytes + size > self._chunk_cache_budget
            ):
                _, old = self._chunk_cache.popitem(last=False)
                self._chunk_cache_bytes -= len(old.data)
            self._chunk_cache[key] = chunk
            self._chunk_cache_bytes += size

    def _cache_get(self, key: str) -> Optional[Chunk]:
        with self._lock:
            chunk = self._chunk_cache.get(key)
            if chunk is not None:
                self._chunk_cache.move_to_end(key)
                self._c_hits.inc()
                self._m_hits.inc()
            else:
                self._c_misses.inc()
                self._m_misses.inc()
            return chunk

    def _cache_peek(self, key: str) -> Optional[Chunk]:
        """Like :meth:`_cache_get` but without touching the hit/miss
        counters — for metadata lookups (shapes) that fall back to cheap
        header reads and must not distort payload-cache accounting."""
        with self._lock:
            chunk = self._chunk_cache.get(key)
            if chunk is not None:
                self._chunk_cache.move_to_end(key)
            return chunk

    def _cache_drop(self, key: str) -> None:
        with self._lock:
            chunk = self._chunk_cache.pop(key, None)
            if chunk is not None:
                self._chunk_cache_bytes -= len(chunk.data)
            self._header_cache.pop(key, None)

    def _mem_chunk(self, name: str) -> Optional[Chunk]:
        """The in-memory authoritative copy of chunk *name*, if any: the
        active write-back chunk or a finalized chunk still buffered for
        upload.  Every read path checks here before touching storage, so
        buffered writes are immediately readable."""
        active = self._active_chunk
        if active is not None and active.name == name:
            return active
        return self._pending_chunks.get(name)

    def _load_chunk(self, chunk_name: str) -> Chunk:
        mem = self._mem_chunk(chunk_name)
        if mem is not None:
            return mem
        key = self._chunk_storage_key(chunk_name)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        blob = self.storage[key]
        chunk = self._decode_chunk(blob, chunk_name)
        self._cache_put(key, chunk)
        return chunk

    def _load_header(self, chunk_name: str) -> Tuple[str, ChunkHeader]:
        key = self._chunk_storage_key(chunk_name)
        header = self._header_cache.get(key)
        if header is None:
            prefix = self.storage.get_bytes(key, 0, _HEADER_PROBE)
            hlen = Chunk.peek_header_len(prefix)
            if hlen > len(prefix):
                prefix = self.storage.get_bytes(key, 0, hlen)
            header = Chunk.parse_header(prefix[:hlen])
            with self._lock:
                self._header_cache[key] = header
        return key, header

    # ------------------------------------------------------------------ #
    # chunk statistics sidecar (predicate pushdown input)
    # ------------------------------------------------------------------ #
    #
    # Lakehouse-style per-chunk column statistics: min/max over every
    # element plus shape bounds and a sample count.  Invariant: an entry
    # present in ``chunk_stats`` covers *all* samples of that chunk —
    # writers widen it on every append/update, and anything that cannot
    # be observed (pre-encoded Sample payloads, links) poisons the entry
    # to ``None`` so pruning never trusts a partial view.

    def _stats_eligible(self) -> bool:
        m = self.meta
        if m.is_link or m.is_text or m.is_json or m.dtype is None:
            return False
        return np.dtype(m.dtype).kind in "biuf"

    def _stats_init(self, name: str) -> None:
        self.chunk_stats[name] = {
            "min": None, "max": None, "count": 0,
            "shape_min": None, "shape_max": None,
        }

    def _stats_observe(self, name: str, arr: Optional[np.ndarray],
                       count: int = 1,
                       shape: Optional[Tuple[int, ...]] = None) -> None:
        """Widen chunk *name*'s stats with *count* observed samples: *arr*
        is the one sample, or — with *shape* giving the per-sample shape
        — the samples stacked on a leading axis.

        No-op when the chunk has no entry (stats were never initialised
        for it, e.g. pre-PR chunks); poisons the entry when the sample is
        not observable so a stale range can never mis-prune.
        """
        entry = self.chunk_stats.get(name, False)
        if entry is False or entry is None:
            return
        if arr is None or not self._stats_eligible():
            self.chunk_stats[name] = None
            return
        entry["count"] += count
        if arr.size:
            lo = arr.min().item()
            hi = arr.max().item()
            entry["min"] = lo if entry["min"] is None else min(entry["min"], lo)
            entry["max"] = hi if entry["max"] is None else max(entry["max"], hi)
        shape = list(arr.shape if shape is None else shape)
        for key, fn in (("shape_min", min), ("shape_max", max)):
            prev = entry[key]
            if prev == "n/a":
                continue
            if prev is None:
                entry[key] = shape
            elif len(prev) == len(shape):
                entry[key] = [fn(a, b) for a, b in zip(prev, shape)]
            else:  # mixed rank: no usable bound, permanently
                entry[key] = "n/a"
        self._dirty = True

    def _stats_from_chunk(self, chunk: Chunk) -> Optional[dict]:
        """Full stats for an already-decoded chunk (all samples visible)."""
        self._stats_init(chunk.name)
        for i in range(chunk.num_samples):
            try:
                arr = self._deserialize_sample(
                    chunk.read_bytes(i), chunk.read_shape(i)
                )
            except Exception:  # noqa: BLE001 - undecodable => unprunable
                arr = None
            self._stats_observe(chunk.name, arr)
        return self.chunk_stats.pop(chunk.name)

    def _lazy_stats(self, name: str, chunk: Chunk) -> None:
        """Opportunistic backfill when a pre-stats chunk gets decoded.

        Only for uncompressed-sample tensors, where the chunk's data
        section *is* the concatenated arrays — one ``frombuffer`` covers
        every element with no extra decode work.  In-memory only: reads
        must not trigger writes on possibly read-only datasets, but the
        entry rides along with the next dirty :meth:`flush`.
        """
        if not self._stats_eligible() or self.meta.sample_compression:
            return
        with self._lock:
            if name in self.chunk_stats:
                return
            try:
                flat = np.frombuffer(chunk.data, dtype=np.dtype(self.meta.dtype))
            except ValueError:
                return
            entry = {
                "min": flat.min().item() if flat.size else None,
                "max": flat.max().item() if flat.size else None,
                "count": chunk.num_samples,
                "shape_min": None,
                "shape_max": None,
            }
            shapes = chunk.shape_array()
            if len(shapes):
                entry["shape_min"] = shapes.min(axis=0).tolist()
                entry["shape_max"] = shapes.max(axis=0).tolist()
            self.chunk_stats[name] = entry

    def backfill_chunk_stats(self, persist: bool = True) -> int:
        """Compute statistics for every chunk that predates the sidecar.

        Decodes each missing chunk once (any codec) and records full
        stats, so old datasets gain pushdown without a rewrite.  Returns
        the number of chunks backfilled.
        """
        if not self._stats_eligible():
            return 0
        names: List[str] = []
        seen: Set[str] = set()
        for cid, _s, _e in self.enc.chunk_ranges():
            name = ChunkIdEncoder.name_from_id(cid)
            if name not in seen:
                seen.add(name)
                names.append(name)
        done = 0
        for name in names:
            if name in self.chunk_stats:
                continue
            try:
                chunk = self._load_chunk(name)
            except KeyError:
                continue
            self.chunk_stats[name] = self._stats_from_chunk(chunk)
            done += 1
        if done and persist:
            self._dirty = True
            self.flush()
        return done

    def _is_prunable(self, name: str, bounds) -> bool:
        """True iff stats prove no element of chunk *name* can fall in
        every interval of *bounds* (``(lo, hi, lo_open, hi_open)`` each,
        ``None`` meaning unbounded).  Conservative: missing or poisoned
        stats, or an unknown range, keep the chunk."""
        if not bounds:
            return False
        entry = self.chunk_stats.get(name)
        if not entry:
            return False
        cmin, cmax = entry.get("min"), entry.get("max")
        if cmin is None or cmax is None:
            return False
        for lo, hi, lo_open, hi_open in bounds:
            if lo is not None and (cmax < lo or (cmax == lo and lo_open)):
                return True
            if hi is not None and (cmin > hi or (cmin == hi and hi_open)):
                return True
        return False

    # ------------------------------------------------------------------ #
    # serialisation of user samples
    # ------------------------------------------------------------------ #

    def _coerce_array(self, value) -> np.ndarray:
        if self.meta.is_text:
            if isinstance(value, str):
                return np.frombuffer(value.encode("utf-8"), dtype=np.uint8).copy()
        if self.meta.is_json and not isinstance(value, np.ndarray):
            return np.frombuffer(json_dumps(value), dtype=np.uint8).copy()
        arr = np.asarray(value)
        if self.meta.dtype is not None and arr.dtype != np.dtype(self.meta.dtype):
            if arr.dtype.kind in "iuf" and np.dtype(self.meta.dtype).kind in "iufb":
                arr = arr.astype(self.meta.dtype)
        return arr

    def _serialize_sample(self, value) -> Tuple[bytes, Tuple[int, ...], Optional[np.ndarray]]:
        """-> (raw payload, shape, decoded array or None).

        The decoded array is returned when it was materialised anyway, so
        tiling can reuse it without a second decode.
        """
        if isinstance(value, LinkedSample):
            if not self.meta.is_link:
                raise FormatError(
                    f"tensor {self.tensor!r} is not a link tensor; create it "
                    "with htype='link[...]' to append LinkedSamples"
                )
            raw = value.to_bytes()
            return raw, (len(raw),), None

        if self.meta.is_link:
            raise FormatError(
                f"link tensor {self.tensor!r} accepts LinkedSample values "
                "(repro.link(url)), got a raw value"
            )

        if isinstance(value, Sample):
            # fast path: matching codec => copy bytes without decode
            if (
                self.meta.sample_compression
                and value.compression == self.meta.sample_compression
            ):
                raw = value.compressed_bytes(self.meta.sample_compression)
                shape = value.shape
                self.meta.set_dtype_if_unset(
                    np.dtype(self.meta.spec.dtype or "uint8")
                )
                return raw, shape, None
            value = value.array

        arr = self._coerce_array(value)
        validate_sample(self.meta.spec, arr)
        self._pin_dtype(arr.dtype)
        if self.meta.sample_compression:
            raw = compress_array(arr, self.meta.sample_compression)
        else:
            raw = np.ascontiguousarray(arr).tobytes()
        return raw, tuple(arr.shape), arr

    def _pin_dtype(self, dtype: np.dtype) -> None:
        """The first sample pins the tensor dtype; later ones must match."""
        self.meta.set_dtype_if_unset(dtype)
        if np.dtype(self.meta.dtype) != dtype:
            raise FormatError(
                f"tensor {self.tensor!r} holds dtype {self.meta.dtype}, "
                f"sample has {dtype}"
            )

    def _stage_column(self, values) -> Optional[np.ndarray]:
        """*values* as one coerced, validated ``(rows, *shape)`` column,
        or None when the batch must be staged row by row.

        A batch qualifies when the tensor is not a link, text, json or
        sequence tensor, has no sample compression, and the batch is one
        fixed-shape numeric (``biuf``) array in which every row, taken on
        its own, would coerce to the same dtype: an ndarray column, a list
        of numpy values sharing one dtype, or a list of Python scalars of
        one type.  Ragged or mixed batches and rows too big for one chunk
        (they are tiled) return None before any state is touched.  The
        cast rule, validation and dtype pin are those of
        :meth:`_serialize_sample`, applied once for the batch — per row
        only for htypes with a ``validate`` hook.
        """
        m = self.meta
        if (m.is_link or m.is_text or m.is_json or m.is_sequence
                or m.sample_compression):
            return None
        if isinstance(values, np.ndarray):
            col = values
        else:
            types = set(map(type, values))
            if len(types) == 1 and next(iter(types)) in (bool, int, float):
                want = np.dtype(types.pop())
            elif all(issubclass(t, (np.ndarray, np.generic)) for t in types):
                dtypes = {v.dtype for v in values}
                if len(dtypes) != 1:
                    return None
                want = dtypes.pop()
            else:
                return None
            try:
                col = np.asarray(values)
            except ValueError:  # ragged
                return None
            if col.dtype != want:  # e.g. Python ints beyond int64
                return None
        if col.dtype.kind not in "biuf":
            return None
        col = self._coerce_array(col)
        if col[0].nbytes > m.max_chunk_size:
            return None
        validate_sample(m.spec, col[0])
        self._pin_dtype(col.dtype)
        if m.spec.validate is not None:
            for row in col[1:]:
                validate_sample(m.spec, row)
        return np.ascontiguousarray(col)

    def _deserialize_sample(
        self, raw: bytes, shape: Tuple[int, ...]
    ) -> np.ndarray:
        if self.meta.is_link:
            return self._resolve_link(raw)
        if self.meta.sample_compression:
            return decompress_array(raw, self.meta.sample_compression)
        dtype = np.dtype(self.meta.dtype or "float64")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def _resolve_link(self, raw: bytes) -> np.ndarray:
        from repro.core.links import resolve_linked_sample

        linked = LinkedSample.from_bytes(raw)
        try:
            return resolve_linked_sample(linked)
        except Exception as exc:  # noqa: BLE001 - annotate context
            raise LinkError(
                f"failed to resolve linked sample {linked.url!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #

    @property
    def num_samples(self) -> int:
        return self.seq_enc.num_samples if self.meta.is_sequence else self.enc.num_samples

    def _finalize_active(self) -> None:
        """Close the in-memory active chunk (if any): buffered for a
        batched upload when the write pipeline is on, written through
        immediately when off."""
        chunk = self._active_chunk
        if chunk is not None and chunk.num_samples:
            self._emit_chunk(chunk)
        self._active_chunk = None

    def _emit_chunk(self, chunk: Chunk) -> None:
        """Route one finalized chunk to the write buffer or to storage."""
        if _WRITE_PIPELINE["enabled"]:
            self._pending_chunks[chunk.name] = chunk
        else:
            self._write_chunk(chunk)

    def _flush_pending(self) -> None:
        """Upload every buffered chunk in one batched ``set_many``.

        Serialization (+ chunk compression) fans out over a thread pool;
        the upload itself is a single batch, which on object storage costs
        one request's fixed overhead instead of one per chunk.  Runs
        before any encoder/meta write (see :meth:`flush`) and after a
        commit crosses the watermark — never mid-commit, so a rolled-back
        batch can still retract its buffered chunks.
        """
        if not self._pending_chunks:
            return
        pending = list(self._pending_chunks.values())
        self._pending_chunks.clear()
        with _tracing.span("engine.flush_chunks", tensor=self.tensor,
                           chunks=len(pending)) as sp:
            items = self._serialize_pending(pending)
            self.storage.set_many(items)
            sp.set(nbytes=sum(len(b) for b in items.values()))

    def _serialize_pending(self, pending: List[Chunk]) -> Dict[str, bytes]:
        """Serialize finalized chunks into upload-ready ``{key: blob}``
        items (compression fanned out over a thread pool), charging the
        flush counters and priming the decoded-chunk cache — everything
        :meth:`_flush_pending` does short of the ``set_many`` itself, so
        a coordinating caller (``Dataset.flush``) can merge many engines'
        items into one batch per key class."""
        cc = self.meta.chunk_compression
        workers = int(_WRITE_PIPELINE["workers"])
        if workers > 1 and len(pending) > 1:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(pending)),
                thread_name_prefix="chunk-serialize",
            ) as pool:
                blobs = list(pool.map(lambda c: c.tobytes(cc), pending))
        else:
            blobs = [chunk.tobytes(cc) for chunk in pending]
        items: Dict[str, bytes] = {}
        for chunk, blob in zip(pending, blobs):
            items[K.chunk_key(self.commit_id, self.tensor, chunk.name)] = blob
        self._m_chunks_flushed.inc(len(pending))
        self._h_flush_batch.observe(len(pending))
        for chunk, key in zip(pending, items):
            self._header_cache.pop(key, None)
            self._cache_put(key, chunk)
        return items

    def drain_flush_items(
        self,
    ) -> Tuple[Dict[str, bytes], Dict[str, bytes], Dict[str, bytes]]:
        """Collect everything this engine would persist on :meth:`flush`
        without writing any of it: ``(chunk items, encoder items, meta
        items)``, each upload-ready.  The engine's buffers and dirty flag
        are drained exactly as a flush would, so the caller *must* write
        the returned items (in key-class order) — ``Dataset.flush`` uses
        this to coordinate one ``set_many`` per class across all engines
        instead of one per engine."""
        with self._lock:
            self._finalize_active()
            chunk_items: Dict[str, bytes] = {}
            if self._pending_chunks:
                pending = list(self._pending_chunks.values())
                self._pending_chunks.clear()
                chunk_items = self._serialize_pending(pending)
            if not self._dirty:
                return chunk_items, {}, {}
            self._dirty = False
            return chunk_items, self._encoder_items(), self._meta_items()

    def _maybe_flush_pending(self) -> None:
        if len(self._pending_chunks) >= _WRITE_PIPELINE["watermark_chunks"]:
            self._flush_pending()

    def _get_active_chunk(self, nbytes: int) -> Chunk:
        """Chunk that will receive the next sample (resumed or fresh).

        Appends go to an in-memory write-back chunk that is persisted when
        it fills or at :meth:`flush`; this keeps ingestion O(bytes), not
        O(bytes * samples-per-chunk).
        """
        active = self._active_chunk
        if active is not None:
            if active.can_fit(nbytes, self.meta.max_chunk_size):
                return active
            self._finalize_active()
        # resume the last stored chunk when it still has room (this is the
        # copy-on-write extension path after checkout/commit)
        last_id = self.enc.last_chunk_id()
        last_is_tiled = (
            self.enc.num_samples > 0
            and (self.enc.num_samples - 1) in self.tile_enc
        )
        if last_id is not None and not last_is_tiled:
            name = ChunkIdEncoder.name_from_id(last_id)
            try:
                chunk = self._load_chunk(name)
            except KeyError:
                chunk = None
            if chunk is not None and chunk.can_fit(
                nbytes, self.meta.max_chunk_size
            ):
                if not self._chunk_owned_by_current(name):
                    self._own_chunk(chunk)
                # a buffered (pending-upload) chunk goes back to being the
                # active chunk — drop the buffer entry so the resumed copy
                # is uploaded once, after it refills or at flush
                self._pending_chunks.pop(name, None)
                self._active_chunk = chunk
                return chunk
        chunk = Chunk(dtype=self.meta.dtype)
        self.enc.register_chunk(ChunkIdEncoder.id_from_name(chunk.name), 0)
        self.chunk_set.add(chunk.name)
        self._stats_init(chunk.name)
        self._active_chunk = chunk
        return chunk

    def _own_chunk(self, chunk: Chunk) -> None:
        """Copy-on-write: claim an ancestor's chunk for the current commit."""
        self.chunk_set.add(chunk.name)
        # the blob will be (re)written by _write_chunk under the current
        # commit's key; drop stale cache entries pointing at the ancestor
        self._header_cache.pop(
            K.chunk_key(self.commit_id, self.tensor, chunk.name), None
        )

    def _write_chunk(self, chunk: Chunk) -> None:
        key = K.chunk_key(self.commit_id, self.tensor, chunk.name)
        self.storage[key] = chunk.tobytes(self.meta.chunk_compression)
        # a direct write supersedes any buffered copy of the same chunk
        self._pending_chunks.pop(chunk.name, None)
        self._header_cache.pop(key, None)
        self._cache_put(key, chunk)

    def _place(self, raw, shape, arr, touched, count: int = 1) -> int:
        """Append the leading samples of *raw* to the chunk the fill rule
        picks; returns how many were placed (at least one).

        *raw* packs *count* payloads of one *shape* and equal size back to
        back; *arr* is the one sample's array (or None when it was never
        decoded) or, for ``count > 1``, the samples stacked on a leading
        axis.  The chunk takes as many samples as a one-at-a-time
        ``can_fit`` loop would — ``room // sample_nbytes``, at least one,
        every remaining sample when they are zero-byte — and is finalized
        once it reaches ``max_chunk_size``.  *touched* collects each
        chunk's state at first touch for rollback.
        """
        size = len(raw) // count
        chunk = self._get_active_chunk(size)
        if touched is not None and chunk.name not in touched:
            stats = self.chunk_stats.get(chunk.name)
            touched[chunk.name] = (len(chunk.data), chunk.num_samples,
                                   dict(stats) if stats else stats)
        k = count
        if size:
            room = self.meta.max_chunk_size - len(chunk.data)
            k = min(count, max(1, room // size))
        if k < count:
            raw, arr = raw[:k * size], arr[:k]
        chunk.append(raw, shape, k)
        self._stats_observe(chunk.name, arr, k, shape)
        self.enc.register_samples(k)
        if len(chunk.data) >= self.meta.max_chunk_size:
            self._finalize_active()
        return k

    def _commit_flat(
        self, value, raw, shape, arr,
        touched: Optional[Dict[str, Tuple]] = None,
        count: int = 1,
    ) -> None:
        """Register *count* pre-serialized flat samples of one *shape*
        (the infallible half of an append; see :meth:`_place` for how
        *raw* and *arr* carry several samples).  A single sample larger
        than ``max_chunk_size`` is tiled."""
        is_video = self.meta.htype == "video"
        if (
            count == 1
            and len(raw) > self.meta.max_chunk_size
            and not is_video
            and not self.meta.is_link
        ):
            self._append_tiled(value, raw, shape, arr)
        else:
            view = memoryview(raw)
            size = len(view) // count
            done = 0
            while done < count:
                done += self._place(
                    view[done * size:], shape,
                    arr if not done else arr[done:], touched, count - done,
                )
        if not self.meta.is_link:
            self.meta.update_shape_interval(shape)
        self.meta.length += count
        self.commit_diff.add(count)
        self._dirty = True

    def _append_tiled(self, value, raw, shape, arr) -> None:
        # a tiled sample owns dedicated chunks; close the active one first
        # so encoder rows stay in storage order
        self._finalize_active()
        if arr is None:
            if isinstance(value, Sample):
                arr = value.array
            else:
                arr = self._coerce_array(value)
        tile_shape = tiling.choose_tile_shape(
            arr.shape, arr.dtype.itemsize, self.meta.max_chunk_size
        )
        tiles = tiling.split(arr, tile_shape)
        chunk_ids = []
        for tile in tiles:
            if self.meta.sample_compression:
                payload = compress_array(tile, self.meta.sample_compression)
            else:
                payload = tile.tobytes()
            chunk = Chunk(dtype=self.meta.dtype)
            chunk.append(payload, tile.shape)
            self.chunk_set.add(chunk.name)
            self._stats_init(chunk.name)
            self._stats_observe(chunk.name, tile)
            self._emit_chunk(chunk)
            chunk_ids.append(ChunkIdEncoder.id_from_name(chunk.name))
        index = self.enc.num_samples
        self.enc.register_tiled_sample(chunk_ids)
        self.tile_enc.register(index, arr.shape, tile_shape)

    def _commit_sequence(
        self, payloads,
        touched: Optional[Dict[str, Tuple]] = None,
    ) -> None:
        """Register one pre-serialized sequence row.  Every item was
        serialized during staging, so — unlike the historical path, which
        interleaved fallible ``_serialize_sample`` calls with encoder
        mutations — a bad item can no longer leave earlier items
        registered in ``enc`` while ``seq_enc``/``meta.length`` never
        advance."""
        for raw, shape, arr in payloads:
            self._place(raw, shape, arr, touched)
            self.meta.update_shape_interval(shape)
        self.seq_enc.register(len(payloads))
        self.meta.length += 1
        self.commit_diff.add(1)
        self._dirty = True

    # -- WritePlan: stage (fallible, parallel) then commit (atomic) ------ #

    def _stage_payloads(self, items: List) -> List[Tuple]:
        """Serialize *items* in order, fanning out over the worker pool.

        The first sample(s) are serialized synchronously until the
        tensor's dtype is pinned — ``_serialize_sample`` infers
        ``meta.dtype`` from the first observed sample, and that inference
        must not race across pool workers.  Link tensors never pin a
        dtype, so they skip the warm-up."""
        payloads: List[Tuple] = []
        idx = 0
        while (
            idx < len(items)
            and self.meta.dtype is None
            and not self.meta.is_link
        ):
            payloads.append(self._serialize_sample(items[idx]))
            idx += 1
        rest = items[idx:]
        workers = int(_WRITE_PIPELINE["workers"])
        if _WRITE_PIPELINE["enabled"] and workers > 1 and len(rest) >= 4:
            with ThreadPoolExecutor(
                max_workers=min(workers, len(rest)),
                thread_name_prefix="sample-serialize",
            ) as pool:
                payloads.extend(pool.map(self._serialize_sample, rest))
        else:
            payloads.extend(self._serialize_sample(it) for it in rest)
        return payloads

    def stage_appends(self, values) -> WritePlan:
        """Serialize + compress *values* — samples, or an ndarray whose
        leading axis is rows — into a :class:`WritePlan` without mutating
        engine state (exception-safe: a staging failure leaves nothing to
        undo).  A fixed-shape numeric batch becomes one dense segment
        (see :meth:`_stage_column`); any other batch is serialized row by
        row, sequence rows item by item."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        plan = WritePlan(self.tensor)
        if not len(values):
            return plan
        dtype_was_none = self.meta.dtype is None
        with _tracing.span("engine.stage_appends", tensor=self.tensor,
                           rows=len(values)):
            try:
                col = self._stage_column(values)
                if col is not None:
                    plan.dense = (col, col.tobytes())
                elif self.meta.is_sequence:
                    rows = [list(v) for v in values]
                    flat = [item for row in rows for item in row]
                    payloads = self._stage_payloads(flat)
                    pos = 0
                    for value, row in zip(values, rows):
                        plan.entries.append(
                            ("seq", value, payloads[pos:pos + len(row)])
                        )
                        pos += len(row)
                else:
                    payloads = self._stage_payloads(list(values))
                    for value, payload in zip(values, payloads):
                        plan.entries.append(("flat", value, [payload]))
            except BaseException:
                # the one piece of state staging can touch is the dtype
                # inferred from the first sample — revert it so a failed
                # batch leaves no trace
                if dtype_was_none:
                    self.meta.dtype = None
                raise
        return plan

    def _write_snapshot(self) -> dict:
        """O(bookkeeping) pre-commit state capture for rollback — every
        mutable structure the commit path touches is either append-only
        (restored by truncation) or small enough to copy."""
        active = self._active_chunk
        si = self.meta.shape_interval
        return {
            "enc_rows": len(self.enc._ids),
            "enc_last_cum": self.enc._cum[-1] if self.enc._cum else None,
            "seq_rows": len(self.seq_enc._cum),
            "tile_threshold": self.enc.num_samples,
            "chunk_set": set(self.chunk_set),
            "stats_keys": set(self.chunk_stats),
            "meta_length": self.meta.length,
            "meta_dtype": self.meta.dtype,
            "shape_interval": (si.lower, si.upper, si._initialized),
            "diff_added": self.commit_diff.num_added,
            # the object itself: a batch can finalize it into the write
            # buffer, and rollback must reinstate it even from there
            "active": active,
            "pending": list(self._pending_chunks),
            "dirty": self._dirty,
        }

    def _locate_chunk(self, name: str) -> Optional[Chunk]:
        mem = self._mem_chunk(name)
        if mem is not None:
            return mem
        return self._cache_peek(self._chunk_storage_key(name))

    def _restore_snapshot(
        self, snap: dict, touched: Dict[str, Tuple]
    ) -> None:
        """Roll the engine back to *snap* after a failed commit batch.

        *touched* maps each chunk the batch appended into to its
        ``(data length, sample count, stats entry)`` at first touch;
        those chunk objects are truncated back and get their stats
        entry back.  A chunk the serial (pipeline-off) path already
        wrote through is rewritten truncated, so a later resume of that
        chunk from storage can never see rolled-back samples.
        """
        for name, (dlen, nsamp, stats) in touched.items():
            if name in snap["stats_keys"]:
                self.chunk_stats[name] = stats
            chunk = self._mem_chunk(name)
            written = False
            if chunk is None:
                # not buffered => the serial path wrote it through
                key = self._chunk_storage_key(name)
                chunk = self._cache_peek(key)
                written = chunk is not None
                if chunk is None:
                    try:
                        blob = self.storage[key]
                    except KeyError:
                        continue
                    chunk = Chunk.frombytes(blob, name=name)
                    written = True
            if chunk.num_samples > nsamp:
                chunk.truncate(nsamp, dlen)
                if written:
                    self._write_chunk(chunk)
        # encoders are append-only: truncate
        del self.enc._ids[snap["enc_rows"]:]
        del self.enc._cum[snap["enc_rows"]:]
        if self.enc._cum and snap["enc_last_cum"] is not None:
            self.enc._cum[-1] = snap["enc_last_cum"]
        self.enc._cum_arr = None
        del self.seq_enc._cum[snap["seq_rows"]:]
        for idx in [
            i for i in self.tile_enc._layouts if i >= snap["tile_threshold"]
        ]:
            del self.tile_enc._layouts[idx]
        # bookkeeping: fresh chunks leave chunk_set/stats
        self.chunk_set = snap["chunk_set"]
        for name in set(self.chunk_stats) - snap["stats_keys"]:
            del self.chunk_stats[name]
        self.meta.length = snap["meta_length"]
        if snap["meta_dtype"] is None:
            self.meta.dtype = None
        si = self.meta.shape_interval
        si.lower, si.upper, si._initialized = snap["shape_interval"]
        self.commit_diff.num_added = snap["diff_added"]
        # write buffer: drop chunks the failed batch created, reinstate any
        # pre-batch buffered chunk the batch resumed into its active slot
        for name in [
            n for n in self._pending_chunks if n not in snap["pending"]
        ]:
            del self._pending_chunks[name]
        for name in snap["pending"]:
            if name not in self._pending_chunks:
                chunk = self._locate_chunk(name)
                if chunk is not None:
                    self._pending_chunks[name] = chunk
        self._active_chunk = snap["active"]
        if self._active_chunk is not None:
            self._pending_chunks.pop(self._active_chunk.name, None)
        self._dirty = snap["dirty"]

    def commit_appends(self, plan: WritePlan) -> None:
        """Apply a staged :class:`WritePlan` atomically.

        Either every row of the plan is registered (encoders, meta,
        commit diff, chunk data all agree) or — on any failure — the
        engine state is rolled back to exactly the pre-commit state and
        the exception propagates.  After a successful commit, crossing the
        write-buffer watermark triggers a batched chunk upload.
        """
        if not plan.num_rows:
            return
        with self._lock:
            snap = self._write_snapshot()
            touched: Dict[str, Tuple] = {}
            with _tracing.span("engine.commit_appends", tensor=self.tensor,
                               rows=plan.num_rows):
                try:
                    if plan.dense is not None:
                        col, raw = plan.dense
                        self._commit_flat(None, raw, col.shape[1:], col,
                                          touched, count=len(col))
                    for kind, value, payloads in plan.entries:
                        if kind == "seq":
                            self._commit_sequence(payloads, touched)
                        else:
                            raw, shape, arr = payloads[0]
                            self._commit_flat(value, raw, shape, arr, touched)
                except BaseException:
                    self._restore_snapshot(snap, touched)
                    raise
            self._maybe_flush_pending()

    def append(self, value) -> None:
        self.commit_appends(self.stage_appends([value]))

    def extend(self, values) -> None:
        """Batched, exception-safe append: stage every sample (one dense
        segment, or parallel per-row serialization + compression), then
        commit all-or-nothing; chunks finalized along the way upload in
        batched ``set_many`` calls."""
        self.commit_appends(self.stage_appends(values))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def _can_partial_read(self, header: ChunkHeader) -> bool:
        return (
            self.meta.sample_compression is not None
            and not header.is_chunk_compressed
            and not self.meta.is_link
        )

    def _read_flat_bytes(
        self, index: int, prefer_full: bool = False
    ) -> Tuple[bytes, Tuple[int, ...]]:
        """Raw payload + stored shape of flat sample *index*.

        Two read strategies (§3.5's "range-based requests to access
        sub-elements inside chunks" vs whole-chunk streaming):

        - *partial*: header probe + exact sample byte range — right for
          sparse random access (one sample of an 8 MB chunk);
        - *full*: fetch and cache the decoded chunk — right for streaming
          (the loader consumes neighbours next), set via ``prefer_full``.

        Partial is only chosen when the sample is a small fraction of the
        chunk; otherwise the full fetch costs about the same and caches.
        """
        chunk_id, local = self.enc.translate(index)
        name = ChunkIdEncoder.name_from_id(chunk_id)
        mem = self._mem_chunk(name)
        if mem is not None:
            return mem.read_bytes(local), mem.read_shape(local)
        key = self._chunk_storage_key(name)
        cached = self._cache_get(key)
        if cached is not None:
            return cached.read_bytes(local), cached.read_shape(local)
        if (
            not prefer_full
            and self.meta.sample_compression
            and not self.meta.chunk_compression
        ):
            key, header = self._load_header(name)
            if self._can_partial_read(header):
                start, end = header.sample_range(local)
                chunk_data_len = (
                    int(header.byte_positions[-1][1])
                    if len(header.byte_positions)
                    else 0
                )
                if (end - start) * 4 < chunk_data_len:
                    raw = self.storage.get_bytes(key, start, end)
                    self._count_partial_read()
                    return raw, header.sample_shape(local)
        chunk = self._load_chunk(name)
        return chunk.read_bytes(local), chunk.read_shape(local)

    def empty_sample(self) -> np.ndarray:
        """The padding value: zero-size at the tensor's rank (a 0 scalar
        for rank-0 tensors, where zero-size is unrepresentable)."""
        dtype = np.dtype(self.meta.dtype or "float64")
        si = self.meta.shape_interval
        if si.is_empty:
            return np.zeros((0,), dtype=dtype)
        return np.zeros((0,) * len(si.lower), dtype=dtype)

    def _read_flat(self, index: int, prefer_full: bool = False) -> np.ndarray:
        if self.pad_enc.is_padded(index):
            return self.empty_sample()
        if index in self.tile_enc:
            return self._read_tiled(index)
        raw, shape = self._read_flat_bytes(index, prefer_full=prefer_full)
        return self._deserialize_sample(raw, shape)

    def _read_tiled(self, index: int) -> np.ndarray:
        sample_shape, tile_shape = self.tile_enc.layout(index)
        chunk_ids = self.enc.tile_chunk_ids(index)
        tiles = []
        for cid in chunk_ids:
            chunk = self._load_chunk(ChunkIdEncoder.name_from_id(cid))
            tiles.append(
                self._deserialize_sample(chunk.read_bytes(0), chunk.read_shape(0))
            )
        return tiling.join(
            tiles, sample_shape, tile_shape, np.dtype(self.meta.dtype)
        )

    def read_tiled_region(self, index: int, region: Sequence[slice]) -> np.ndarray:
        """Read only the tiles of sample *index* intersecting *region*,
        then crop — the visualizer's viewport streaming path."""
        if index not in self.tile_enc:
            return self._read_flat(index)[tuple(region)]
        sample_shape, tile_shape = self.tile_enc.layout(index)
        chunk_ids = self.enc.tile_chunk_ids(index)
        hits = tiling.tiles_for_region(region, sample_shape, tile_shape)
        dtype = np.dtype(self.meta.dtype)
        region_slices = tuple(
            sl if isinstance(sl, slice) else slice(sl, sl + 1)
            for sl in region
        ) + tuple(
            slice(None) for _ in range(len(sample_shape) - len(region))
        )
        starts = [sl.indices(s)[0] for sl, s in zip(region_slices, sample_shape)]
        stops = [sl.indices(s)[1] for sl, s in zip(region_slices, sample_shape)]
        out = np.zeros(
            [max(0, b - a) for a, b in zip(starts, stops)], dtype=dtype
        )
        for flat, gidx in hits:
            chunk = self._load_chunk(ChunkIdEncoder.name_from_id(chunk_ids[flat]))
            tile = self._deserialize_sample(
                chunk.read_bytes(0), chunk.read_shape(0)
            )
            tile_region = tiling.tile_slices(gidx, tile_shape, sample_shape)
            # intersection of tile extent and requested region
            dst = []
            src = []
            for (t_sl, a, b) in zip(tile_region, starts, stops):
                lo = max(t_sl.start, a)
                hi = min(t_sl.stop, b)
                if hi <= lo:
                    break
                dst.append(slice(lo - a, hi - a))
                src.append(slice(lo - t_sl.start, hi - t_sl.start))
            else:
                out[tuple(dst)] = tile[tuple(src)]
        return out

    def _read_sequence(self, index: int, aslist: bool = False):
        start, end = self.seq_enc.item_range(index)
        items = [self._read_flat(i) for i in range(start, end)]
        if aslist:
            return items
        if not items:
            # empty span: zero rows of the tensor's dtype, never a bare
            # list / float64 default (must match execute_plan exactly)
            return self._empty_seq_stack()
        shapes = {item.shape for item in items}
        if len(shapes) == 1:
            return np.stack(items)
        return items

    def read_sample(self, index: int, aslist: bool = False,
                    prefer_full: bool = False):
        n = self.num_samples
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise SampleIndexError(
                f"index {index} out of range for tensor {self.tensor!r} "
                f"of length {n}"
            )
        if self.meta.is_sequence:
            return self._read_sequence(index, aslist=aslist)
        return self._read_flat(index, prefer_full=prefer_full)

    def read_raw(self, index: int, prefer_full: bool = False) -> bytes:
        """Stored payload bytes of one flat sample.

        This is the *per-sample* read path: random access may use a
        ranged request for just this sample's bytes (§3.5).  Multi-row
        consumers should use :meth:`read_batch` with ``decode=False``,
        which costs one fetch per chunk instead of one per sample.
        """
        n = self.num_samples
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise SampleIndexError(
                f"index {index} out of range for tensor {self.tensor!r} "
                f"of length {n}"
            )
        if self.meta.is_sequence:
            raise FormatError(
                "sequence samples have no single payload; read items via "
                "read_batch(decode=False)"
            )
        raw, _shape = self._read_flat_bytes(index, prefer_full=prefer_full)
        return raw

    def read_shape(self, index: int) -> Tuple[int, ...]:
        """Sample shape without decoding payloads where possible."""
        if self.meta.is_sequence:
            start, end = self.seq_enc.item_range(index)
            if start == end:
                return (0,)
            first = self._read_flat_shape(start)
            return (end - start, *first)
        return self._read_flat_shape(index)

    def _read_flat_shape(self, index: int) -> Tuple[int, ...]:
        if self.pad_enc.is_padded(index):
            return tuple(self.empty_sample().shape)
        if index in self.tile_enc:
            return self.tile_enc.layout(index)[0]
        if self.meta.is_link:
            return tuple(self._read_flat(index).shape)
        chunk_id, local = self.enc.translate(index)
        name = ChunkIdEncoder.name_from_id(chunk_id)
        mem = self._mem_chunk(name)
        if mem is not None:
            shape = mem.read_shape(local)
        else:
            key = self._chunk_storage_key(name)
            cached = self._cache_get(key)
            if cached is not None:
                shape = cached.read_shape(local)
            else:
                key, header = self._load_header(name)
                shape = header.sample_shape(local)
        if self.meta.sample_compression:
            # chunk stores the *array* shape alongside; it is authoritative
            return shape
        return shape

    def numpy(self, indices: Sequence[int], aslist: bool = False):
        samples = [self.read_sample(i) for i in indices]
        if aslist:
            return samples
        shapes = {s.shape if isinstance(s, np.ndarray) else None for s in samples}
        if None not in shapes and len(shapes) == 1 and samples:
            return np.stack(samples)
        if not samples:
            dtype = np.dtype(self.meta.dtype or "float64")
            return np.empty((0,), dtype=dtype)
        return samples

    # ------------------------------------------------------------------ #
    # batched reads (the ReadPlan layer)
    # ------------------------------------------------------------------ #

    def _normalize_rows(self, rows: Sequence[int]) -> np.ndarray:
        """*rows* as an int64 array with negatives resolved, range-checked
        in one vectorized pass."""
        n = self.num_samples
        arr = np.array(rows, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            arr[arr < 0] += n
            bad = (arr < 0) | (arr >= n)
            if bad.any():
                row = np.asarray(rows).reshape(-1)[int(np.argmax(bad))]
                raise SampleIndexError(
                    f"index {row} out of range for tensor {self.tensor!r} "
                    f"of length {n}"
                )
        return arr

    def _classify_items(
        self, items: np.ndarray
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray], np.ndarray]:
        """``(padded mask, tiled mask, plain positions)`` of flat *items*;
        a mask is None when no item is of that kind.  Membership is only
        tested when the pad / tile encoders are non-empty."""
        padded = tiled = None
        if self.pad_enc.num_padded:
            mask = np.isin(items, self.pad_enc.index_array())
            if mask.any():
                padded = mask
        if self.tile_enc.num_tiled:
            mask = np.isin(items, self.tile_enc.index_array())
            if padded is not None:
                mask &= ~padded
            if mask.any():
                tiled = mask
        if padded is None and tiled is None:
            return None, None, np.arange(len(items))
        plain = np.ones(len(items), dtype=bool)
        for mask in (padded, tiled):
            if mask is not None:
                plain &= ~mask
        return padded, tiled, np.flatnonzero(plain)

    def _chunk_groups(self, items: np.ndarray, positions: np.ndarray):
        """Yield ``(chunk name, positions, locals)`` per chunk holding the
        plain samples ``items[positions]``: one vectorized encoder lookup,
        one grouping pass, request order kept within each chunk."""
        if not len(positions):
            return
        enc_rows, local = self.enc.translate_many(items[positions])
        if (enc_rows[1:] < enc_rows[:-1]).any():
            order = np.argsort(enc_rows, kind="stable")
            enc_rows, local, positions = (
                enc_rows[order], local[order], positions[order]
            )
        starts = [0]
        if enc_rows[0] != enc_rows[-1]:
            cuts = (enc_rows[1:] != enc_rows[:-1]).nonzero()[0]
            starts += (cuts + 1).tolist()
        ends = starts[1:] + [len(enc_rows)]
        for start, end, row in zip(starts, ends, enc_rows[starts].tolist()):
            chunk_id = self.enc.chunk_id_at(row)
            yield (ChunkIdEncoder.name_from_id(chunk_id),
                   positions[start:end], local[start:end])

    def _plan_chunk_key(self, plan: ReadPlan, name: str) -> None:
        """Resolve chunk *name* for *plan* once: in-memory write-back
        chunks are read in place, the rest through the commit chain."""
        if name in plan.chunk_keys or name in plan.active_chunks:
            return
        if self._mem_chunk(name) is not None:
            plan.active_chunks.add(name)
            return
        plan.chunk_keys[name] = self._chunk_storage_key(name)

    def _plan_items(self, plan: ReadPlan, items: np.ndarray,
                    bounds=None) -> None:
        plan.num_items = len(items)
        padded, tiled, plain = self._classify_items(items)
        if padded is not None:
            plan.padded = np.flatnonzero(padded)
        if tiled is not None:
            for pos in np.flatnonzero(tiled).tolist():
                idx = int(items[pos])
                names = tuple(
                    ChunkIdEncoder.name_from_id(cid)
                    for cid in self.enc.tile_chunk_ids(idx)
                )
                plan.tiled.append((pos, idx, names))
                for name in names:
                    self._plan_chunk_key(plan, name)
        pruned = []
        for name, positions, local in self._chunk_groups(items, plain):
            if (
                bounds is not None
                and self._mem_chunk(name) is None
                and self._is_prunable(name, bounds)
            ):
                plan.skipped_chunks.add(name)
                pruned.append(positions)
                continue
            self._plan_chunk_key(plan, name)
            plan.chunks[name] = (positions, local)
        if pruned:
            plan.pruned = np.concatenate(pruned)

    def plan_reads(self, rows: Sequence[int], bounds=None) -> ReadPlan:
        """Group *rows* by owning chunk into an executable :class:`ReadPlan`.

        Rows (any int sequence or array) may repeat and arrive in any
        order.  They are range-checked, translated through the
        :class:`ChunkIdEncoder` and grouped by chunk as arrays; storage-key
        resolution, the active-chunk check and the pushdown verdict then
        run once per *chunk*.  Sequence rows expand to their flat item
        ranges, tiled samples pull in every tile chunk, padded rows need
        no storage at all.

        *bounds* (optional) is a list of necessary-condition intervals
        ``(lo, hi, lo_open, hi_open)`` on the column's values: a chunk
        whose recorded [min, max] cannot intersect one of them is skipped
        entirely — its rows come back as the falsy :data:`PRUNED`
        sentinel and *zero* storage GETs are issued for it.  Only whole
        plain-sample chunks are pruned; tiled, padded, sequence and
        active-chunk rows are always read.
        """
        plan = ReadPlan(self.tensor)
        plan.row_array = self._normalize_rows(rows)
        with _tracing.span("engine.plan_reads", tensor=self.tensor,
                           rows=len(plan.row_array)) as sp:
            with self._lock:
                items = plan.row_array
                if self.meta.is_sequence:
                    starts, ends = self.seq_enc.item_ranges(items)
                    counts = ends - starts
                    offsets = np.cumsum(counts) - counts
                    items = (np.repeat(starts - offsets, counts)
                             + np.arange(int(counts.sum())))
                    plan.seq_spans = list(
                        zip(offsets.tolist(), counts.tolist())
                    )
                    bounds = None
                self._plan_items(plan, items, bounds)
            self._m_chunks_planned.inc(len(plan.chunk_keys))
            self._h_plan_chunks.observe(len(plan.chunk_keys))
            sp.set(chunks=plan.num_chunks)
        return plan

    def _plan_resident_chunks(
        self, plan: ReadPlan
    ) -> Tuple[Dict[str, Chunk], Dict[str, str]]:
        """Split a plan's chunks into already-resident ones and the
        ``{storage key: chunk name}`` set that must be fetched."""
        chunks: Dict[str, Chunk] = {}
        for name in plan.active_chunks:
            mem = self._mem_chunk(name)
            if mem is not None:
                chunks[name] = mem
            else:  # in-memory chunk was uploaded since planning: re-resolve
                chunks[name] = self._load_chunk(name)
        to_fetch: Dict[str, str] = {}  # storage key -> chunk name
        for name, key in plan.chunk_keys.items():
            cached = self._cache_get(key)
            if cached is not None:
                chunks[name] = cached
            else:
                to_fetch[key] = name
        return chunks, to_fetch

    def _absorb_fetched(
        self,
        to_fetch: Dict[str, str],
        blobs: Dict[str, bytes],
        chunks: Dict[str, Chunk],
    ) -> None:
        """Decode fetched blobs into *chunks* (and the decoded-chunk
        cache), fanning the per-chunk decompression out over the shared
        decode pool when the read pipeline allows it."""
        entries = []
        for key, name in to_fetch.items():
            blob = blobs.get(key)
            if blob is None:
                raise KeyNotFound(key)
            entries.append((key, name, blob))
        workers = _read_parallelism()
        if workers > 1 and len(entries) > 1:
            t0 = time.perf_counter()
            decoded = list(
                _decode_pool().map(
                    lambda e: self._decode_chunk(e[2], e[1]), entries
                )
            )
            self._h_decode_pool.observe(time.perf_counter() - t0)
            self._m_parallel_chunks.inc(len(entries))
        else:
            decoded = [self._decode_chunk(b, n) for _k, n, b in entries]
        for (key, name, _blob), chunk in zip(entries, decoded):
            self._cache_put(key, chunk)
            chunks[name] = chunk

    def _fetch_plan_chunks(self, plan: ReadPlan) -> Dict[str, Chunk]:
        """Every chunk the plan touches, fetching all misses in one
        :meth:`StorageProvider.get_many` call."""
        chunks, to_fetch = self._plan_resident_chunks(plan)
        if to_fetch:
            with _tracing.span("engine.fetch_chunks", tensor=self.tensor,
                               chunks=len(to_fetch)):
                blobs = self.storage.get_many(list(to_fetch))
            self._absorb_fetched(to_fetch, blobs, chunks)
        return chunks

    def _dense_shape(self) -> Optional[Tuple[int, ...]]:
        """The one sample shape of a tensor whose plans may take the dense
        fast path (fixed-shape, numeric, not sample-compressed, not a
        link, text, json or sequence tensor), else None."""
        m = self.meta
        if (m.sample_compression or m.is_link or m.is_text or m.is_json
                or m.is_sequence or m.dtype is None):
            return None
        si = m.shape_interval
        if si.is_empty or not si.is_uniform:
            return None
        if np.dtype(m.dtype).kind not in "biuf":
            return None
        return si.lower

    def _dense_column(self, plan: ReadPlan,
                      chunks: Dict[str, Chunk]) -> Optional[np.ndarray]:
        """The plan's items as one typed ``(num_items, *shape)`` column:
        each chunk's samples are sliced once as an ndarray and scattered
        to their item positions (pruned positions stay zero).  None when
        the plan has tiled or padded items or a chunk is not uniformly
        shaped — those take the per-item path."""
        shape = self._dense_shape()
        if shape is None or plan.tiled or plan.padded is not None:
            return None
        dtype = np.dtype(self.meta.dtype)
        column = np.zeros((plan.num_items,) + shape, dtype=dtype)
        # the chunk views pin chunk buffers an append would resize
        with self._lock:
            for name, (positions, local) in plan.chunks.items():
                samples = chunks[name].dense_samples(dtype, shape)
                if samples is None:
                    return None
                column[positions] = samples[local]
        return column

    def _tiled_value(self, idx: int, names: Tuple[str, ...],
                     chunks: Dict[str, Chunk], decode: bool):
        if not decode:
            # no single encoded payload exists; first tile, as the
            # historical raw path returned
            return chunks[names[0]].read_bytes(0)
        sample_shape, tile_shape = self.tile_enc.layout(idx)
        tiles = [
            self._deserialize_sample(
                chunks[name].read_bytes(0), chunks[name].read_shape(0)
            )
            for name in names
        ]
        return tiling.join(
            tiles, sample_shape, tile_shape, np.dtype(self.meta.dtype)
        )

    def _plan_item_values(self, plan: ReadPlan, chunks: Dict[str, Chunk],
                          decode: bool) -> List:
        """One value per plan item, decoded item by item.

        With the read pipeline on, the per-sample work (decompression for
        sample-compressed tensors) fans out over the shared decode pool in
        per-chunk runs; results land at their item positions so order and
        byte-identity are preserved exactly.  Worker exceptions propagate
        to the caller.
        """
        values: List = [None] * plan.num_items
        if plan.padded is not None:
            for pos in plan.padded.tolist():
                values[pos] = self.empty_sample() if decode else b""
        if plan.pruned is not None:
            for pos in plan.pruned.tolist():
                values[pos] = PRUNED

        def samples(chunk: Chunk, positions: List[int],
                    local: List[int]) -> None:
            for pos, loc in zip(positions, local):
                raw = chunk.read_bytes(loc)
                values[pos] = (
                    self._deserialize_sample(raw, chunk.read_shape(loc))
                    if decode else raw
                )

        def tiled(entries) -> None:
            for pos, idx, names in entries:
                values[pos] = self._tiled_value(idx, names, chunks, decode)

        runs = [
            (chunks[name], positions.tolist(), local.tolist())
            for name, (positions, local) in plan.chunks.items()
        ]
        n_items = sum(len(r[1]) for r in runs) + len(plan.tiled)
        workers = _read_parallelism()
        if workers <= 1 or n_items <= 1:
            for run in runs:
                samples(*run)
            tiled(plan.tiled)
            return values
        # keep every worker busy even when one chunk holds most items
        stride = max(1, -(-n_items // (workers * 2)))
        tasks = [
            (samples, (chunk, positions[i : i + stride], local[i : i + stride]))
            for chunk, positions, local in runs
            for i in range(0, len(positions), stride)
        ] + [
            (tiled, (plan.tiled[i : i + stride],))
            for i in range(0, len(plan.tiled), stride)
        ]
        t0 = time.perf_counter()
        pool = _decode_pool()
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        try:
            for fut in futures:
                fut.result()
        finally:
            for fut in futures:
                fut.cancel()
        self._h_decode_pool.observe(time.perf_counter() - t0)
        self._m_parallel_chunks.inc(len(runs) + len(plan.tiled))
        return values

    def _empty_seq_stack(self) -> np.ndarray:
        """What an empty sequence span stacks to: zero rows of the
        tensor's own dtype (never numpy's float64 default)."""
        return np.empty((0,), dtype=np.dtype(self.meta.dtype or "float64"))

    def execute_plan(self, plan: ReadPlan, aslist: bool = False,
                     decode: bool = True,
                     _chunks: Optional[Dict[str, Chunk]] = None) -> Column:
        """Run *plan*: fetch missing chunks once, decompress once, slice
        every requested sample out of the decoded buffers.

        Returns a :class:`Column` with one value per planned row, in
        request order: a dense typed column when the tensor and plan
        allow it, per-item decoded values otherwise.  With
        ``decode=False`` values are raw stored payloads (``bytes``) —
        sequence rows become lists of payloads.  ``_chunks`` lets a
        :class:`FusedReadPlan` inject chunks it already fetched in a
        cross-tensor batch.
        """
        with _tracing.span("engine.execute_plan", tensor=self.tensor,
                           rows=len(plan.row_array), chunks=plan.num_chunks):
            chunks = (
                _chunks if _chunks is not None
                else self._fetch_plan_chunks(plan)
            )
            pruned = plan.pruned_mask()
            array = self._dense_column(plan, chunks) if decode else None
            if array is not None:
                return Column(array=array, pruned=pruned)
            values = self._plan_item_values(plan, chunks, decode)
        if plan.seq_spans is None:
            return Column(values=values, pruned=pruned)
        out = []
        for start, count in plan.seq_spans:
            items = values[start : start + count]
            if not decode or aslist:
                out.append(items)
                continue
            if not items:
                out.append(self._empty_seq_stack())
                continue
            shapes = {item.shape for item in items}
            if len(shapes) == 1:
                out.append(np.stack(items))
            else:
                out.append(items)
        return Column(values=out)

    def read_batch(self, rows: Sequence[int], aslist: bool = False,
                   decode: bool = True) -> Column:
        """Batched :meth:`read_sample`: one fetch + one decompress per
        chunk, shared by the dataloader, TQL scans, and serving.

        A single non-sequence row keeps the §3.5 sparse random-access
        behaviour (header probe + ranged sample read where profitable)
        instead of forcing a full chunk fetch into the cache.
        """
        if not isinstance(rows, np.ndarray):
            rows = list(rows)
        if len(rows) == 1 and not self.meta.is_sequence:
            row = int(rows[0])
            value = self.read_sample(row) if decode else self.read_raw(row)
            return Column(values=[value])
        return self.execute_plan(
            self.plan_reads(rows), aslist=aslist, decode=decode
        )

    def plan_residency(self, plan: ReadPlan) -> Tuple[int, int]:
        """Side-effect-free ``(hits, misses)`` peek for *plan* right now.

        Active write-back chunks and cache-resident chunks count as hits;
        the rest would be fetched.  Used for per-request cache attribution
        (per-tenant serve stats) without touching the shared counters.
        """
        with self._lock:
            resident = sum(
                1 for key in plan.chunk_keys.values()
                if key in self._chunk_cache
            )
        hits = resident + len(plan.active_chunks)
        return hits, len(plan.chunk_keys) - resident

    def read_shapes_batch(self, rows: Sequence[int]) -> List[Tuple[int, ...]]:
        """Per-sample shapes for many rows: at most one header fetch per
        chunk (reusing decoded chunks when resident) instead of per-row
        metadata reads — what keeps smart scheduling O(chunks)."""
        if self.meta.is_sequence or self.meta.is_link:
            return [self.read_shape(i) for i in rows]
        indices = self._normalize_rows(rows)
        out: List[Tuple[int, ...]] = [()] * len(indices)
        padded, tiled, plain = self._classify_items(indices)
        if padded is not None:
            empty = tuple(self.empty_sample().shape)
            for pos in np.flatnonzero(padded).tolist():
                out[pos] = empty
        if tiled is not None:
            for pos in np.flatnonzero(tiled).tolist():
                out[pos] = self.tile_enc.layout(int(indices[pos]))[0]
        for name, positions, local in self._chunk_groups(indices, plain):
            src = self._mem_chunk(name)
            if src is None:
                src = self._cache_peek(self._chunk_storage_key(name))
            if src is None:
                _key, header = self._load_header(name)
                shapes = header.shapes
            else:
                shapes = src.shape_array()
            for pos, shape in zip(positions.tolist(),
                                  shapes[local].tolist()):
                out[pos] = tuple(shape)
        return out

    # ------------------------------------------------------------------ #
    # updates & sparse writes
    # ------------------------------------------------------------------ #

    def update(self, index: int, value) -> None:
        n = self.num_samples
        if index < 0:
            index += n
        if index >= n:
            raise SampleIndexError(
                f"update index {index} out of range (length {n}); "
                "assign via dataset[idx] with strict=False to pad"
            )
        if self.meta.is_sequence:
            raise FormatError("in-place update of sequence samples is not supported")
        raw, shape, arr = self._serialize_sample(value)
        if index in self.tile_enc:
            self._update_tiled(index, value, raw, shape, arr)
        else:
            if len(raw) > self.meta.max_chunk_size and self.meta.htype != "video":
                raise FormatError(
                    "replacement sample exceeds max_chunk_size; tiled "
                    "updates require the same shape as the original"
                )
            chunk_id, local = self.enc.translate(index)
            name = ChunkIdEncoder.name_from_id(chunk_id)
            chunk = self._load_chunk(name)
            if not self._chunk_owned_by_current(name):
                self._own_chunk(chunk)
            chunk.update(local, raw, shape)
            # widen-only (count=0): the replaced value may still define the
            # recorded min/max, so the range stays a safe superset
            self._stats_observe(name, arr, count=0)
            self._write_chunk(chunk)
        self.meta.update_shape_interval(shape)
        self.commit_diff.update(index)
        self.pad_enc.unpad(index)
        self._dirty = True

    def _update_tiled(self, index, value, raw, shape, arr) -> None:
        sample_shape, tile_shape = self.tile_enc.layout(index)
        if tuple(shape) != tuple(sample_shape):
            raise FormatError(
                f"tiled sample {index} has shape {sample_shape}; in-place "
                f"update requires the same shape, got {shape}"
            )
        if arr is None:
            arr = value.array if isinstance(value, Sample) else self._coerce_array(value)
        tiles = tiling.split(arr, tile_shape)
        chunk_ids = self.enc.tile_chunk_ids(index)
        for cid, tile in zip(chunk_ids, tiles):
            name = ChunkIdEncoder.name_from_id(cid)
            chunk = self._load_chunk(name)
            if not self._chunk_owned_by_current(name):
                self._own_chunk(chunk)
            payload = (
                compress_array(tile, self.meta.sample_compression)
                if self.meta.sample_compression
                else tile.tobytes()
            )
            chunk.update(0, payload, tile.shape)
            self._stats_observe(name, tile, count=0)
            self._write_chunk(chunk)

    def pad_to(self, length: int) -> None:
        """Sparse support: grow with empty padded samples up to *length*."""
        start = self.num_samples
        if start >= length:
            return
        if self.meta.is_text:
            self.extend([""] * (length - start))
        else:
            empty = self.empty_sample()
            self.extend(np.broadcast_to(empty, (length - start,) + empty.shape))
        self.pad_enc.pad_range(start, length)

    # ------------------------------------------------------------------ #
    # layout optimisation
    # ------------------------------------------------------------------ #

    def rechunk(self) -> int:
        """Rewrite all chunks into the optimal [min, max] layout (§3.5).

        Returns the number of chunks after optimisation.  Random updates
        and sparse writes fragment chunks over time; rechunking restores
        streaming-friendly sizes.  Chunks owned by ancestor commits are
        left untouched (immutable history); only the current commit's view
        is rewritten.
        """
        if self.meta.is_sequence:
            payloads = []
            for i in range(self.seq_enc.num_samples):
                start, end = self.seq_enc.item_range(i)
                payloads.extend(
                    self._read_flat_bytes(j) for j in range(start, end)
                )
        else:
            payloads = []
            for i in range(self.enc.num_samples):
                if i in self.tile_enc:
                    payloads.append(None)  # placeholder, re-tile below
                else:
                    payloads.append(self._read_flat_bytes(i))

        # unwritten in-memory chunks (active + upload buffer) have been
        # fully read above; the rewrite below re-emits every surviving
        # sample into fresh chunks
        self._active_chunk = None
        self._pending_chunks.clear()
        old_owned = set(self.chunk_set)
        new_enc = ChunkIdEncoder()
        new_tiles = TileEncoder()
        self.chunk_set = set()
        active: Optional[Chunk] = None

        def finish_active():
            nonlocal active
            if active is not None and active.num_samples:
                self._write_chunk(active)
            active = None

        for i, payload in enumerate(payloads):
            if payload is None:  # tiled sample: re-append as tiles
                finish_active()
                arr = self._read_tiled(i)
                tile_shape = tiling.choose_tile_shape(
                    arr.shape, arr.dtype.itemsize, self.meta.max_chunk_size
                )
                ids = []
                for tile in tiling.split(arr, tile_shape):
                    buf = (
                        compress_array(tile, self.meta.sample_compression)
                        if self.meta.sample_compression
                        else tile.tobytes()
                    )
                    chunk = Chunk(dtype=self.meta.dtype)
                    chunk.append(buf, tile.shape)
                    self.chunk_set.add(chunk.name)
                    self._write_chunk(chunk)
                    ids.append(ChunkIdEncoder.id_from_name(chunk.name))
                new_enc.register_tiled_sample(ids)
                new_tiles.register(i, arr.shape, tile_shape)
                continue
            raw, shape = payload
            if active is None or not active.can_fit(
                len(raw), self.meta.max_chunk_size
            ):
                finish_active()
                active = Chunk(dtype=self.meta.dtype)
                new_enc.register_chunk(
                    ChunkIdEncoder.id_from_name(active.name), 0
                )
                self.chunk_set.add(active.name)
            active.append(raw, shape)
            new_enc.register_samples(1)
        finish_active()

        if self.meta.is_sequence:
            # rebuild flat encoder only; sequence ranges unchanged
            pass
        # delete replaced chunks owned by this commit
        for name in old_owned - self.chunk_set:
            key = K.chunk_key(self.commit_id, self.tensor, name)
            try:
                del self.storage[key]
            except KeyError:
                pass
            self._cache_drop(key)
            self.chunk_stats.pop(name, None)
        self.enc = new_enc
        self.tile_enc = new_tiles
        self._dirty = True
        self.flush()
        return self.enc.num_chunks

    # ------------------------------------------------------------------ #
    # introspection used by loaders / schedulers
    # ------------------------------------------------------------------ #

    def chunk_layout(self) -> List[Tuple[str, int, int]]:
        """(chunk_name, start_sample, end_sample) rows in storage order."""
        return [
            (ChunkIdEncoder.name_from_id(cid), start, end)
            for cid, start, end in self.enc.chunk_ranges()
        ]

    def fragmentation(self) -> float:
        """Fraction of chunks below the lower size bound (rechunk signal)."""
        self._finalize_active()
        names = [
            ChunkIdEncoder.name_from_id(cid)
            for cid, _s, _e in self.enc.chunk_ranges()
        ]
        if not names:
            return 0.0
        small = 0
        seen = set()
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            mem = self._mem_chunk(name)
            if mem is not None:
                approx = len(mem.data)
            else:
                try:
                    key, header = self._load_header(name)
                except KeyError:
                    continue
                approx = (
                    int(header.byte_positions[-1][1])
                    if len(header.byte_positions) else 0
                )
            if approx < self.meta.min_chunk_size:
                small += 1
        return small / len(seen) if seen else 0.0


# --------------------------------------------------------------------------- #
# cross-tensor plan fusion
# --------------------------------------------------------------------------- #


class FusedReadPlan:
    """Per-tensor :class:`ReadPlan`\\ s of one request, executed as ONE
    storage round trip.

    A dataloader worker group, a TQL scan window, and a served
    ``read_batch`` all touch several tensors for the *same* rows; without
    fusion each tensor's plan pays its own
    :meth:`~repro.storage.provider.StorageProvider.get_many`.  Fusing
    merges every plan's missing chunks into a single ``get_many`` per
    distinct storage provider (normally exactly one — all engines of a
    dataset share the provider), so a group touching images+labels+boxes
    costs one round trip instead of three.  Decoding fans out over the
    shared decode pool, and each plan then slices its samples exactly as
    serial :meth:`ChunkEngine.execute_plan` would — results are
    byte-identical, only the round-trip count changes.
    """

    __slots__ = ("parts",)

    def __init__(self):
        self.parts: List[Tuple[ChunkEngine, ReadPlan]] = []

    def add(self, engine: ChunkEngine, plan: ReadPlan) -> "FusedReadPlan":
        self.parts.append((engine, plan))
        return self

    @property
    def num_chunks(self) -> int:
        return sum(plan.num_chunks for _e, plan in self.parts)

    def __repr__(self) -> str:
        return (
            f"FusedReadPlan(tensors={[p.tensor for _e, p in self.parts]}, "
            f"chunks={self.num_chunks})"
        )

    def _fetch_all(self) -> List[Dict[str, Chunk]]:
        """Resident chunks per part, with every miss across all parts
        fetched in one ``get_many`` per distinct storage provider."""
        resident: List[Dict[str, Chunk]] = []
        part_fetches: List[Dict[str, str]] = []  # per part: key -> name
        by_storage: Dict[int, Tuple[StorageProvider, Set[str]]] = {}
        for engine, plan in self.parts:
            chunks, to_fetch = engine._plan_resident_chunks(plan)
            resident.append(chunks)
            part_fetches.append(to_fetch)
            if to_fetch:
                sid = id(engine.storage)
                if sid not in by_storage:
                    by_storage[sid] = (engine.storage, set())
                by_storage[sid][1].update(to_fetch)
        if by_storage:
            blobs: Dict[str, bytes] = {}
            with _tracing.span(
                "engine.fused_fetch", tensors=len(self.parts),
                chunks=sum(len(keys) for _s, keys in by_storage.values()),
            ):
                for storage, want in by_storage.values():
                    blobs.update(storage.get_many(sorted(want)))
            for (engine, _plan), chunks, to_fetch in zip(
                self.parts, resident, part_fetches
            ):
                if not to_fetch:
                    continue
                # an earlier part of the same engine may have decoded a
                # shared chunk already (duplicate tensor in the request)
                still: Dict[str, str] = {}
                for key, name in to_fetch.items():
                    cached = engine._cache_peek(key)
                    if cached is not None:
                        chunks[name] = cached
                    else:
                        still[key] = name
                if still:
                    engine._absorb_fetched(still, blobs, chunks)
        return resident

    def execute(self, decode: bool = True, aslist: bool = False) -> List[List]:
        """Run every part; returns one value-list per part, in
        :meth:`add` order — each exactly what the part's own
        ``execute_plan`` would have returned."""
        fetched = self._fetch_all()
        return [
            engine.execute_plan(plan, aslist=aslist, decode=decode,
                                _chunks=chunks)
            for (engine, plan), chunks in zip(self.parts, fetched)
        ]

    def prefetch(self) -> None:
        """Fetch + decode every missing chunk into the engines' caches
        without slicing any samples — the server-push speculation path."""
        self._fetch_all()
