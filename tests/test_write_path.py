"""Exception-safe, pipelined write path.

Covers the `set_many` contract across every storage provider, batch
charging on the simulated object store, crash-consistent flush ordering
(chunks -> encoders -> meta), atomic append/extend under mid-batch
failures, the killed-mid-flush reload guarantee, and the streaming
ingest-while-serving scenario.
"""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro
from repro.core import htypes
from repro.core.chunk_engine import ChunkEngine, _WRITE_PIPELINE, write_pipeline
from repro.core.encoders import ChunkIdEncoder
from repro.exceptions import (
    FormatError,
    NetworkError,
    ReadOnlyStorageError,
    SampleShapeError,
    TensorDoesNotExistError,
)
from repro.ingest.connectors import JSONLSource, ingest_stream
from repro.serve import DatasetServer, clear_servers
from repro.sim import FlakyNetwork, NETWORK_PRESETS, SimClock
from repro.storage import (
    LocalProvider,
    LRUCache,
    MemoryProvider,
    SimulatedObjectStore,
    make_object_store,
)
from repro.util import keys as K
from repro.util.ids import seed_ids


@pytest.fixture(autouse=True)
def _no_leftover_servers():
    clear_servers()
    yield
    clear_servers()


class RecordingProvider(MemoryProvider):
    """Memory store that records every set_many batch's key list."""

    def __init__(self):
        super().__init__("recording")
        self.batches = []

    def set_many(self, items):
        self.batches.append(list(items))
        super().set_many(items)


class KillableProvider(MemoryProvider):
    """Memory store that 'dies' after a budget of set_many calls."""

    def __init__(self):
        super().__init__("killable")
        self.calls = 0
        self.kill_after = None  # allowed set_many calls before the "kill"

    def set_many(self, items):
        if self.kill_after is not None and self.calls >= self.kill_after:
            raise RuntimeError("simulated process kill mid-flush")
        self.calls += 1
        super().set_many(items)


class Boom:
    """A sample whose serialization always fails."""

    def __array__(self, dtype=None):
        raise ValueError("boom")


# --------------------------------------------------------------------------- #
# set_many contract (satellite: every provider honors the same semantics)
# --------------------------------------------------------------------------- #


@pytest.fixture(params=["memory", "local", "s3", "lru_wt", "lru_wb", "remote"])
def any_provider(request, tmp_path):
    if request.param == "memory":
        yield MemoryProvider()
    elif request.param == "local":
        yield LocalProvider(str(tmp_path / "store"))
    elif request.param == "s3":
        yield make_object_store("s3", clock=SimClock())
    elif request.param in ("lru_wt", "lru_wb"):
        yield LRUCache(
            MemoryProvider("cache"), MemoryProvider("next"), 10**6,
            write_through=(request.param == "lru_wt"),
        )
    else:
        server = DatasetServer(name="setmany-server")
        server.add_dataset("ds", MemoryProvider("backend"))
        with server:
            yield server.connect("ds")


class TestSetManyContract:
    def test_roundtrip(self, any_provider):
        items = {"a/chunks/x": b"AAA", "b/meta.json": b"BB", "c": b"C"}
        any_provider.set_many(items)
        for key, value in items.items():
            assert any_provider[key] == value

    def test_empty_batch_is_noop(self, any_provider):
        any_provider.set_many({})

    def test_overwrites_existing(self, any_provider):
        any_provider["k"] = b"old"
        any_provider.set_many({"k": b"new"})
        assert any_provider["k"] == b"new"

    def test_read_only_raises(self, any_provider):
        any_provider.read_only = True
        try:
            with pytest.raises(ReadOnlyStorageError):
                any_provider.set_many({"k": b"v"})
        finally:
            any_provider.read_only = False

    def test_put_accounting(self, any_provider):
        before = any_provider.stats.put_requests
        any_provider.set_many({"a": b"12345", "b": b"67890"})
        assert any_provider.stats.put_requests == before + 2


# --------------------------------------------------------------------------- #
# simulated object store: batch charging, retries, atomic failure
# --------------------------------------------------------------------------- #


class TestObjectStoreBatching:
    def test_one_request_per_batch(self):
        store = make_object_store("s3", clock=SimClock())
        store.set_many({f"k{i}": b"x" * 100 for i in range(32)})
        assert store.requests_by_op["upload_batch"] == 1
        assert store.requests_by_op.get("upload") is None

    def test_batch_cheaper_than_individual_puts(self):
        blobs = {f"k{i}": b"x" * 1000 for i in range(20)}
        serial = make_object_store("s3", clock=SimClock())
        for key, value in blobs.items():
            serial[key] = value
        batched = make_object_store("s3", clock=SimClock())
        batched.set_many(blobs)
        assert batched.clock.now() < serial.clock.now() / 2

    def test_individual_put_accounting_parity(self):
        store = make_object_store("s3", clock=SimClock())
        store["k"] = b"payload"
        assert store.requests_by_op["upload"] == 1
        assert store.stats.put_requests == 1

    def test_failed_batch_installs_nothing(self):
        flaky = FlakyNetwork(NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0)
        store = SimulatedObjectStore(
            "s3", network=flaky, clock=SimClock(), max_retries=2
        )
        with pytest.raises(NetworkError):
            store.set_many({"a": b"1", "b": b"2"})
        assert store.backing._all_keys() == set()
        assert "upload_batch" not in store.requests_by_op

    def test_transient_failures_retried_then_batch_lands(self):
        flaky = FlakyNetwork(
            NETWORK_PRESETS["s3"], failure_rate=1.0, seed=0, max_consecutive=2
        )
        store = SimulatedObjectStore("s3", network=flaky, clock=SimClock())
        store.set_many({"a": b"1", "b": b"2"})
        assert store.retries_performed == 2
        assert store["a"] == b"1" and store["b"] == b"2"
        assert store.requests_by_op["upload_batch"] == 1


# --------------------------------------------------------------------------- #
# crash-consistent flush ordering (satellite: key classes, not lexicographic)
# --------------------------------------------------------------------------- #


class TestFlushOrdering:
    def test_key_class(self):
        assert K.key_class("images/chunks/0fa3") == K.KEY_CLASS_CHUNK
        assert K.key_class("images/chunk_id_encoder") == K.KEY_CLASS_ENCODER
        assert K.key_class("images/tile_encoder.json") == K.KEY_CLASS_ENCODER
        assert K.key_class("images/tensor_meta.json") == K.KEY_CLASS_META
        assert K.key_class("dataset_meta.json") == K.KEY_CLASS_META

    def test_writeback_flush_orders_by_class(self):
        # adversarial tensor name: lexicographically *before* "chunks", so
        # the old sorted() flush would have written meta first
        nxt = RecordingProvider()
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache["aaa/tensor_meta.json"] = b"meta"
        cache["aaa/chunk_id_encoder"] = b"enc"
        cache["aaa/chunks/deadbeef"] = b"chunk"
        cache["dataset_meta.json"] = b"dsmeta"
        cache.flush()
        classes = [
            [K.key_class(k) for k in batch] for batch in nxt.batches if batch
        ]
        flat = [c for batch in classes for c in batch]
        assert flat == sorted(flat), f"unordered flush: {nxt.batches}"
        assert flat[0] == K.KEY_CLASS_CHUNK
        assert flat[-1] == K.KEY_CLASS_META

    def test_crash_between_classes_leaves_only_chunks(self):
        class DiesOnSecondBatch(MemoryProvider):
            def __init__(self):
                super().__init__("dies")
                self.calls = 0

            def set_many(self, items):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("killed")
                super().set_many(items)

        nxt = DiesOnSecondBatch()
        cache = LRUCache(MemoryProvider(), nxt, 10**6, write_through=False)
        cache["t/chunks/c1"] = b"chunk"
        cache["t/chunk_id_encoder"] = b"enc"
        cache["t/tensor_meta.json"] = b"meta"
        with pytest.raises(RuntimeError):
            cache.flush()
        # the chunk blob is durable, the encoder/meta that reference it
        # never made it -- no dangling references downstream
        assert nxt._all_keys() == {"t/chunks/c1"}


# --------------------------------------------------------------------------- #
# atomic append/extend (the bugfix: no torn state on mid-batch failure)
# --------------------------------------------------------------------------- #


def _snapshot(ds, name):
    engine = ds._engine(name)
    links = engine.meta.links
    state = {"rows": engine.num_samples}
    for link_name in links.values():
        state[link_name] = ds._engine(link_name).num_samples
    return state


class TestAtomicExtend:
    def test_stage_failure_leaves_dataset_untouched(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="float32")
        ds.x.extend([np.ones((4, 4), dtype=np.float32)] * 3)
        before = _snapshot(ds, "x")
        with pytest.raises(Exception):
            ds.x.extend([np.zeros((4, 4), dtype=np.float32), Boom()])
        assert _snapshot(ds, "x") == before
        assert np.array_equal(ds.x[2].numpy(), np.ones((4, 4)))

    def test_commit_failure_rolls_back_whole_batch(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="int64")
        ds.x.append(np.arange(4).reshape(2, 2))
        before = _snapshot(ds, "x")
        good = np.full((2, 2), 7, dtype=np.int64)
        bad_rank = np.zeros((2, 2, 2), dtype=np.int64)
        with pytest.raises(FormatError):
            ds.x.extend([good, bad_rank])
        # the good sample committed before the bad one must be rolled
        # back too -- extend is all-or-nothing per tensor
        assert _snapshot(ds, "x") == before
        assert np.array_equal(ds.x[0].numpy(), np.arange(4).reshape(2, 2))
        # engine state is coherent: writes keep working afterwards
        ds.x.extend([good, good])
        assert ds.x.num_samples == 3
        assert np.array_equal(ds.x[2].numpy(), good)

    def test_rollback_consistent_after_reload(self):
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor("x", dtype="int64", max_chunk_size=1024)
        rows = [np.arange(64, dtype=np.int64).reshape(8, 8)] * 6
        ds.x.extend(rows)
        with pytest.raises(FormatError):
            ds.x.extend([rows[0], np.zeros((2, 2, 2), dtype=np.int64)])
        ds.flush()
        ds2 = repro.load(storage)
        assert ds2.x.num_samples == 6
        for i in range(6):
            assert np.array_equal(ds2.x[i].numpy(), rows[i])

    def test_serial_mode_rollback_also_atomic(self):
        with write_pipeline(enabled=False):
            storage = MemoryProvider()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("x", dtype="int64", max_chunk_size=512)
            rows = [np.arange(32, dtype=np.int64)] * 8
            ds.x.extend(rows)
            with pytest.raises(FormatError):
                ds.x.extend(
                    [rows[0]] * 4 + [np.zeros((2, 2), dtype=np.int64)]
                )
            ds.flush()
            ds2 = repro.load(storage)
            assert ds2.x.num_samples == 8
            for i in range(8):
                assert np.array_equal(ds2.x[i].numpy(), rows[i])

    def test_sequence_extend_atomic(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("seq", htype="sequence[generic]", dtype="int64")
        ds.seq.extend([[np.arange(3), np.arange(3)]])
        before = _snapshot(ds, "seq")
        with pytest.raises(Exception):
            ds.seq.extend([[np.arange(3), Boom()]])
        assert _snapshot(ds, "seq") == before
        ds.seq.extend([[np.arange(3)] * 3])
        assert ds.seq.num_samples == 2

    def test_dataset_extend_cross_tensor_stage_atomicity(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("a", dtype="int64")
        ds.create_tensor("b", dtype="int64")
        ds.extend({"a": [np.int64(1)], "b": [np.int64(2)]})
        with pytest.raises(Exception):
            # 'b' has the bad sample; 'a' stages fine but must not commit
            ds.extend({"a": [np.int64(3)], "b": [Boom()]})
        assert ds.a.num_samples == 1
        assert ds.b.num_samples == 1

    def test_dataset_extend_validation(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("a", dtype="int64")
        ds.create_tensor("b", dtype="int64")
        with pytest.raises(FormatError):
            ds.extend({"a": [np.int64(1)], "b": [np.int64(1), np.int64(2)]})
        with pytest.raises(TensorDoesNotExistError):
            ds.extend({"nope": [np.int64(1)]})
        with pytest.raises(FormatError):
            ds.extend({"a": [np.int64(1)]})
        ds.extend({"a": [np.int64(1)]}, append_empty=True)
        assert ds.a.num_samples == 1
        assert ds.b.num_samples == 1

    def test_extend_matches_append_loop(self, rng):
        rows = [
            rng.integers(0, 255, (8, 8), dtype=np.uint8) for _ in range(12)
        ]
        ds_a = repro.empty(MemoryProvider(), overwrite=True)
        ds_a.create_tensor("x", dtype="uint8", max_chunk_size=1024)
        for row in rows:
            ds_a.x.append(row)
        ds_b = repro.empty(MemoryProvider(), overwrite=True)
        ds_b.create_tensor("x", dtype="uint8", max_chunk_size=1024)
        ds_b.x.extend(rows)
        assert ds_b.x.num_samples == len(rows)
        for i in range(len(rows)):
            assert np.array_equal(ds_a.x[i].numpy(), ds_b.x[i].numpy())
        # companions advanced in lockstep
        eng = ds_b._engine("x")
        for link_name in eng.meta.links.values():
            assert ds_b._engine(link_name).num_samples == len(rows)


# --------------------------------------------------------------------------- #
# killed mid-flush: storage reloads to a consistent committed version
# --------------------------------------------------------------------------- #


class TestKilledMidFlush:
    def test_reload_never_references_missing_chunks(self, rng):
        storage = KillableProvider()
        ds = repro.empty(storage, overwrite=True)
        ds.create_tensor(
            "x", dtype="uint8", max_chunk_size=2048,
            create_shape_tensor=False, create_id_tensor=False,
        )
        first = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8) for _ in range(8)
        ]
        ds.x.extend(first)
        ds.flush()
        committed_keys = set(storage._all_keys())

        ds.x.extend(
            [rng.integers(0, 255, (16, 16), dtype=np.uint8)
             for _ in range(8)]
        )
        # allow exactly one more set_many (the chunk batch), then "die"
        # before the encoder/meta batches land
        storage.kill_after = storage.calls + 1
        with pytest.raises(RuntimeError):
            ds.flush()
        storage.kill_after = None

        new_keys = set(storage._all_keys()) - committed_keys
        assert new_keys, "the chunk batch should have landed before the kill"
        assert all(K.key_class(k) == K.KEY_CLASS_CHUNK for k in new_keys)

        ds2 = repro.load(storage)
        assert ds2.x.num_samples == len(first)
        for i, row in enumerate(first):
            assert np.array_equal(ds2.x[i].numpy(), row)
        # every chunk the reloaded encoder references exists in storage
        eng = ds2._engine("x")
        for row in range(eng.num_samples):
            eng.read_sample(row)


# --------------------------------------------------------------------------- #
# write pipeline: ablation parity, buffered reads, batched uploads
# --------------------------------------------------------------------------- #


class TestWritePipeline:
    def test_default_configuration(self):
        assert _WRITE_PIPELINE["enabled"] is True
        assert _WRITE_PIPELINE["workers"] >= 1

    def test_context_restores_config(self):
        prev = dict(_WRITE_PIPELINE)
        with write_pipeline(enabled=False, workers=1, watermark_chunks=2):
            assert _WRITE_PIPELINE["enabled"] is False
        assert _WRITE_PIPELINE == prev

    def test_pipelined_and_serial_produce_same_reads(self, rng):
        rows = [
            rng.integers(0, 255, (12, 12), dtype=np.uint8)
            for _ in range(16)
        ]
        datasets = {}
        for mode in (True, False):
            with write_pipeline(enabled=mode, watermark_chunks=3):
                storage = MemoryProvider()
                ds = repro.empty(storage, overwrite=True)
                ds.create_tensor("x", dtype="uint8", max_chunk_size=1024)
                ds.x.extend(rows)
                ds.flush()
            datasets[mode] = repro.load(storage)
        for i in range(len(rows)):
            assert np.array_equal(
                datasets[True].x[i].numpy(), datasets[False].x[i].numpy()
            )

    def test_buffered_chunks_readable_before_flush(self, rng):
        with write_pipeline(watermark_chunks=10**6):  # never auto-flush
            ds = repro.empty(MemoryProvider(), overwrite=True)
            ds.create_tensor("x", dtype="uint8", max_chunk_size=1024)
            rows = [
                rng.integers(0, 255, (12, 12), dtype=np.uint8)
                for _ in range(16)
            ]
            ds.x.extend(rows)
            for i in (0, 7, 15):  # spans finalized-but-unflushed chunks
                assert np.array_equal(ds.x[i].numpy(), rows[i])

    def test_pipelined_writes_batch_object_store_puts(self, rng):
        rows = [
            rng.integers(0, 255, (16, 16), dtype=np.uint8)
            for _ in range(24)
        ]

        def ingest(enabled):
            store = make_object_store("s3", clock=SimClock())
            with write_pipeline(enabled=enabled, watermark_chunks=8):
                ds = repro.empty(store, overwrite=True)
                ds.create_tensor(
                    "x", dtype="uint8", max_chunk_size=512,
                    create_shape_tensor=False, create_id_tensor=False,
                )
                ds.x.extend(rows)
                ds.flush()
            return store

        serial = ingest(False)
        pipelined = ingest(True)
        chunk_uploads = serial.requests_by_op["upload"]
        batches = pipelined.requests_by_op["upload_batch"]
        assert batches < chunk_uploads / 2
        assert pipelined.clock.now() < serial.clock.now()


# --------------------------------------------------------------------------- #
# transform write side: parallel eval equals serial, in input order
# --------------------------------------------------------------------------- #


class TestTransformParallelWrites:
    def test_parallel_eval_matches_serial(self, rng):
        src = repro.empty(MemoryProvider(), overwrite=True)
        src.create_tensor("x", dtype="int64")
        values = [np.full((4,), i, dtype=np.int64) for i in range(40)]
        src.x.extend(values)

        @repro.compute
        def double(sample_in, sample_out):
            sample_out.append({"y": sample_in["x"] * 2})

        outputs = {}
        for workers in (0, 4):
            out = repro.empty(MemoryProvider(), overwrite=True)
            out.create_tensor("y", dtype="int64")
            n = double().eval(src, out, num_workers=workers)
            assert n == len(values)
            outputs[workers] = out.y.numpy()
        assert np.array_equal(outputs[0], outputs[4])
        assert np.array_equal(outputs[4][5], values[5] * 2)


# --------------------------------------------------------------------------- #
# streaming ingestion against a served dataset
# --------------------------------------------------------------------------- #


class TestStreamingIngest:
    def _write_jsonl(self, tmp_path, n):
        path = tmp_path / "records.jsonl"
        with open(path, "w") as f:
            for i in range(n):
                f.write('{"a": %d, "b": "row%d"}\n' % (i, i))
        return str(path)

    def test_ingest_stream_yields_committed_counts(self, tmp_path):
        path = self._write_jsonl(tmp_path, 23)
        storage = MemoryProvider()
        ds = repro.empty(storage, overwrite=True)
        counts = []
        for count in ingest_stream(JSONLSource(path), ds, batch_size=5):
            counts.append(count)
            # an independent reader opening the same storage between
            # batches sees exactly the committed rows, fully readable
            reader = repro.load(storage, read_only=True)
            assert reader.a.num_samples == count
            assert int(reader.a[count - 1].numpy()) == count - 1
        assert counts == [5, 10, 15, 20, 23]

    def test_ingest_stream_limit(self, tmp_path):
        path = self._write_jsonl(tmp_path, 23)
        ds = repro.empty(MemoryProvider(), overwrite=True)
        counts = list(
            ingest_stream(JSONLSource(path), ds, batch_size=4, limit=10)
        )
        assert counts[-1] == 10
        assert ds.a.num_samples == 10

    def test_stream_into_served_dataset(self, tmp_path, rng):
        """Writer appends through the serving layer (put_many round trips)
        while a second client reads consistent committed versions."""
        path = self._write_jsonl(tmp_path, 12)
        backend = MemoryProvider("backend")
        server = DatasetServer(name="stream-server")
        server.add_dataset("ds", backend)
        with server:
            writer = repro.empty(server.connect("ds"), overwrite=True)
            for count in ingest_stream(
                JSONLSource(path), writer, batch_size=4
            ):
                reader = repro.load(
                    server.connect("ds", tenant="reader"), read_only=True
                )
                assert reader.a.num_samples == count
                got = [int(reader.a[i].numpy()) for i in range(count)]
                assert got == list(range(count))
            assert count == 12


# --------------------------------------------------------------------------- #
# columnar (dense-segment) writes match row-by-row appends
# --------------------------------------------------------------------------- #

_DTYPES = ["bool", "int8", "int32", "int64", "uint8", "uint16", "uint64",
           "float32", "float64"]


@st.composite
def _dense_batches(draw):
    """A fixed-shape column plus how to hand it to ``extend``."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rows = draw(st.integers(1, 24))
    # NaN min/max depends on visiting order, so per-row and per-chunk
    # statistics legitimately differ on it
    elements = (
        st.floats(allow_nan=False, width=8 * dtype.itemsize)
        if dtype.kind == "f" else None
    )
    col = draw(hnp.arrays(dtype, (rows,) + shape, elements=elements))
    return {
        "col": col,
        "form": draw(st.sampled_from(["ndarray", "numpy_list",
                                      "python_list"])),
        "split": draw(st.integers(0, rows)),
        "declare": draw(st.booleans()),
        "max_chunk_size": draw(st.sampled_from([8, 24, 100, 4096])),
        "pipelined": draw(st.booleans()),
    }


def _as_form(col, form):
    if form == "ndarray":
        return col
    if form == "numpy_list":
        return list(col)  # numpy scalars / sub-arrays
    return col.tolist()  # Python scalars (nested lists for rank >= 1)


def _column_state(ds, name):
    """Everything a write leaves in one tensor, chunk names aside."""
    eng = ds._engine(name)
    ranges = eng.enc.chunk_ranges()
    rows = [eng.read_sample(i) for i in range(eng.num_samples)]
    si = eng.meta.shape_interval
    return {
        "rows": [(r.dtype.str, r.shape, r.tobytes()) for r in rows],
        "chunk_rows": [(start, end) for _cid, start, end in ranges],
        "chunk_stats": [
            eng.chunk_stats.get(ChunkIdEncoder.name_from_id(cid))
            for cid, _s, _e in ranges
        ],
        "shape_interval": (si.lower, si.upper, si.is_empty),
        "length": eng.meta.length,
        "dtype": eng.meta.dtype,
        "tiled": sorted(eng.tile_enc._layouts.items()),
    }


def _engine_state(ds):
    """Exact in-memory state of every tensor (hidden ones included)."""
    out = {}
    for name in sorted(ds._meta.tensors):
        eng = ds._engine(name)
        chunks = {}
        for cid, _s, _e in eng.enc.chunk_ranges():
            cname = ChunkIdEncoder.name_from_id(cid)
            chunks[cname] = eng._load_chunk(cname).tobytes()
        active = eng._active_chunk
        out[name] = {
            "chunks": chunks,
            "enc": eng.enc.tobytes(),
            "pad": eng.pad_enc.tobytes(),
            "meta": eng.meta.to_json(),
            "stats": copy.deepcopy(eng.chunk_stats),
            "diff": eng.commit_diff.to_json(),
            "chunk_set": sorted(eng.chunk_set),
            "pending": list(eng._pending_chunks),
            "active": None if active is None else active.name,
        }
    return out


def _stored(storage):
    return {
        key: bytes(storage[key]) for key in storage
        if key != K.version_control_info_key()
    }


def _no_dense_staging():
    """Stage every batch row by row, the way all writes went before
    dense segments (the byte-for-byte reference)."""
    return mock.patch.object(ChunkEngine, "_stage_column",
                             lambda self, values: None)


class TestColumnarWrites:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_dense_batches())
    def test_extend_matches_row_appends(self, case):
        col, form = case["col"], case["form"]
        dtype = col.dtype.name if case["declare"] else None
        states = []
        with write_pipeline(enabled=case["pipelined"]):
            for columnar in (True, False):
                ds = repro.empty(MemoryProvider(), overwrite=True)
                ds.create_tensor("x", dtype=dtype,
                                 max_chunk_size=case["max_chunk_size"])
                if columnar:
                    split = case["split"]
                    ds.extend({"x": _as_form(col[:split], form)})
                    ds.extend({"x": _as_form(col[split:], form)})
                else:
                    for row in _as_form(col, form):
                        ds.append({"x": row})
                ids = ds._engine("_x_id").read_batch(
                    range(len(col)), aslist=True
                )
                states.append((
                    _column_state(ds, "x"),
                    _column_state(ds, "_x_shape"),
                    [(a.dtype, a.shape) for a in ids],
                ))
        assert states[0] == states[1]
        assert len({int(a) for a in ids}) == len(col)  # ids stay unique

    def test_ndarray_column_is_one_dense_segment(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="float32")
        col = np.arange(12, dtype=np.float32).reshape(6, 2)
        plan = ds._engine("x").stage_appends(col)
        assert plan.dense is not None and not plan.entries
        assert plan.num_rows == 6 and plan.num_bytes == col.nbytes
        # ragged, mixed-dtype and non-numeric batches stage row by row
        eng = ds._engine("x")
        for values in (
            [np.zeros(2, np.float32), np.zeros(3, np.float32)],
            [np.float32(1), np.float64(2)],
            [1, 2.5],
        ):
            assert eng.stage_appends(values).dense is None

    def test_dense_staging_pools_nothing(self):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", dtype="int64")
        with mock.patch("repro.core.chunk_engine.ThreadPoolExecutor") as pool:
            ds.extend({"x": np.arange(64, dtype=np.int64)})
        pool.assert_not_called()

    def test_seeded_store_is_byte_identical_to_row_by_row(self):
        rng = np.random.default_rng(3)
        batches = [
            {"a": rng.random(n).astype(np.float32),
             "b": rng.integers(-99, 99, (n, 3)).astype(np.int64),
             "box": rng.random((n, 2, 4)).astype(np.float32)}
            for n in (5, 40, 1, 23, 64)
        ]

        def script():
            seed_ids(11)
            storage = MemoryProvider()
            ds = repro.empty(storage, overwrite=True)
            ds.create_tensor("a", dtype="float32", max_chunk_size=64)
            ds.create_tensor("b", dtype="int64", max_chunk_size=100)
            ds.create_tensor("box", htype="bbox", max_chunk_size=256)
            for step, batch in enumerate(batches):
                ds.extend(batch)
                if step in (1, 3):
                    ds.commit(f"step {step}")
            ds.flush()
            return _stored(storage)

        columnar = script()
        with _no_dense_staging():
            rowwise = script()
        assert sorted(columnar) == sorted(rowwise)
        for key in columnar:
            assert columnar[key] == rowwise[key], key


class TestDenseRollback:
    def _dataset(self, **kwargs):
        ds = repro.empty(MemoryProvider(), overwrite=True)
        ds.create_tensor("x", **kwargs)
        return ds

    def test_ragged_row_and_bool_column_leave_dataset_unchanged(self):
        ds = self._dataset(dtype="int64", max_chunk_size=64)
        ds.extend({"x": np.arange(20, dtype=np.int64).reshape(5, 4)})
        before = _engine_state(ds)
        good = np.ones(4, dtype=np.int64)
        with pytest.raises(FormatError):
            ds.extend({"x": [good, good, np.ones((2, 2), dtype=np.int64)]})
        assert _engine_state(ds) == before
        with pytest.raises(FormatError, match="holds dtype int64"):
            ds.extend({"x": np.ones((6, 4), dtype=bool)})
        assert _engine_state(ds) == before

    def test_bbox_batch_with_bad_last_row_leaves_dataset_unchanged(
        self, monkeypatch
    ):
        ds = self._dataset(htype="bbox")
        ds.extend({"x": np.zeros((3, 2, 4), dtype=np.float32)})
        before = _engine_state(ds)
        # ragged batch: the per-row path validates the bad row last
        rows = [np.zeros((2, 4), np.float32)] * 2 + [np.zeros((2, 5),
                                                             np.float32)]
        with pytest.raises(SampleShapeError):
            ds.extend({"x": rows})
        assert _engine_state(ds) == before
        # dense batch: the validate hook still sees every row
        spec = htypes.HTYPES["bbox"]

        def no_negative_coords(arr):
            spec.validate(arr)
            if (arr < 0).any():
                raise SampleShapeError("negative bbox coordinate")

        monkeypatch.setitem(htypes.HTYPES, "bbox", dataclasses.replace(
            spec, validate=no_negative_coords))
        col = np.zeros((4, 2, 4), dtype=np.float32)
        col[-1, 0, 0] = -1.0
        with pytest.raises(SampleShapeError, match="negative"):
            ds.extend({"x": col})
        assert _engine_state(ds) == before

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_failure_after_first_chunk_of_dense_segment(
        self, monkeypatch, pipelined
    ):
        with write_pipeline(enabled=pipelined):
            ds = self._dataset(dtype="int64", max_chunk_size=64)
            ds.extend({"x": np.arange(3, dtype=np.int64)})  # partial chunk
            before = _engine_state(ds)
            enc = ds._engine("x").enc
            calls = []
            real = enc.register_samples

            def flaky(count):
                calls.append(count)
                if len(calls) == 2:
                    raise RuntimeError("injected failure")
                real(count)

            monkeypatch.setattr(enc, "register_samples", flaky)
            with pytest.raises(RuntimeError, match="injected"):
                ds.x.extend(np.arange(40, dtype=np.int64))
            assert calls == [5, 8]  # fills the resumed chunk, then a new one
            assert _engine_state(ds) == before
            monkeypatch.undo()
            ds.x.extend(np.arange(40, dtype=np.int64))
            assert ds.x.numpy().tolist() == list(range(3)) + list(range(40))
