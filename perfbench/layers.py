"""Per-layer measurement: which entry points the traced run wraps, which
of the program's own counts it reads, and how both become metrics.

Layers are the program's modules.  Times come from spans the benchmark
records around each layer's public entry points (see :mod:`spans`);
counts come from deltas of ``repro.obs.snapshot()`` taken around each
operation, so they are the program's own exact accounting.
"""

from __future__ import annotations

import concurrent.futures
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from perfbench.spans import Patches, Recorder, self_times, wrap_callable

MB = 1024.0 * 1024.0


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(args[1])}


def _decoded_array(args, kwargs, result) -> dict:
    return {"nbytes": int(result.nbytes)}


def _decoded_bytes(args, kwargs, result) -> dict:
    return {"nbytes": len(result)}


def _encoded_array(args, kwargs, result) -> dict:
    return {"nbytes": int(getattr(args[0], "nbytes", 0))}


def _encoded_bytes(args, kwargs, result) -> dict:
    return {"nbytes": len(args[0])}


def instrument(recorder: Recorder) -> Patches:
    """Wrap every layer entry point the per-layer metrics need.

    Only the benchmark process is patched, and only for the traced
    phase; :meth:`Patches.undo` restores the original callables.
    """
    import repro.core.chunk as chunk_mod
    import repro.core.chunk_engine as engine_mod
    import repro.tql as tql_mod
    from repro.core.chunk_engine import ChunkEngine, FusedReadPlan
    from repro.core.dataset import Dataset
    from repro.dataloader.prefetch import PriorityWorkerPool
    from repro.serve.client import RemoteStorageProvider
    from repro.serve.server import DatasetServer
    from repro.storage.object_store import SimulatedObjectStore
    from repro.tql.executor import Executor

    patches = Patches()

    def spanned(owner, attr, name, attrs=None):
        patches.replace(
            owner, attr,
            lambda fn: wrap_callable(recorder, fn, name, attrs),
        )

    # storage: the simulated object store's public read/write surface
    for attr in ("__getitem__", "get_bytes"):
        spanned(SimulatedObjectStore, attr, "storage.get")
    spanned(SimulatedObjectStore, "get_many", "storage.get_many")
    spanned(SimulatedObjectStore, "__setitem__", "storage.put")
    spanned(SimulatedObjectStore, "set_many", "storage.set_many")
    # chunk_engine: plan / execute on the read side, stage / commit /
    # flush on the write side
    spanned(ChunkEngine, "plan_reads", "engine.plan_reads", _rows)
    spanned(ChunkEngine, "execute_plan", "engine.execute")
    spanned(FusedReadPlan, "execute", "engine.execute")
    spanned(ChunkEngine, "stage_appends", "engine.stage", _rows)
    spanned(ChunkEngine, "commit_appends", "engine.commit")
    spanned(Dataset, "flush", "engine.flush")
    spanned(Dataset, "read_rows", "dataset.read_rows", _rows)
    # compression: the codec helpers as the chunk engine and chunk
    # serializer bound them
    spanned(engine_mod, "decompress_array", "codec.decode", _decoded_array)
    spanned(engine_mod, "compress_array", "codec.encode", _encoded_array)
    spanned(chunk_mod, "decompress_bytes", "codec.decode", _decoded_bytes)
    spanned(chunk_mod, "compress_bytes", "codec.encode", _encoded_bytes)
    # tql: the three stages repro.tql.query runs
    spanned(tql_mod, "parse", "tql.parse")
    spanned(tql_mod, "build_plan", "tql.plan")
    spanned(Executor, "run", "tql.execute")
    # serve: client round trips and server-side handling
    for attr in ("read_columns", "get_many", "__getitem__", "get_bytes"):
        spanned(RemoteStorageProvider, attr, "serve.client")
    spanned(DatasetServer, "handle", "serve.handle")
    # version_control
    spanned(Dataset, "commit", "vc.commit")

    # carry the submitting thread's span onto pool threads: the shared
    # decode pool, the write-staging pool, loader prefetch workers and
    # the threaded serve transport
    patches.replace(
        concurrent.futures.ThreadPoolExecutor, "submit",
        lambda fn: lambda self, f, *a, **k: fn(self, recorder.carry(f),
                                               *a, **k),
    )
    patches.replace(
        PriorityWorkerPool, "submit",
        lambda fn: lambda self, prio, f, *a: fn(self, prio,
                                                recorder.carry(f), *a),
    )
    return patches


# --------------------------------------------------------------------- #
# the program's own counts
# --------------------------------------------------------------------- #

def _labels(label_str: str) -> Dict[str, str]:
    return dict(p.split("=", 1) for p in label_str.split(",") if "=" in p)


def program_counts(snapshot: dict) -> Dict[str, float]:
    """Flatten one ``repro.obs.snapshot()`` into the counts the
    per-layer metrics use (sums over tensors / datasets / stores)."""
    out: Dict[str, float] = defaultdict(float)

    def series(name):
        for label_str, value in snapshot.get(name, {}).items():
            yield _labels(label_str), value

    for labels, h in series("objectstore.request_seconds"):
        op = labels.get("op", "")
        if op in ("download", "download_batch"):
            out["storage.get_requests"] += h["count"]
        elif op in ("upload", "upload_batch"):
            out["storage.put_requests"] += h["count"]
        out["storage.virtual_s"] += h["sum"]
    for metric, key in (("storage.get_requests", "storage.keys_read"),
                        ("storage.bytes_read", "storage.bytes_read"),
                        ("storage.bytes_written", "storage.bytes_written")):
        for labels, value in series(metric):
            if labels.get("provider") == "SimulatedObjectStore":
                out[key] += value
    for event in ("hits", "misses", "evictions"):
        for labels, value in series(f"cache.{event}"):
            side = "server" if labels.get("cache", "").endswith("-serve") \
                else "client"
            out[f"cache.{side}_{event}"] += value
    for metric, key in (
        ("chunk_engine.decoded_cache_hits", "engine.decoded_hits"),
        ("chunk_engine.decoded_cache_misses", "engine.decoded_misses"),
        ("chunk_engine.full_chunk_reads", "engine.chunks_fetched"),
        ("tql.rows_scanned", "tql.rows_scanned"),
        ("tql.chunks_skipped", "tql.chunks_skipped"),
        ("serve.prefetch_issued", "serve.prefetch_issued"),
        ("serve.prefetch_hits", "serve.prefetch_hits"),
        ("serve.prefetch_wasted", "serve.prefetch_wasted"),
        ("serve.bytes_out", "serve.response_bytes"),
    ):
        for _labels_, value in series(metric):
            out[key] += value
    return dict(out)


def count_delta(before: Dict[str, float],
                after: Dict[str, float]) -> Dict[str, float]:
    keys = set(before) | set(after)
    return {k: after.get(k, 0.0) - before.get(k, 0.0) for k in sorted(keys)}


def exact_counts(untraced: Sequence[Dict[str, float]],
                 traced: Sequence[Dict[str, float]]) -> Dict[str, bool]:
    """Per count: did every operation produce the same delta both times
    it ran (untraced half, then traced half)?"""
    keys = set()
    for d in list(untraced) + list(traced):
        keys.update(d)
    return {
        k: len(untraced) == len(traced) and all(
            u.get(k, 0.0) == t.get(k, 0.0) for u, t in zip(untraced, traced)
        )
        for k in sorted(keys)
    }


# --------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------- #

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: List[tuple] = [
    ("storage.get_requests", "count", "lower"),
    ("storage.keys_read", "count", "lower"),
    ("storage.bytes_read", "bytes", "lower"),
    ("storage.self_ms", "ms", "lower"),
    ("storage.virtual_s", "s", "lower"),
    ("storage.put_requests", "count", "lower"),
    ("storage.bytes_written", "bytes", "lower"),
    ("storage.write_amplification", "ratio", "lower"),
    ("cache.client_hit_ratio", "ratio", "higher"),
    ("cache.client_evictions", "count", "lower"),
    ("cache.server_hit_ratio", "ratio", "higher"),
    ("cache.server_evictions", "count", "lower"),
    ("engine.plan_self_ms", "ms", "lower"),
    ("engine.plan_ns_per_row", "ns/row", "lower"),
    ("engine.execute_self_ms", "ms", "lower"),
    ("engine.chunks_fetched", "count", "lower"),
    ("engine.decoded_cache_hit_ratio", "ratio", "higher"),
    ("engine.stage_self_ms", "ms", "lower"),
    ("engine.commit_self_ms", "ms", "lower"),
    ("engine.append_us_per_row", "us/row", "lower"),
    ("engine.flush_self_ms", "ms", "lower"),
    ("codec.decode_self_ms", "ms", "lower"),
    ("codec.decode_mb_per_s", "MB/s", "higher"),
    ("codec.encode_self_ms", "ms", "lower"),
    ("codec.encode_mb_per_s", "MB/s", "higher"),
    ("loader.wait_ms", "ms", "lower"),
    ("loader.stall_fraction", "ratio", "lower"),
    ("loader.group_fetch_ms", "ms", "lower"),
    ("loader.collate_self_ms", "ms", "lower"),
    ("tql.parse_ms", "ms", "lower"),
    ("tql.plan_ms", "ms", "lower"),
    ("tql.execute_self_ms", "ms", "lower"),
    ("tql.rows_scanned", "count", "lower"),
    ("tql.chunks_skipped", "count", "higher"),
    ("serve.handle_self_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.prefetch_hit_ratio", "ratio", "higher"),
    ("serve.response_bytes", "bytes", "lower"),
    ("vc.commit_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unparented_spans", "count", "lower"),
    ("ops_failed_ratio", "ratio", "lower"),
]

#: per-layer metrics that are the program's own counts (the report
#: marks which of them repeated exactly)
COUNT_METRICS = (
    "storage.get_requests", "storage.keys_read", "storage.bytes_read",
    "storage.put_requests", "storage.bytes_written",
    "engine.chunks_fetched", "tql.rows_scanned", "tql.chunks_skipped",
    "serve.response_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanTotals:
    """Durations and self times (in seconds times *scale*) and attribute
    sums per span name."""

    def __init__(self, spans, scale: float = 1.0):
        spans = list(spans)
        selfs = self_times(spans)
        self.scale = scale
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.attr: Dict[str, float] = defaultdict(float)
        self._by_id = {sp.span_id: sp for sp in spans}
        self._spans = spans
        for sp in spans:
            self.total[sp.name] += sp.duration * scale
            self.self_s[sp.name] += selfs[sp.span_id] * scale
            for key, value in sp.attrs.items():
                if isinstance(value, (int, float)):
                    self.attr[f"{sp.name}.{key}"] += value

    def ms(self, name: str) -> float:
        return self.total[name] * 1e3

    def self_ms(self, name: str) -> float:
        return self.self_s[name] * 1e3

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Seconds spent in *child_name* spans directly under
        *parent_name* spans."""
        total = 0.0
        for sp in self._spans:
            parent = self._by_id.get(sp.parent_id)
            if sp.name == child_name and parent is not None \
                    and parent.name == parent_name:
                total += sp.duration * self.scale
        return total


def layer_metrics(
    spans,
    counts: Dict[str, float],
    *,
    scale: float = 1.0,
    op_tail_ms: float,
    unparented: int,
    overhead_ratio: float,
    ops_failed_ratio: float,
    stored_bytes: float = 0.0,
    loader_wait_s: float = 0.0,
    loader_total_s: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric from one traced phase; *scale* converts
    its measured times to reference speed (see ``speed.py``)."""
    t = SpanTotals(spans, scale)
    loader_wait_s *= scale
    c = defaultdict(float, counts)
    storage_names = ("storage.get", "storage.get_many", "storage.put",
                     "storage.set_many")
    plan_rows = t.attr["engine.plan_reads.rows"]
    append_rows = t.attr["engine.stage.rows"]
    decode_s = t.self_s["codec.decode"]
    encode_s = t.self_s["codec.encode"]
    client_s = t.total["serve.client"]
    m = {
        "storage.get_requests": c["storage.get_requests"],
        "storage.keys_read": c["storage.keys_read"],
        "storage.bytes_read": c["storage.bytes_read"],
        "storage.self_ms": sum(t.self_ms(n) for n in storage_names),
        "storage.virtual_s": c["storage.virtual_s"],
        "storage.put_requests": c["storage.put_requests"],
        "storage.bytes_written": c["storage.bytes_written"],
        "storage.write_amplification": _ratio(c["storage.bytes_written"],
                                              stored_bytes),
        "cache.client_hit_ratio": _ratio(
            c["cache.client_hits"],
            c["cache.client_hits"] + c["cache.client_misses"]),
        "cache.client_evictions": c["cache.client_evictions"],
        "cache.server_hit_ratio": _ratio(
            c["cache.server_hits"],
            c["cache.server_hits"] + c["cache.server_misses"]),
        "cache.server_evictions": c["cache.server_evictions"],
        "engine.plan_self_ms": t.self_ms("engine.plan_reads"),
        "engine.plan_ns_per_row": _ratio(t.total["engine.plan_reads"] * 1e9,
                                         plan_rows),
        "engine.execute_self_ms": t.self_ms("engine.execute"),
        "engine.chunks_fetched": c["engine.chunks_fetched"],
        "engine.decoded_cache_hit_ratio": _ratio(
            c["engine.decoded_hits"],
            c["engine.decoded_hits"] + c["engine.decoded_misses"]),
        "engine.stage_self_ms": t.self_ms("engine.stage"),
        "engine.commit_self_ms": t.self_ms("engine.commit"),
        "engine.append_us_per_row": _ratio(
            (t.total["engine.stage"] + t.total["engine.commit"]) * 1e6,
            append_rows),
        "engine.flush_self_ms": t.self_ms("engine.flush"),
        "codec.decode_self_ms": decode_s * 1e3,
        "codec.decode_mb_per_s": _ratio(t.attr["codec.decode.nbytes"] / MB,
                                        decode_s),
        "codec.encode_self_ms": encode_s * 1e3,
        "codec.encode_mb_per_s": _ratio(t.attr["codec.encode.nbytes"] / MB,
                                        encode_s),
        "loader.wait_ms": loader_wait_s * 1e3,
        "loader.stall_fraction": _ratio(loader_wait_s,
                                        loader_total_s * scale),
        "loader.group_fetch_ms": t.ms("dataset.read_rows"),
        "loader.collate_self_ms": t.self_ms("loader.collate"),
        "tql.parse_ms": t.ms("tql.parse"),
        "tql.plan_ms": t.ms("tql.plan"),
        "tql.execute_self_ms": t.self_ms("tql.execute"),
        "tql.rows_scanned": c["tql.rows_scanned"],
        "tql.chunks_skipped": c["tql.chunks_skipped"],
        "serve.handle_self_ms": t.self_ms("serve.handle"),
        "serve.queue_wait_ms": max(
            0.0, client_s - t.child_time("serve.client", "serve.handle")
        ) * 1e3,
        "serve.prefetch_hit_ratio": _ratio(c["serve.prefetch_hits"],
                                           c["serve.prefetch_issued"]),
        "serve.response_bytes": c["serve.response_bytes"],
        "vc.commit_ms": t.ms("vc.commit"),
        "op_tail_ms": op_tail_ms,
        "trace.overhead_ratio": overhead_ratio,
        "trace.unparented_spans": float(unparented),
        "ops_failed_ratio": ops_failed_ratio,
    }
    return m


def collate_hook(recorder: Optional[Recorder], collate: Callable) -> Callable:
    """The loader's ``collate=`` hook, spanned when tracing."""
    if recorder is None:
        return collate
    return wrap_callable(recorder, collate, "loader.collate")
