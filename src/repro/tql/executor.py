"""Executor of TQL plans: runs the tensor-op graph over dataset rows.

With optimisation on (the default), execution is *columnar*: rows are
walked as int64 arrays in scan windows, every referenced column is read
through one chunk-granular :class:`~repro.core.chunk_engine.ReadPlan`
per window into the scan cache — ``tensor -> Column``: the typed
ndarray column (or per-row values for ragged/text data) plus the
pushdown mask, aligned with the window — and the node graph is
evaluated by the vectorized kernels of :mod:`repro.tql.kernels` over
those columns.  WHERE becomes a boolean mask (pruned rows dropped by
mask, survivors emitted with ``np.flatnonzero``), ORDER BY on dense
scalar keys is a numpy stable argsort, and GROUP BY streams per-group
partial aggregates keyed with ``np.unique``.  The WHERE clause
additionally compiles to per-column value intervals
(:func:`~repro.tql.kernels.column_bounds`) that
:meth:`~repro.core.chunk_engine.ChunkEngine.plan_reads` checks against
the per-chunk statistics sidecar: chunks that cannot satisfy the
predicate are skipped before any storage GET.

``optimize=False`` (the ablation mode) keeps the historical row-at-a-time
evaluation — per-row memoised :meth:`eval_node` with per-cell engine
reads — so benchmarks can quantify the vectorized engine's win.

Results come back as datasets (§4.4: TQL "constructs views of datasets,
which can be visualized or directly streamed"):

- ``SELECT *`` / bare-column selections produce a zero-copy *view* of the
  source (an index over it, with lineage recorded in ``query_string``);
- computed projections and GROUP BY produce a materialised in-memory
  dataset whose lineage records the query and source commit.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.chunk_engine import (
    Column,
    FusedReadPlan,
    read_pipeline_enabled,
)
from repro.exceptions import FormatError, StorageError
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.tql import kernels
from repro.tql.kernels import (  # noqa: F401 - shared scalar kernels
    _arith,
    _compare,
    _group_key,
    _truthy,
)
from repro.tql.planner import (
    ArrayNode,
    BinaryNode,
    ColumnNode,
    ConstNode,
    FuncNode,
    Node,
    Plan,
    RandomNode,
    ShapeNode,
    SubscriptNode,
    UnaryNode,
    _node_columns,
)


#: Rows per scan batch.  read_batch groups each batch by owning chunk, and
#: the engine's decoded-chunk cache bridges chunks straddling a boundary,
#: so the scan issues at most one storage GET per chunk while holding only
#: one batch of decoded cells at a time.
SCAN_BATCH_ROWS = 1024


class Executor:
    def __init__(self, ds, plan: Plan, seed: int = 0,
                 scan_batch_rows: int = SCAN_BATCH_ROWS):
        self.ds = ds
        self.plan = plan
        self.rng = np.random.default_rng(seed)
        self._decoders: Dict[str, tuple] = {}
        self.rows_scanned = 0
        #: cells materialised by the engine (prefetched or read per row);
        #: scan-cache hits are counted separately in :attr:`cache_hits`
        self.cells_fetched = 0
        self.cache_hits = 0
        #: prefetches that degraded to per-row reads (storage/decode errors)
        self.prefetch_fallbacks = 0
        #: chunks proven irrelevant by statistics pushdown (zero GETs)
        self.chunks_skipped = 0
        self.scan_batch_rows = max(1, int(scan_batch_rows))
        #: tensor -> Column of the current scan window (values and
        #: pushdown mask aligned with the window's rows)
        self._scan_cache: Dict[str, Column] = {}
        ds_label = str(getattr(ds, "path", "") or "dataset")
        self._m_rows_scanned = _metrics.counter(
            "tql.rows_scanned", dataset=ds_label
        )
        self._m_scan_windows = _metrics.counter(
            "tql.scan_windows", dataset=ds_label
        )
        self._h_window_rows = _metrics.histogram(
            "tql.scan_window_rows", dataset=ds_label
        )
        self._m_cells_fetched = _metrics.counter(
            "tql.cells_fetched", dataset=ds_label
        )
        self._m_cache_hits = _metrics.counter(
            "tql.cache_hits", dataset=ds_label
        )
        self._m_prefetch_fallbacks = _metrics.counter(
            "tql.prefetch_fallbacks", dataset=ds_label
        )
        self._m_chunks_skipped = _metrics.counter(
            "tql.chunks_skipped", dataset=ds_label
        )
        self._h_kernel = _metrics.histogram(
            "tql.kernel_seconds", dataset=ds_label
        )

    # ------------------------------------------------------------------ #
    # value access
    # ------------------------------------------------------------------ #

    def _decode_cell(self, engine, value):
        if engine.meta.is_text and isinstance(value, np.ndarray):
            return bytes(value.tobytes()).decode("utf-8")
        if engine.meta.is_json and isinstance(value, np.ndarray):
            from repro.util.json_util import json_loads

            return json_loads(bytes(value.tobytes()))
        return value

    def _read_cell(self, tensor: str, row: int):
        engine = self.ds._engine(tensor)
        self.cells_fetched += 1
        self._m_cells_fetched.inc()
        return self._decode_cell(engine, engine.read_sample(row))

    def _column(self, tensor: str, rows: np.ndarray,
                sel: Optional[np.ndarray]):
        """Column of *tensor* over *rows* — the scan window's rows, or the
        window positions *sel* of them — straight from the scan cache;
        per-row reads when the window was not prefetched."""
        cached = self._scan_cache.get(tensor)
        if cached is None:
            return kernels._pack(
                [self._read_cell(tensor, r) for r in rows.tolist()]
            )
        self.cache_hits += len(rows)
        self._m_cache_hits.inc(len(rows))
        if cached.array is not None:
            return cached.array if sel is None else cached.array[sel]
        values = cached.tolist()
        if sel is not None:
            values = [values[i] for i in sel.tolist()]
        engine = self.ds._engine(tensor)
        return kernels._pack([self._decode_cell(engine, v) for v in values])

    def _prefetch_columns(self, tensors: List[str], rows: np.ndarray,
                          bounds: Optional[dict] = None) -> None:
        """One ReadPlan per column for this window of rows: each chunk is
        fetched and decompressed once, then columns come from memory.

        *bounds* (tensor -> interval list) enables statistics pushdown:
        chunks that cannot satisfy the WHERE predicate are skipped with
        zero GETs and their rows flagged in the column's pruned mask.
        Only storage/decode failures degrade to per-row reads (counted
        in ``tql.prefetch_fallbacks``); programming errors propagate.
        """
        with _tracing.span("tql.prefetch_columns", tensors=len(tensors),
                           rows=len(rows)):
            if (
                read_pipeline_enabled()
                and len(tensors) > 1
                and self._prefetch_fused(tensors, rows, bounds)
            ):
                return
            for tensor in tensors:
                engine = self.ds._engine(tensor)
                tensor_bounds = bounds.get(tensor) if bounds else None
                try:
                    plan = engine.plan_reads(rows, bounds=tensor_bounds)
                    column = engine.execute_plan(plan)
                except (StorageError, FormatError):
                    self.prefetch_fallbacks += 1
                    self._m_prefetch_fallbacks.inc()
                    continue
                self._absorb_scan(tensor, plan, column)

    def _prefetch_fused(self, tensors: List[str], rows: np.ndarray,
                        bounds: Optional[dict]) -> bool:
        """Fused scan window: one plan per column merged into ONE storage
        ``get_many`` across all of them (chunk-stats pushdown still
        applies per column).  Returns False on storage/decode failure so
        the caller degrades to the per-column loop, whose per-tensor
        fallback semantics then decide row-level behaviour."""
        fused = FusedReadPlan()
        plans = []
        try:
            for tensor in tensors:
                engine = self.ds._engine(tensor)
                tensor_bounds = bounds.get(tensor) if bounds else None
                plan = engine.plan_reads(rows, bounds=tensor_bounds)
                fused.add(engine, plan)
                plans.append((tensor, plan))
            columns = fused.execute()
        except (StorageError, FormatError):
            return False
        for (tensor, plan), column in zip(plans, columns):
            self._absorb_scan(tensor, plan, column)
        return True

    def _absorb_scan(self, tensor: str, plan, column: Column) -> None:
        if plan.skipped_chunks:
            self.chunks_skipped += len(plan.skipped_chunks)
            self._m_chunks_skipped.inc(len(plan.skipped_chunks))
        fetched = len(column)
        if column.pruned is not None:
            fetched -= int(column.pruned.sum())
        self.cells_fetched += fetched
        self._m_cells_fetched.inc(fetched)
        self._scan_cache[tensor] = column

    def _clear_prefetched(self) -> None:
        self._scan_cache.clear()

    def _scan_batches(self, rows: np.ndarray):
        step = self.scan_batch_rows
        for i in range(0, len(rows), step):
            yield rows[i : i + step]

    # ------------------------------------------------------------------ #
    # graph evaluation (row-at-a-time: the optimize=False ablation path,
    # also the reference semantics the batch kernels must reproduce)
    # ------------------------------------------------------------------ #

    def eval_node(self, node: Node, row: int, memo: Dict[int, object]):
        if node.id in memo:
            return memo[node.id]
        value = self._eval(node, row, memo)
        memo[node.id] = value
        return value

    def _eval(self, node: Node, row: int, memo):
        if isinstance(node, ConstNode):
            return node.value
        if isinstance(node, ColumnNode):
            return self._read_cell(node.tensor, row)
        if isinstance(node, ShapeNode):
            return self._read_cell(node.shape_tensor, row)
        if isinstance(node, ArrayNode):
            return np.asarray(
                [self.eval_node(i, row, memo) for i in node.inputs]
            )
        if isinstance(node, RandomNode):
            return float(self.rng.random())
        if isinstance(node, FuncNode):
            args = [self.eval_node(a, row, memo) for a in node.inputs]
            return node.fn(*args)
        if isinstance(node, UnaryNode):
            val = self.eval_node(node.inputs[0], row, memo)
            if node.op == "NOT":
                return not _truthy(val)
            return -val
        if isinstance(node, BinaryNode):
            return self._eval_binary(node, row, memo)
        if isinstance(node, SubscriptNode):
            base = self.eval_node(node.inputs[0], row, memo)
            parts = []
            for spec in node.specs:
                if spec[0] == "i":
                    parts.append(spec[1])
                else:
                    parts.append(slice(spec[1], spec[2], spec[3]))
            if isinstance(base, str):
                return base[parts[0] if len(parts) == 1 else tuple(parts)]
            return np.asarray(base)[tuple(parts)]
        raise TQLTypeError(f"cannot evaluate node {node.key!r}")

    def _eval_binary(self, node: BinaryNode, row: int, memo):
        op = node.op
        if op == "AND":
            left = self.eval_node(node.inputs[0], row, memo)
            if not _truthy(left):
                return False  # short-circuit skips fetching right columns
            return _truthy(self.eval_node(node.inputs[1], row, memo))
        if op == "OR":
            left = self.eval_node(node.inputs[0], row, memo)
            if _truthy(left):
                return True
            return _truthy(self.eval_node(node.inputs[1], row, memo))
        left = self.eval_node(node.inputs[0], row, memo)
        right = self.eval_node(node.inputs[1], row, memo)
        if op == "CONTAINS":
            if isinstance(left, str):
                return str(right) in left
            return bool(np.isin(right, np.asarray(left)).any())
        if op == "IN":
            return bool(np.isin(left, np.asarray(right)).any())
        if op in ("+", "-", "*", "/", "%"):
            return _arith(op, left, right)
        result = _compare(op, left, right)
        return result

    # ------------------------------------------------------------------ #
    # batched evaluation helpers (the vectorized path)
    # ------------------------------------------------------------------ #

    def _eval_rows(self, node: Node, rows: np.ndarray):
        """Values of *node* for many rows, window-prefetching the columns
        it reads — ORDER BY / SAMPLE BY keys cost one GET per chunk, not
        one per cell.  A dense ndarray column when every window is dense
        and alike, else a per-row list."""
        if not self.plan.optimize:
            return [self.eval_node(node, r, {}) for r in rows.tolist()]
        columns = _node_columns([node])
        parts = []
        for batch in self._scan_batches(rows):
            if columns:
                self._prefetch_columns(columns, batch)
            t0 = time.perf_counter()
            parts.append(kernels.BatchEvaluator(self, batch).column(node))
            self._h_kernel.observe(time.perf_counter() - t0)
            self._clear_prefetched()
        return kernels.concat_columns(parts)

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #

    def source_rows(self) -> np.ndarray:
        engine_lengths = [
            self.ds._engine(name).num_samples
            for name in self.ds._meta.visible_tensors
        ]
        length = min(engine_lengths) if engine_lengths else 0
        rows = self.ds.index.row_sequence(length)
        if isinstance(rows, range):
            return np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    def filter_rows(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        if plan.where_node is None:
            return rows
        if not plan.optimize:
            out = []
            with _tracing.span("tql.filter_rows", rows=len(rows)) as sp:
                for batch in self._scan_batches(rows):
                    self._m_scan_windows.inc()
                    self._h_window_rows.observe(len(batch))
                    for row in batch.tolist():
                        memo: Dict[int, object] = {}
                        self.rows_scanned += 1
                        self._m_rows_scanned.inc()
                        if _truthy(self.eval_node(plan.where_node, row, memo)):
                            out.append(row)
                sp.set(kept=len(out))
            return np.asarray(out, dtype=np.int64)

        columns = plan.filter_columns()
        bounds = kernels.column_bounds(plan.where_node)
        out = []
        with _tracing.span("tql.filter_rows", rows=len(rows)) as sp:
            for batch in self._scan_batches(rows):
                self._m_scan_windows.inc()
                self._h_window_rows.observe(len(batch))
                self.rows_scanned += len(batch)
                self._m_rows_scanned.inc(len(batch))
                if columns:
                    self._prefetch_columns(columns, batch, bounds=bounds)
                # statistics pushdown proved these rows cannot match
                pruned = None
                for tensor in bounds:
                    cached = self._scan_cache.get(tensor)
                    if cached is not None and cached.pruned is not None:
                        pruned = (cached.pruned if pruned is None
                                  else pruned | cached.pruned)
                sel = None if pruned is None else np.flatnonzero(~pruned)
                survivors = batch if sel is None else batch[sel]
                if len(survivors):
                    t0 = time.perf_counter()
                    evaluator = kernels.BatchEvaluator(self, survivors, sel)
                    mask = evaluator.mask(plan.where_node)
                    self._h_kernel.observe(time.perf_counter() - t0)
                    out.append(survivors[np.flatnonzero(mask)])
                self._clear_prefetched()
            kept = np.concatenate(out) if out else rows[:0]
            sp.set(kept=len(kept), pruned_chunks=self.chunks_skipped)
        return kept

    def _sort_order(self, node: Node, rows: np.ndarray,
                    ascending: bool) -> np.ndarray:
        """Stable sort permutation of *rows* by *node*.  Dense scalar keys
        sort as float64 with a numpy stable argsort — exactly the order
        :func:`_stable_argsort` gives their :func:`_sort_token`\\ s,
        descending keeping ties in input order — anything else (arrays,
        strings, NaN keys) goes through :func:`_stable_argsort`."""
        values = self._eval_rows(node, rows)
        if (isinstance(values, np.ndarray) and values.ndim == 1
                and values.dtype.kind in "biuf"):
            keys = values.astype(np.float64)
            if not np.isnan(keys).any():
                return np.argsort(keys if ascending else -keys, kind="stable")
        return np.asarray(_stable_argsort(list(values), ascending),
                          dtype=np.intp)

    def order_rows(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        if not plan.order_nodes and not plan.arrange_nodes:
            return rows
        keyed = rows
        # ORDER BY: stable sorts applied from the last key to the first
        for node, ascending in reversed(plan.order_nodes):
            keyed = keyed[self._sort_order(node, keyed, ascending)]
        # ARRANGE BY: stable grouping of the (already ordered) result
        for node in reversed(plan.arrange_nodes):
            keyed = keyed[self._sort_order(node, keyed, True)]
        return keyed

    def sample_rows(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        if plan.sample_node is None or not len(rows):
            return rows
        weights = np.asarray(
            [
                max(0.0, float(np.mean(v)))
                for v in self._eval_rows(plan.sample_node, rows)
            ],
            dtype=np.float64,
        )
        total = weights.sum()
        k = plan.sample_limit if plan.sample_limit is not None else len(rows)
        if total <= 0:
            probs = None
        else:
            probs = weights / total
        if not plan.sample_replace:
            k = min(k, int((weights > 0).sum()) if probs is not None else len(rows))
        chosen = self.rng.choice(
            len(rows), size=k, replace=plan.sample_replace, p=probs
        )
        return rows[chosen]

    def paginate(self, rows: np.ndarray) -> np.ndarray:
        plan = self.plan
        start = plan.offset
        stop = None if plan.limit is None else start + plan.limit
        return rows[start:stop]

    # ------------------------------------------------------------------ #
    # result construction
    # ------------------------------------------------------------------ #

    def run(self, query_string: str):
        plan = self.plan
        rows = self.source_rows()

        if not plan.optimize:
            # ablation mode: no pushdown — evaluate every projection for
            # every source row before filtering
            for row in rows.tolist():
                memo: Dict[int, object] = {}
                for _name, node in plan.projections:
                    self.eval_node(node, row, memo)
                self.rows_scanned += 1

        rows = self.filter_rows(rows)
        if plan.group_nodes:
            return self._materialize_groups(rows, query_string)
        rows = self.order_rows(rows)
        rows = self.sample_rows(rows)
        rows = self.paginate(rows)

        if plan.select_star and not plan.projections:
            return self._view(rows, query_string, tensor_filter=None)
        if plan.bare_columns_only and not plan.select_star:
            names = [node.tensor for _n, node in plan.projections]
            return self._view(rows, query_string, tensor_filter=names)
        return self._materialize_projections(rows, query_string)

    def _view(self, rows: np.ndarray, query_string: str,
              tensor_filter: Optional[List[str]]):
        from repro.core.index import Index

        view = self.ds._spawn(index=Index([rows.tolist()]))
        view.query_string = query_string
        if tensor_filter is not None:
            view._tensor_filter = list(tensor_filter)
        return view

    def _infer_and_create(self, out, name: str, values: List) -> None:
        """Create output tensor *name* from the first batch of values.

        Numeric dtypes widen over the whole batch via ``np.result_type``
        so a first-row int no longer downcasts the floats that follow;
        text/json are decided by the first value, as before.
        """
        first = values[0]
        if isinstance(first, str):
            out.create_tensor(name, htype="text",
                              create_shape_tensor=False, create_id_tensor=False)
        elif isinstance(first, (dict, list)):
            out.create_tensor(name, htype="json",
                              create_shape_tensor=False, create_id_tensor=False)
        else:
            dtypes = {np.asarray(v).dtype for v in values
                      if not isinstance(v, (str, dict, list))}
            dtype = np.result_type(*dtypes)
            out.create_tensor(
                name,
                dtype=dtype.name,
                create_shape_tensor=False,
                create_id_tensor=False,
            )

    def _materialize_projections(self, rows: np.ndarray, query_string: str):
        import repro as _api

        plan = self.plan
        out = _api.empty(f"mem://tql-{id(self)}", overwrite=True)
        out.query_string = query_string
        created = False
        columns = plan.projection_columns() if plan.optimize else []
        for batch in self._scan_batches(rows):
            self._m_scan_windows.inc()
            self._h_window_rows.observe(len(batch))
            if columns:
                self._prefetch_columns(columns, batch)
            if plan.optimize:
                t0 = time.perf_counter()
                evaluator = kernels.BatchEvaluator(self, batch)
                cols = {
                    name: evaluator.values(node)
                    for name, node in plan.projections
                }
                self._h_kernel.observe(time.perf_counter() - t0)
                batch_rows = [
                    {name: cols[name][i] for name in cols}
                    for i in range(len(batch))
                ]
            else:
                batch_rows = []
                for row in batch.tolist():
                    memo: Dict[int, object] = {}
                    batch_rows.append({
                        name: self.eval_node(node, row, memo)
                        for name, node in plan.projections
                    })
            if not created and batch_rows:
                for name, _node in plan.projections:
                    self._infer_and_create(
                        out, name, [r[name] for r in batch_rows]
                    )
                created = True
            for values in batch_rows:
                out.append(
                    {k: (np.asarray(v) if not isinstance(v, (str, dict, list))
                         else v)
                     for k, v in values.items()}
                )
            self._clear_prefetched()
        if not created:
            for name, _node in plan.projections:
                out.create_tensor(name, dtype="float64",
                                  create_shape_tensor=False,
                                  create_id_tensor=False)
        out._meta.info["source_query"] = query_string
        out._meta.info["source_commit"] = self.ds.commit_id
        out.flush()
        return out

    def _vectorized_groups(self, rows: np.ndarray) -> List[Dict[str, object]]:
        """Streaming GROUP BY: per window, keys and aggregate inputs come
        from one kernel pass over the prefetched columns and reduce to
        per-group partials merged across windows (O(chunks) GETs,
        O(groups) memory)."""
        plan = self.plan
        nodes = list(plan.group_nodes) + [
            node for _n, _a, node in plan.agg_projections if node is not None
        ]
        columns = _node_columns(nodes)
        accumulator = kernels.GroupAccumulator(plan.agg_projections)
        for batch in self._scan_batches(rows):
            self._m_scan_windows.inc()
            self._h_window_rows.observe(len(batch))
            if columns:
                self._prefetch_columns(columns, batch)
            t0 = time.perf_counter()
            evaluator = kernels.BatchEvaluator(self, batch)
            accumulator.add_batch(evaluator, plan.group_nodes)
            self._h_kernel.observe(time.perf_counter() - t0)
            self._clear_prefetched()
        return [values for _key, values in accumulator.finalize()]

    def _materialize_groups(self, rows: np.ndarray, query_string: str):
        import repro as _api

        plan = self.plan
        if plan.optimize:
            group_rows = self._vectorized_groups(rows)
        else:
            from repro.tql.functions import get_agg_function

            groups: Dict[tuple, List[int]] = {}
            for row in rows.tolist():
                memo: Dict[int, object] = {}
                key = tuple(
                    _group_key(self.eval_node(node, row, memo))
                    for node in plan.group_nodes
                )
                groups.setdefault(key, []).append(row)
            group_rows = []
            for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
                members = groups[key]
                values = {}
                for name, agg_name, node in plan.agg_projections:
                    fn = get_agg_function(agg_name)
                    if node is None:  # COUNT()
                        values[name] = fn(members)
                    else:
                        per_row = [self.eval_node(node, r, {}) for r in members]
                        values[name] = fn(per_row)
                group_rows.append(values)

        out = _api.empty(f"mem://tql-{id(self)}", overwrite=True)
        out.query_string = query_string
        created = False
        for values in group_rows:
            if not created:
                for name in values:
                    self._infer_and_create(
                        out, name, [g[name] for g in group_rows]
                    )
                created = True
            out.append(
                {k: (np.asarray(v) if not isinstance(v, (str, dict, list))
                     else v)
                 for k, v in values.items()}
            )
        out._meta.info["source_query"] = query_string
        out._meta.info["source_commit"] = self.ds.commit_id
        out.flush()
        return out


# ---------------------------------------------------------------------------
# small helpers (scalar kernels live in repro.tql.kernels and are
# re-imported above so both execution modes share one set of semantics)
# ---------------------------------------------------------------------------

from repro.exceptions import TQLTypeError  # noqa: E402


def _sort_token(value):
    if isinstance(value, np.ndarray):
        value = float(np.mean(value)) if value.size else 0.0
    if isinstance(value, (bool, np.bool_)):
        return (0, float(value))
    if isinstance(value, (int, float, np.integer, np.floating)):
        return (0, float(value))
    return (1, str(value))


def _stable_argsort(values: List, ascending: bool) -> List[int]:
    tokens = [_sort_token(v) for v in values]
    order = sorted(range(len(tokens)), key=lambda i: tokens[i])
    if not ascending:
        # reverse while keeping stability within equal keys
        out: List[int] = []
        i = 0
        rev: List[List[int]] = []
        while i < len(order):
            j = i
            while j < len(order) and tokens[order[j]] == tokens[order[i]]:
                j += 1
            rev.append(order[i:j])
            i = j
        for block in reversed(rev):
            out.extend(block)
        return out
    return order
