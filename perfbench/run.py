#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_loader --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics for ``--seconds`` with no
instrumentation installed.  ``--trace 1`` runs a fixed number of
operations twice, untraced and then traced, and reports the per-layer
metrics of the traced half plus the tracing overhead.  Every metric is
printed as ``name = value unit``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full report (and, when tracing, every span) is written
under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: set-ups per end-to-end run; setup_s is their median
SETUPS = 3

#: (name, unit) of the end-to-end metrics, as BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def normalized_ms(mon, intervals):
    """Latencies of *intervals* in ms at reference speed."""
    return [(t1 - t0) * 1e3 * mon.factor(t0, t1) for t0, t1 in intervals]


def end_to_end(wl, inputs, seconds: float):
    """Set up :data:`SETUPS` times, then measure for *seconds*; times are
    normalized to reference speed (see ``speed.py``)."""
    from perfbench.harness import Budget
    from perfbench.speed import SpeedMonitor
    from perfbench.stats import median, percentile

    setups = []
    with SpeedMonitor() as mon:
        for tag in range(SETUPS):
            t0 = time.perf_counter()
            state = wl.setup(inputs, tag)
            setups.append((t0, time.perf_counter()))
        out = wl.run(state, inputs, Budget(seconds=seconds))
    if not out.latencies or not out.rates:
        raise RuntimeError(f"{wl.NAME}: no operation completed")
    setup_s = [(t1 - t0) * mon.factor(t0, t1) for t0, t1 in setups]
    lat_ms = normalized_ms(mon, out.latencies)
    rates = [items / (sec * mon.factor(t0, t1))
             for items, sec, t0, t1 in out.rates]
    raw_ms = [(t1 - t0) * 1e3 for t0, t1 in out.latencies]
    metrics = {
        "setup_s": median(setup_s),
        "throughput_per_s": median(rates),
        "op_p50_ms": median(lat_ms),
    }
    report = {
        "ops": out.ops,
        "latency_samples": len(lat_ms),
        "reference_cpu_s_median": mon.median_cost(),
        "setup_s": setup_s,
        "throughput_per_s": rates,
        # the tail is a per-layer metric (too unsteady to bound); this
        # run's value is kept for reference
        "op_tail_ms": percentile(lat_ms, wl.TAIL_PCT),
        "raw": {
            "setup_s": [t1 - t0 for t0, t1 in setups],
            "throughput_per_s": [items / sec for items, sec, _a, _b
                                 in out.rates],
            "op_p50_ms": median(raw_ms),
            "op_tail_ms": percentile(raw_ms, wl.TAIL_PCT),
        },
    }
    return out, metrics, report


def traced(wl, inputs):
    """The same ``wl.TRACE_OPS`` operations untraced, then traced."""
    from perfbench.harness import Budget, Probe
    from perfbench.layers import (
        COUNT_METRICS,
        exact_counts,
        instrument,
        layer_metrics,
    )
    from perfbench.speed import SpeedMonitor
    from perfbench.spans import Recorder
    from perfbench.stats import percentile, samples_beyond

    with SpeedMonitor() as mon:
        state = wl.setup(inputs, 0)
        plain_probe = Probe()
        p0 = time.perf_counter()
        plain = wl.run(state, inputs, Budget(max_ops=wl.TRACE_OPS),
                       probe=plain_probe)
        p1 = time.perf_counter()
        recorder = Recorder()
        patches = instrument(recorder)
        try:
            probe = Probe()
            t0 = time.perf_counter()
            out = wl.run(state, inputs, Budget(max_ops=wl.TRACE_OPS),
                         recorder=recorder, probe=probe)
            t1 = time.perf_counter()
        finally:
            patches.undo()
    out.merge(plain)
    f_plain, f_traced = mon.factor(p0, p1), mon.factor(t0, t1)
    plain_busy = plain.busy_s * f_plain
    counts = probe.total()
    exact = exact_counts(plain_probe.deltas, probe.deltas)
    tail_samples = normalized_ms(mon, plain.latencies)
    metrics = layer_metrics(
        recorder.spans, counts,
        scale=f_traced,
        op_tail_ms=percentile(tail_samples, wl.TAIL_PCT),
        unparented=recorder.unparented,
        overhead_ratio=out.busy_s * f_traced / plain_busy
        if plain_busy else 0.0,
        ops_failed_ratio=out.failed / out.attempted if out.attempted else 1.0,
        stored_bytes=out.stored_bytes,
        loader_wait_s=out.loader_wait_s,
        loader_total_s=out.loader_total_s,
    )
    report = {
        "ops_per_half": wl.TRACE_OPS,
        "tail_percentile": wl.TAIL_PCT,
        "tail_samples": len(tail_samples),
        "samples_beyond_tail": samples_beyond(len(tail_samples),
                                              wl.TAIL_PCT),
        "reference_cpu_s_median": mon.median_cost(),
        "speed_factor_traced_half": f_traced,
        "spans": len(recorder.spans),
        "spans_adopted_by_operation": recorder.adopted,
        "spans_unparented": recorder.unparented,
        "program_counts": counts,
        "counts_repeat_exactly": {
            name: exact.get(name, True) for name in COUNT_METRICS},
        "per_operation_counts_untraced": plain_probe.deltas,
        "per_operation_counts_traced": probe.deltas,
    }
    return out, metrics, report, recorder.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: the program's source (src/repro) is missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[0:1] = [ROOT, src]

    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = wl.generate(args.seed)
    spans = None
    if args.trace:
        out, metrics, report, spans = traced(wl, inputs)
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        out, metrics, report = end_to_end(wl, inputs, args.seconds)
        units = dict(END_TO_END)
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")

    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"{wl.NAME}.trace{args.trace}")
    with open(base + ".json", "w") as f:
        json.dump({
            "workload": wl.NAME, "why": wl.WHY, "stresses": wl.STRESSES,
            "bypasses": wl.BYPASSES, "seed": args.seed,
            "seconds": args.seconds, "metrics": metrics,
            "attempted": out.attempted, "failed": out.failed,
            "errors": out.errors, "known_defects_seen": out.notes,
            **report,
        }, f, indent=1)
    if spans is not None:
        with open(base + ".spans.json", "w") as f:
            json.dump([sp.to_dict() for sp in spans], f)

    for key in ("latency_samples", "tail_percentile", "samples_beyond_tail",
                "spans", "spans_unparented", "counts_repeat_exactly"):
        if key in report:
            print(f"# {key}: {report[key]}")
    for err in out.errors:
        print(f"# failed: {err}")
    for kind, n in out.notes.items():
        print(f"# known defect tolerated: {kind} x{n}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
