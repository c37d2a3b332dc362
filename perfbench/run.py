#!/usr/bin/env python3
"""Benchmark of the ``repro`` TBON: one workload per process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload up_sum --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
same untraced pass, then a second pass with span wrappers installed, and
reports the per-layer metrics (see ``tbonbench/layers.py``) plus the
shutdown stall after one unrecovered kill.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record of the run, and the spans of
a traced run, go to ``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout this file sits in,
and from nowhere else.  The command exits 2 without a result when that
source is missing or when an environment variable that changes the
measured program is set, and 1 when any op returned a wrong result or a
communication process recorded an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("up_sum", "down_bulk", "churn", "meanshift")
#: Each switches the program onto another code path or turns on
#: instrumentation, so a run under one measures a different program.
GUARDED_ENV = ("TBON_TELEMETRY", "TBON_LOCKCHECK", "TBON_TRANSPORT")
#: The traced pass runs this share of ``--seconds`` with fewer set-ups:
#: its spans are kept in memory.
TRACED_SHARE = 0.5
TRACED_SETUP_REPS = 2
E2E_UNITS = {
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "cpu_us_per_op": "us",
    "setup_s": "s",
    "teardown_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and check ``repro`` comes from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program source at {os.path.relpath(SRC)}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError(f"repro imported from {repro.__file__}, not from {SRC}")


def end_to_end(out, stats, workloads) -> dict[str, float]:
    chunk = workloads.MIN_LATENCY_SAMPLES
    p50 = stats.chunked_percentile(out.lat_ms, 50, chunk)
    p90 = stats.chunked_percentile(out.lat_ms, 90, chunk)
    if p90 is None or not out.rates or not out.setup_s or not out.teardown_s:
        raise ValueError("the run produced too few samples for the end-to-end metrics")
    return {
        "ops_per_s": statistics.median(out.rates),
        "lat_p50_ms": p50,
        "lat_p90_ms": p90,
        "cpu_us_per_op": statistics.median(out.cpu_per_op) * 1e6,
        "setup_s": statistics.median(out.setup_s),
        "teardown_s": statistics.median(out.teardown_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_pass(args, run):
    """Run the workload again under span wrappers; returns (outcome, spans, delta)."""
    from repro import telemetry
    from tbonbench import layers, spans

    rec = spans.SpanRecorder()
    start: list[dict] = []
    deltas: list[dict] = []

    def probe(point: str) -> None:
        snap = telemetry.GLOBAL.snapshot()
        if point == "start":
            start[:] = [snap]
        else:
            deltas.append(telemetry.snapshot_delta(start[0], snap))

    telemetry.enable()
    try:
        with spans.Instrumentation(rec, layers.targets()):
            out = run(args.seconds * TRACED_SHARE, TRACED_SETUP_REPS, probe)
    finally:
        telemetry.disable()
    spans.assert_pristine(layers.targets(), layers.ORIGINALS)
    return out, rec, telemetry.merge_snapshots(deltas)


def run_one(args) -> int:
    from tbonbench import layers, spans, stats, workloads

    host_before = stats.host_ref_loop_ms()
    run = workloads.prepare(args.workload, args.seed)
    spans.assert_pristine(layers.targets(), layers.ORIGINALS)
    out = run(args.seconds)
    spans.assert_pristine(layers.targets(), layers.ORIGINALS)
    outcomes = [out]
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "transport": out.transport,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
    }
    problems: list[str] = []
    try:
        e2e = end_to_end(out, stats, workloads)
    except ValueError as exc:
        e2e = {}
        problems.append(str(exc))
    metrics: dict[str, dict] = {}
    if args.trace:
        out_t, rec, delta = traced_pass(args, run)
        outcomes.append(out_t)
        orphan_s = workloads.orphan_teardown_s()
        host_after = stats.host_ref_loop_ms()
        ops_u = statistics.median(out.rates) if out.rates else 0.0
        ops_t = statistics.median(out_t.rates) if out_t.rates else 0.0
        resolved = rec.resolved()
        per_layer, notes = layers.compute(
            resolved,
            out_t.measured,
            out_t.measured_ops,
            delta,
            {
                "reliability.orphan_teardown_s": orphan_s,
                "trace.overhead_pct": (ops_u - ops_t) / ops_u * 100.0 if ops_u else None,
                "host.ref_loop_ms": statistics.median([host_before, host_after]),
                "e2e.lat_p99_ms": stats.percentile(out.lat_ms, 99),
                "e2e.lat_samples": len(out.lat_ms),
            },
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        record["span_file"] = os.path.relpath(span_path, ROOT)
        record["spans"] = rec.write(span_path, resolved)
        record["per_layer"] = per_layer
        record["notes"] = notes
        record["layer_table"] = {
            m.name: {"layer": m.layer, "moves": m.moves} for m in layers.LAYER_METRICS
        }
        units = {m.name: m.unit for m in layers.LAYER_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}
    else:
        host_after = stats.host_ref_loop_ms()
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    record["host_ref_loop_ms"] = {"before": host_before, "after": host_after}
    record["end_to_end"] = e2e
    record["untraced_latency_samples"] = len(out.lat_ms)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = sum(o.wrong for o in outcomes)
    node_errors = [e for o in outcomes for e in o.node_errors]
    record["errors"] = problems + [e for o in outcomes for e in o.errors] + node_errors
    correct = wrong == 0 and not node_errors and bool(e2e)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    _print_summary(args, record, metrics)
    print(json.dumps(result))
    return 0 if correct else 1


def _print_summary(args, record: dict, metrics: dict) -> None:
    env = record["env"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f"  transport={env['transport']} python={env['python']} nproc={env['nproc']}"
    )
    host = record["host_ref_loop_ms"]
    print(f"  host.ref_loop_ms before={host['before']:.2f} after={host['after']:.2f}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}")
    res = record["result"]
    print(f"  attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for err in record["errors"]:
        print(f"  error: {err}")
    for name, note in record.get("notes", {}).items():
        print(f"  note: {name}: {note}")


def run_all(args) -> int:
    """Every workload, each in its own process so peak_rss_mb is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    refused = [v for v in GUARDED_ENV if v in os.environ]
    try:
        if refused:
            raise SetupError(
                f"{', '.join(refused)} set: each changes the measured program; unset to benchmark"
            )
        _import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
