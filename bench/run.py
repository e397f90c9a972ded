#!/usr/bin/env python3
"""decoyqkd benchmark: run one workload and print its metrics as one JSON line.

Run from the repository root (the package is used from ``src``, uninstalled):

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, with times
scaled to nominal machine speed by the interleaved calibration of speed.py.
``--trace 1`` alternates the workload's fixed traced unit without and with
span tracing for ``--seconds``, then reports per-layer metrics.  Every
output is checked in the same run.  The process and its children run on
one CPU.  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it holds provenance.  Details and the spans
of a traced run are written to ``bench/out/``.  See ``bench/README.md`` for
the workloads and metrics.
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
import time
from pathlib import Path

from spans import SPAN_NAMES, Tracer, import_breakdown, solver_evals
from speed import SpeedMeter
from workloads import SRC, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 7
# Speed-calibration chunks before and after each set-up probe.
SETUP_TICK_CHUNKS = 25
IMPORT_RUNS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args):
    """Import decoyqkd, make the inputs from the seed and warm up."""
    import decoyqkd  # noqa: F401  (the package import is part of set-up)

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.warm_up()
    return workload


def probe_setup(args) -> float:
    """Seconds from launching a fresh set-up process until it is ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def provenance(args, nproc: int) -> dict:
    import numpy

    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "pinned_cpu": max(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_for(unit, seconds: float) -> list:
    """Repeat ``unit`` until ``seconds`` have passed; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(unit())
        if time.perf_counter() - start >= seconds:
            return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(args, workload) -> tuple[list, dict, dict]:
    """Times are scaled to nominal machine speed, pass by pass; see speed.py."""
    workload.load_checks()
    raw_probes, probes = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        meter = SpeedMeter()
        meter.tick(SETUP_TICK_CHUNKS)
        raw_probes.append(probe_setup(args))
        meter.tick(SETUP_TICK_CHUNKS)
        probes.append(raw_probes[-1] / meter.slowness())

    def measured_pass():
        meter = SpeedMeter()
        result = workload.run_pass(meter.tick)
        result.slowness = meter.slowness()
        return result

    passes = run_for(measured_pass, args.seconds)
    peak_mb = peak_rss_mb(workload.has_children)
    raw = [lat for p in passes for lat in p.latencies_s]
    scaled = [lat / p.slowness for p in passes for lat in p.latencies_s]
    ops = sum(p.ops for p in passes)
    p50, p75 = quartiles(scaled)
    raw_p50, raw_p75 = quartiles(raw)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_per_s": (ops / sum(scaled), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p75_ms": (p75 * 1e3, "ms"),
    }
    details = {
        "raw_setup_s": statistics.median(raw_probes),
        "raw_ops_per_s": ops / sum(raw),
        "raw_op_p50_ms": raw_p50 * 1e3,
        "raw_op_p75_ms": raw_p75 * 1e3,
        "slowness_median": statistics.median(p.slowness for p in passes),
        "passes": len(passes),
        "latency_samples": len(raw),
    }
    return passes, metrics, details


def timed(unit) -> tuple:
    start = time.perf_counter()
    result = unit()
    return result, time.perf_counter() - start


def per_layer(args, workload) -> tuple[list, dict, dict]:
    from decoyqkd import bounds, finite_stats

    workload.load_checks()
    # Untraced and traced units alternate, so drift in machine speed hits
    # both sides of the overhead estimate alike.  Counts come from the first
    # traced unit only, so they repeat exactly for a seed.
    untraced, traced_units, tracer = [], [], None
    start = time.perf_counter()
    while tracer is None or time.perf_counter() - start < args.seconds:
        untraced.append(timed(workload.trace_unit))
        current = Tracer(capture_every=0 if tracer else workload.capture_every)
        current.install()
        try:
            traced_units.append(timed(workload.trace_unit))
        finally:
            current.uninstall()
        tracer = tracer or current
    traced, traced_wall = traced_units[0]
    evals = solver_evals(finite_stats.finite_bound, tracer.captured, bounds.DEFAULT_MAX_ITER)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = import_breakdown(sys.executable, env, ROOT, 1 if args.smoke else IMPORT_RUNS)

    metrics = {}
    stats = tracer.layer_stats()
    for name in SPAN_NAMES:
        calls, self_s = stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    finite = "finite_stats.finite_bound"
    finite_spans = tracer.durations_of(finite)
    metrics[f"{finite}.p50_us"] = (
        statistics.median(finite_spans) * 1e6 if finite_spans else 0.0, "us"
    )
    metrics[f"{finite}.evals_sum"] = (sum(evals), "count")
    metrics[f"{finite}.evals_max"] = (max(evals, default=0), "count")
    for outcome in ("vacuous", "convergence_errors", "typed_errors"):
        metrics[f"{finite}.{outcome}"] = (tracer.finite_outcomes[outcome], "count")
    metrics["scan.sampled_below_truth"] = (traced.sampled_below_truth, "count")
    metrics["cli.stderr_lines"] = (traced.stderr_lines, "count")
    metrics["cli.output_bytes"] = (traced.output_bytes, "bytes")
    for key, value in imports.items():
        metrics[f"import.{key}"] = (value, "ms")
    baseline = statistics.median(wall for _, wall in untraced)
    traced_s = statistics.median(wall for _, wall in traced_units)
    metrics["trace.overhead_frac"] = (traced_s / baseline - 1.0, "ratio")
    metrics["trace.covered_frac"] = (tracer.top_level_seconds() / traced_wall, "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    details = {
        "unit_pairs": len(untraced),
        "untraced_unit_s": baseline,
        "traced_unit_s": traced_s,
        "evals_inputs": len(evals),
        "spans": len(tracer.starts),
    }
    return [unit for unit, _ in untraced + traced_units], metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "decoyqkd" / "__init__.py").is_file():
        print(f"error: decoyqkd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # One core for this process and its children, so the speed calibration
    # and the ops it scales run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = set_up(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    passes, metrics, details = measure(args, workload)
    notes = [note for p in passes for note in p.notes]
    result = {
        "correct": not any(p.wrong for p in passes),
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = provenance(args, nproc)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": info, "details": details, "notes": notes[:50], **result},
                  fh, indent=2)
    for note in notes[:10]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"provenance": info, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
