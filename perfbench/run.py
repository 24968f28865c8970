"""quorder benchmark: CLI operations in-process, timed at a fixed host speed.

    python3 perfbench/run.py --workload {enumerate,check,census} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. One process, one client in a closed loop:
each operation calls `quorder.cli.main(argv)` only after the previous one
returned, and its report is checked. Timings are scaled by the reference
kernel (see refkernel.py). With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it runs untraced for half the
time and traced for the other half, and reports the per-layer metrics.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure
import refkernel
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

# Setup (import plus warm-up) is repeated and its median reported.
SETUP_REPEATS = 7
# Kernel samples taken just before and just after each setup.
SETUP_KERNEL_SAMPLES = 3
# Runs of the kernel before anything is measured, so its own code is warm.
KERNEL_WARMUP = 10
# Every run has enough operations for p90 to have MIN_BEYOND samples beyond it.
MIN_OPS = measure.min_samples(90)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, op: workloads.Op, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.key}: {failure}")


def load_package():
    """Import quorder.cli afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "quorder" or m.startswith("quorder.")]:
        del sys.modules[name]
    importlib.import_module("quorder.cli")
    package = sys.modules["quorder"]
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"quorder was imported from {package.__file__}, not from {SRC}")
    return package


def setup_once(workload: workloads.Workload, tally: Tally):
    """Import the package and run the warm-up; return (scaled seconds, package)."""
    kernel = [refkernel.sample_ms() for _ in range(SETUP_KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    package = load_package()
    for op in workload.warmup:
        _, failure = measure.run_op(package.cli.main, op)
        tally.add(op, failure)
    raw = time.perf_counter() - t0
    kernel += [refkernel.sample_ms() for _ in range(SETUP_KERNEL_SAMPLES)]
    return refkernel.scale(raw, statistics.median(kernel)), package


def run_rounds(workload, schedule, seconds: float, main_for, tally: Tally) -> measure.Meter:
    """Run whole rounds until `seconds` have passed and MIN_OPS are done."""
    meter = measure.Meter()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(meter.raw_s) < MIN_OPS:
        for op in workload.make_round(schedule):
            meter.before_op()
            elapsed, failure = measure.run_op(main_for(len(meter.raw_s)), op)
            meter.record(elapsed)
            tally.add(op, failure)
    return meter


def throughput(times_s: list[float]) -> float:
    return len(times_s) / sum(times_s)


def end_to_end(meter: measure.Meter, setups: list[float]) -> tuple[dict, dict]:
    scaled = meter.scaled_s()
    metrics = {
        "ops_per_s": (throughput(scaled), "1/s"),
        "latency_p50_ms": (measure.percentile(scaled, 50) * 1e3, "ms"),
        "latency_p90_ms": (measure.percentile(scaled, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    samples = {
        "ops_per_s": len(scaled),
        "latency_p50_ms": len(scaled),
        "latency_p90_ms": len(scaled),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def per_layer(untraced: measure.Meter, traced: measure.Meter, tracer: tracing.Tracer) -> tuple[dict, dict]:
    n = len(traced.raw_s)
    layer_ms = tracer.layer_ms(traced.factors())
    metrics = {f"{name}_ms": (layer_ms.get(name, 0.0) / n, "ms/op") for name in tracing.LAYER_TIMES}
    metrics.update({name: (tracer.counts[name] / n, "count/op") for name in tracing.COUNTS})
    for name, (part, whole) in tracing.RATIOS.items():
        base = tracer.counts[whole]
        metrics[name] = (tracer.counts[part] / base if base else 0.0, "ratio")
    metrics["host.ref_kernel_ms"] = (statistics.median(untraced.kernel_ms), "ms")
    metrics["host.raw_ops_per_s"] = (throughput(list(untraced.raw_s)), "1/s")
    overhead = throughput(untraced.scaled_s()) / throughput(traced.scaled_s()) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    samples = {name: n for name in metrics}
    samples["host.ref_kernel_ms"] = len(untraced.kernel_ms)
    samples["host.raw_ops_per_s"] = len(untraced.raw_s)
    samples["trace.overhead_pct"] = len(untraced.raw_s) + n
    # Not a metric: the part of each operation no layer claims.
    unclaimed = layer_ms.get(tracing.OP_SPAN, 0.0) / n
    print(f"  (cli.main self time, claimed by no layer: {unclaimed:.4f} ms/op)")
    return metrics, samples


def declared(mode: str) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if mode == "trace" else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "check", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: Path) -> dict:
    mode = "trace" if args.trace else "plain"
    expected = declared(mode)
    for _ in range(KERNEL_WARMUP):
        refkernel.sample_ms()

    t0 = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, workdir)
    inputgen_s = time.perf_counter() - t0
    schedule = random.Random(f"{args.workload}:{args.seed}:schedule")

    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, package = setup_once(workload, tally)
        setups.append(seconds)
    gc.collect()

    if args.trace:
        untraced = run_rounds(workload, schedule, args.seconds / 2, lambda i: package.cli.main, tally)
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            traced = run_rounds(workload, schedule, args.seconds / 2, tracer.main_for, tally)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print(f"  not traced (not found in quorder): {', '.join(tracer.missing)}")
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        spans = WORK / "traces" / f"{args.workload}.tsv"
        tracer.write(spans)
        metrics, samples = per_layer(untraced, traced, tracer)
        print(f"  spans: {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    else:
        meter = run_rounds(workload, schedule, args.seconds, lambda i: package.cli.main, tally)
        metrics, samples = end_to_end(meter, setups)
        print(f"  kernel: {len(meter.kernel_ms)} samples, raw median {statistics.median(meter.kernel_ms):.4f} ms")

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        raise RuntimeError(f"metrics {got} do not match BENCHMARK.json {expected}")
    print(f"{args.workload} seed={args.seed} mode={mode}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit:9s} n={samples[name]}")
    print(f"  {'bench.inputgen_s':34s} {inputgen_s:14.6f} {'s':9s} (diagnostic)")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "quorder" / "__init__.py").is_file():
        print(f"error: no quorder package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    except ImportError as exc:
        print(f"error: cannot import quorder: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
