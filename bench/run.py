"""Benchmark for distalcells.

    python3 bench/run.py --workload sweep-1d --seed 1 --seconds 25 --trace 0

Runs one workload (or `all` four, one after another, in one process and one
thread) for at least --seconds, in whole blocks of operations whose inputs
come from --seed alone, and checks every output against the benchmark's own
computation.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
op_p50_ms, op_tail_ms, peak_rss_mb).  With --trace 1 every block runs twice,
untraced and then traced, and the metrics are the per-layer ones plus the
tracing overhead.  The line before it is a {"reference": ...} object with
the sample counts and the drift calibration, which are not metrics.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckError
from measure import at_reference_speed, beyond, calibrate, kernel_metrics, percentile, speed_slice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep-1d", "verify-1d", "plane-induction", "incidence")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def missing_sources() -> list[str]:
    need = [ROOT / "src" / "distalcells" / "__init__.py", ROOT / "docs" / "examples"]
    return [str(p.relative_to(ROOT)) for p in need if not p.exists()]


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from the start of a fresh process to the point where it could
    run its first op, raw and at reference speed, once per sample; the
    processes run one at a time, with a speed slice before each and after
    the last."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    before = speed_slice()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                seconds = time.perf_counter() - t0
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process for {name} failed with code {proc.returncode}")
        after = speed_slice()
        raw.append(seconds)
        scaled.append(at_reference_speed(seconds, before, after))
        before = after
    return raw, scaled


def run_block(wl, ctx, inputs: list, first: int, tracer=None):
    """Run a block of ops back to back with a speed slice before each op and
    after the last.  Returns the outputs and, for each op that did not raise,
    its raw milliseconds and its milliseconds at reference speed.  An op that
    raises yields its exception as output."""
    outs, raw, scaled = [], [], []
    clock = time.perf_counter
    before = speed_slice()
    for j, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = first + j
        t0 = clock()
        try:
            out = wl.run(ctx, inp)
        except Exception as exc:  # counted in `failed`; the run goes on
            out = exc
        ms = (clock() - t0) * 1e3
        after = speed_slice()
        if not isinstance(out, Exception):
            raw.append(ms)
            scaled.append(at_reference_speed(ms, before, after))
        outs.append(out)
        before = after
    return outs, raw, scaled


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, wl, ctx, inputs: list, outs: list) -> None:
        for inp, out in zip(inputs, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                if self.failed == 1:
                    traceback.print_exception(out, file=sys.stderr)
                continue
            try:
                wl.check(ctx, inp, out)
            except CheckError as exc:
                self.fail(exc)

    def fail(self, exc: Exception) -> None:
        self.correct = False
        print(f"CHECK FAILED: {exc}", file=sys.stderr)


def run_workload(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    ctx = wl.setup(ROOT, seed)
    setup_raw, setup = ([], []) if trace else measure_setup(wl.name, seed)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    cal_before = calibrate()
    tally = Tally()
    op_raw: list[float] = []
    op_ms: list[float] = []  # at reference speed
    walls_raw: list[float] = []
    walls: list[float] = []  # at reference speed
    traced_walls: list[float] = []
    index = 0
    t_run = time.perf_counter()
    while True:
        inputs = [wl.make_input(ctx, index + j) for j in range(wl.block_ops)]
        outs, raw, scaled = run_block(wl, ctx, inputs, index)
        op_raw += raw
        op_ms += scaled
        walls_raw.append(sum(raw) / 1e3)
        walls.append(sum(scaled) / 1e3)
        tally.check(wl, ctx, inputs, outs)
        if tracer is not None:
            tracer.install()
            try:
                outs, _, scaled = run_block(wl, ctx, inputs, index, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(scaled) / 1e3)
            tally.check(wl, ctx, inputs, outs)
        index += wl.block_ops
        if time.perf_counter() - t_run >= seconds:
            break
    try:
        wl.finish(ctx)
    except CheckError as exc:
        tally.fail(exc)
    cal_after = calibrate()

    if tracer is not None:
        from tracer import layer_metrics

        values = layer_metrics(tracer, list(range(wl.block_ops)))
        values.update(kernel_metrics())
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "op_tail_ms": {"value": percentile(op_ms, wl.tail_pct), "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    reference = {
        "workload": wl.name,
        "seed": seed,
        "blocks": len(walls),
        "ops_timed": len(op_ms),
        "tail_pct": wl.tail_pct,
        "ops_beyond_tail": beyond(len(op_ms), wl.tail_pct),
        "calibration_ms": [cal_before, cal_after],
        "raw": {
            "setup_s": statistics.median(setup_raw) if setup_raw else None,
            "wall_s": statistics.median(walls_raw),
            "op_p50_ms": statistics.median(op_raw) if op_raw else None,
            "op_tail_ms": percentile(op_raw, wl.tail_pct) if op_raw else None,
        },
        "run_s": time.perf_counter() - t_run,
    }
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, reference


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ns", "ns"), ("_s", "s"), ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only takes a single workload")
        wl = WORKLOADS[args.workload]
        ctx = wl.setup(ROOT, args.seed)
        for j in range(wl.block_ops):
            wl.make_input(ctx, j)
        print("ready", flush=True)
        return 0

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, reference = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"reference": reference}))
        if len(names) > 1:
            print(json.dumps(result))
        results[name] = result
    if len(names) > 1:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        final = results[names[0]]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
