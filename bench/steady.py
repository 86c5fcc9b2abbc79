"""Steadiness check: run one workload k times in sequence, never two at once,
each time with another seed, and print each metric's median, quartiles and
quartile spread (the distance between the quartiles over the median).

    python3 bench/steady.py --workload verify-1d --runs 10 --first-seed 1 --seconds 25

The spreads decide the bounds in BENCHMARK.json: a bound should be at least
three times the spread measured here.  Every run's result and the summary
are also written to bench/out/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from measure import quartiles

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result, reference) of one run of bench/run.py."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed with code {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["reference"]


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results, references = [], []
    for k in range(args.runs):
        seed = args.first_seed + k
        r, ref = run_once(args.workload, seed, args.seconds, args.trace)
        print(json.dumps({"seed": seed, **r}), flush=True)
        results.append(r)
        references.append(ref)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
          f"failed shares={sorted(shares)}")
    summary = summarize(results)
    out = HERE / "out" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {"args": vars(args), "runs": results, "references": references, "summary": summary}, indent=1
    ))
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for name, s in summary.items():
        print(f"{name:34} {s['unit']:6} {s['median']:12.5g} {s['q1']:12.5g} "
              f"{s['q3']:12.5g} {s['spread']:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
