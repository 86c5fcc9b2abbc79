"""Batch experiment driver.

Subcommands:
  run           construct -> verify -> count pipeline from a JSON spec
  table         the expected-exponent table, annotated implemented/metadata
  zarankiewicz  grid point-line ratio sweep
  sumproduct    sum-set / product-set incidence identities

Same spec and seed give byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import conjcells, induction, omin1d, padic
from .decomp import Decomposition, shatter_estimate, verify
from .descriptors import ExperimentSpec, SpecError, load_experiment
from .report import (
    RESULT_COLUMNS,
    SUMPRODUCT_COLUMNS,
    ZARANKIEWICZ_COLUMNS,
    build_id,
    write_csv,
    write_json,
)
from .rng import SplitMix64


def _build_decomposition(spec: ExperimentSpec) -> Decomposition:
    if spec.engine == "omin1d":
        return omin1d.build_decomposition(spec.family)
    if spec.engine == "conj-cells":
        return conjcells.build_decomposition(spec.family)
    if spec.engine == "dim-induction":
        return induction.induct(spec.family)
    if spec.engine == "padic":
        if spec.family.kind == "valuation-macintyre":
            return padic.macintyre_dcd(spec.family)
        return padic.laff_dcd_1d(spec.family)
    raise SpecError("/engine", f"unknown engine {spec.engine!r}")


def _make_generator(spec: ExperimentSpec):
    # the loader fills in the sampler's defaults
    kind, height, den = (spec.generator[k] for k in ("kind", "height", "den"))
    dim = spec.family.param_dim

    if kind == "integers":
        def sample(rng: SplitMix64):
            return tuple(Fraction(rng.randint(-height, height)) for _ in range(dim))
    elif kind == "rationals":
        def sample(rng: SplitMix64):
            return tuple(
                Fraction(rng.randint(-height, height), rng.randint(1, den))
                for _ in range(dim)
            )
    else:  # "padic-rationals"; load_experiment rejects other kinds
        p = spec.family.meta.get("p", 3)
        def sample(rng: SplitMix64):
            dens = [1, 1, 1, 2, den] + [p]
            return tuple(
                Fraction(rng.randint(-height, height), rng.choice(dens))
                for _ in range(dim)
            )

    def generate(rng: SplitMix64, n: int) -> list:
        out = []
        seen = set()
        while len(out) < n:
            v = sample(rng)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    return generate


def _verification_probes(spec: ExperimentSpec, B: list):
    if spec.engine == "dim-induction":
        return induction.plane_probes(spec.family, B, steps=24)
    return None  # verify builds exact probes in one dimension


DIM_INDUCTION_VERIFY_CAP = 12


def run_experiment(spec: ExperimentSpec, out_dir: str) -> int:
    decomp = _build_decomposition(spec)
    generator = _make_generator(spec)
    table = shatter_estimate(decomp, generator, spec.sizes, spec.trials, seed=spec.seed)
    build = build_id()
    rows = []
    failures: list[str] = []
    master = SplitMix64(spec.seed)
    verified = 0
    reports = []
    for n in spec.sizes[: max(1, spec.verify_instances)]:
        rng = master.split(10_000 + n)
        # dimension induction is verified on at most 12 parameters, and the
        # report says so when it caps a size
        size = min(n, DIM_INDUCTION_VERIFY_CAP) if spec.engine == "dim-induction" else n
        B = generator(rng, size)
        rep = verify(decomp, spec.family, B, probes=_verification_probes(spec, B))
        reports.append({"n": size, **({"capped_from": n} if size != n else {}), **rep.to_dict()})
        rows.append({
            "experiment_id": spec.experiment_id, "structure": spec.structure,
            "engine": spec.engine, "n": size, "trial": "verify",
            "cells_raw": rep.cell_count_raw, "cells_deduped": rep.cell_count_deduped,
            "census_lb": rep.census_lower_bound, "covered": rep.covered,
            "uncrossed": rep.uncrossed, "slope": None,
            "build": build, "seed": spec.seed,
        })
        verified += 1
        if not rep.passed:
            failures.append(f"verification failed at n={size}")
    for r in table.rows:
        rows.append({
            "experiment_id": spec.experiment_id, "structure": spec.structure,
            "engine": spec.engine, "n": r.n, "trial": r.trial,
            "cells_raw": r.cells_raw, "cells_deduped": r.cells_deduped,
            "census_lb": None, "covered": None, "uncrossed": None,
            "slope": None, "build": build, "seed": spec.seed,
        })
    rows.append({
        "experiment_id": spec.experiment_id, "structure": spec.structure,
        "engine": spec.engine, "n": None, "trial": "summary",
        "cells_raw": None, "cells_deduped": None, "census_lb": None,
        "covered": None, "uncrossed": None,
        "slope": table.slope, "build": build, "seed": spec.seed,
    })
    if spec.expected_slope is not None and table.slope > spec.expected_slope:
        failures.append(
            f"fitted slope {table.slope:.4f} exceeds expected {spec.expected_slope}"
        )
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "results.csv"), RESULT_COLUMNS, rows)
    write_json(os.path.join(out_dir, "summary.json"), {
        "experiment_id": spec.experiment_id,
        "structure": spec.structure,
        "engine": spec.engine,
        "sizes": spec.sizes,
        "max_counts": table.max_counts,
        "slope": round(table.slope, 6),
        "degenerate": table.degenerate,
        "expected_slope": spec.expected_slope,
        "verification": reports,
        "failures": failures,
        "build": build,
        "seed": spec.seed,
    })
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"slope={table.slope:.4f} verified={verified} failures={len(failures)}")
    return 1 if failures else 0


EXPONENT_TABLE = [
    ("weakly o-minimal structures", "2|x|-1", "implemented; run verifies |x|=1, and |x|=2 via dimension induction"),
    ("o-minimal expansions of groups", "2|x|-2 (1 if |x|=1)", "metadata only"),
    ("ordered vector spaces over ordered division rings", "|x|", "implemented (conjunction cells, run at |x|=1)"),
    ("Presburger arithmetic", "|x|", "implemented (conjunction cells, |x|=1 over Z)"),
    ("Q_p the valued field", "3|x|-2", "implemented for |x|=1; metadata for |x|>=2"),
    ("Q_p in the linear reduct", "|x|", "implemented for |x|=1"),
]


def cmd_table(args) -> int:
    width = max(len(r[0]) for r in EXPONENT_TABLE)
    print(f"{'structure'.ljust(width)}  exponent             status")
    for name, expo, status in EXPONENT_TABLE:
        print(f"{name.ljust(width)}  {expo.ljust(19)}  {status}")
    return 0


def cmd_zarankiewicz(args) -> int:
    from .incidence import BoundProfile, zarankiewicz_sweep

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        sizes = []
    # `bounded` compares the last two ratio steps, so it needs three sizes
    if len(sizes) < 3 or any(n <= 0 or n % 16 for n in sizes) or sizes != sorted(set(sizes)):
        print("--sizes must be three or more strictly increasing positive multiples of 16, "
              f"got {args.sizes!r}", file=sys.stderr)
        return 2
    profile = BoundProfile(2, 2, Fraction(2))
    rows, bounded = zarankiewicz_sweep(sizes, profile)
    build = build_id()
    out_rows = [
        {
            "experiment": "elekes-grid", "m": r.m, "n": r.n, "edges": r.edges,
            "q": r.q, "r": r.r, "ratio": r.ratio, "build": build, "seed": args.seed,
        }
        for r in rows
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "zarankiewicz.csv"), ZARANKIEWICZ_COLUMNS, out_rows)
    for r in rows:
        print(f"n={r.n:5d} m={r.m:7d} edges={r.edges:8d} ratio={r.ratio:.4f}")
    print(f"bounded={bounded}")
    return 0 if bounded else 1


def cmd_sumproduct(args) -> int:
    from .incidence import sum_bb_experiment, sum_product_experiment

    # the sum-bb draw takes up to --max-size distinct integers from [-50, 50]
    if not 2 <= args.max_size <= 101:
        print(f"--max-size must be in 2..101, got {args.max_size}", file=sys.stderr)
        return 2
    if args.trials < 0:
        print(f"--trials must be 0 or more, got {args.trials}", file=sys.stderr)
        return 2
    master = SplitMix64(args.seed)
    rows = []
    failures = 0
    build = build_id()
    for t in range(args.trials):
        rng = master.split(t)
        size = rng.randint(2, args.max_size)
        A = []
        seen = set()
        while len(A) < size:
            v = Fraction(rng.randint(-10 * args.max_size, 10 * args.max_size),
                         rng.choice([1, 1, 1, 2, 3]))
            if v not in seen:
                seen.add(v)
                A.append(v)
        rep = sum_product_experiment(A)
        ok = rep.incidences >= rep.lower_bound
        failures += 0 if ok else 1
        rows.append({
            "experiment": "sum-product", "size_a": rep.size, "size_b": None,
            "sumset": rep.sumset, "productset": rep.productset,
            "max_size": rep.max_size, "exponent": rep.exponent,
            "incidences": rep.incidences, "lower_bound": rep.lower_bound,
            "identity_ok": ok, "build": build, "seed": args.seed,
        })
        rng2 = master.split(10_000 + t)
        sb = rng2.randint(2, args.max_size)
        sa = rng2.randint(1, args.max_size)
        A2, B2, seen2 = [], [], set()
        while len(A2) < sa:
            v = Fraction(rng2.randint(-50, 50))
            if ("a", v) not in seen2:
                seen2.add(("a", v))
                A2.append(v)
        while len(B2) < sb:
            v = Fraction(rng2.randint(-50, 50), rng2.choice([1, 1, 2]))
            if ("b", v) not in seen2:
                seen2.add(("b", v))
                B2.append(v)
        rep2 = sum_bb_experiment(A2, B2)
        ok2 = rep2.incidences == rep2.expected
        failures += 0 if ok2 else 1
        rows.append({
            "experiment": "sum-bb", "size_a": rep2.a_size, "size_b": rep2.b_size,
            "sumset": rep2.sum_bb, "productset": None, "max_size": None,
            "exponent": None, "incidences": rep2.incidences,
            "lower_bound": rep2.expected, "identity_ok": ok2,
            "build": build, "seed": args.seed,
        })
    os.makedirs(args.out_dir, exist_ok=True)
    write_csv(os.path.join(args.out_dir, "sumproduct.csv"), SUMPRODUCT_COLUMNS, rows)
    print(f"trials={args.trials} failures={failures}")
    return 0 if failures == 0 else 1


def cmd_run(args) -> int:
    try:
        with open(args.spec) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read spec: {e}", file=sys.stderr)
        return 2
    try:
        spec = load_experiment(payload)
    except SpecError as e:
        print(f"schema error at {e}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec.seed = args.seed
    return run_experiment(spec, args.out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="distalcells")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_run.add_argument("--out-dir", default="out")
    p_run.set_defaults(func=cmd_run)

    p_table = sub.add_parser("table", help="print the expected-exponent table")
    p_table.set_defaults(func=cmd_table)

    p_zar = sub.add_parser("zarankiewicz", help="grid incidence ratio sweep")
    p_zar.add_argument("--sizes", default="64,128,256,512")
    p_zar.add_argument("--seed", type=int, default=0)
    p_zar.add_argument("--out-dir", default="out")
    p_zar.set_defaults(func=cmd_zarankiewicz)

    p_sp = sub.add_parser("sumproduct", help="sum-product incidence identities")
    p_sp.add_argument("--trials", type=int, default=20)
    p_sp.add_argument("--max-size", type=int, default=30)
    p_sp.add_argument("--seed", type=int, default=0)
    p_sp.add_argument("--out-dir", default="out")
    p_sp.set_defaults(func=cmd_sumproduct)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
