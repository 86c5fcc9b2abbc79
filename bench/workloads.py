"""The four benchmark workloads.

A workload turns a seed into a stream of operations of one fixed shape.
`setup` does what a run needs once: it loads the example specs, builds the
decompositions that do not depend on the inputs, and makes fixed instances.
`make_input(ctx, index)` builds the inputs of operation `index` from the
seed alone, so the same seed gives the same operations.  `run` is the timed
operation; it reaches the program only through module attributes, so the
tracer's wrappers see every call.  `check` tests one output against the
benchmark's own computation and `finish` checks properties of the whole run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from distalcells import conjcells, decomp, descriptors, incidence, induction, omin1d, padic
from distalcells.families import (
    laff_family,
    macintyre_family,
    semilinear_family,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.linear import AffineMap, f_and, f_atom, f_or
from distalcells.rng import SplitMix64

import checks

EXAMPLES = ("ordered_halfline", "presburger_parity", "padic_macintyre")


def op_rng(seed: int, index: int, part: int = 0) -> SplitMix64:
    return SplitMix64(seed).split(index, part)


def distinct(rng: SplitMix64, n: int, draw) -> list:
    out, seen = [], set()
    while len(out) < n:
        v = draw(rng)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# sweep-1d: shatter_estimate on the three 1-D example specs
# ---------------------------------------------------------------------------


def spec_generator(spec, record: list):
    """The parameter sampler a spec's `generator` block describes; every
    parameter set drawn is appended to `record`."""
    gen = spec.generator
    kind = gen.get("kind", "integers" if spec.structure == "presburger" else "rationals")
    height, den = int(gen.get("height", 60)), int(gen.get("den", 8))
    p = spec.family.meta.get("p", 3)
    if kind == "integers":
        def draw(rng):
            return (Fraction(rng.randint(-height, height)),)
    elif kind == "rationals":
        def draw(rng):
            return (Fraction(rng.randint(-height, height), rng.randint(1, den)),)
    elif kind == "padic-rationals":
        dens = [1, 1, 1, 2, den, p]

        def draw(rng):
            return (Fraction(rng.randint(-height, height), rng.choice(dens)),)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")

    def generate(rng: SplitMix64, n: int) -> list:
        B = distinct(rng, n, draw)
        record.append(B)
        return B

    return generate


def build_engine(spec):
    if spec.engine == "omin1d":
        return omin1d.build_decomposition(spec.family)
    if spec.engine == "conj-cells":
        return conjcells.build_decomposition(spec.family)
    if spec.engine == "padic":
        return padic.macintyre_dcd(spec.family)
    raise ValueError(f"sweep-1d has no engine {spec.engine!r}")


class Sweep1D:
    """One op: one shatter_estimate trial over a short size ladder on each
    of the three 1-D example families."""

    name = "sweep-1d"
    block_ops = 6
    tail_pct = 80  # a 25 s run here holds 54 to 84 ops
    # ladders sized so Presburger and Macintyre each take over a quarter of an op
    ladders = {
        "ordered_halfline": [16, 32, 64, 128],
        "presburger_parity": [4, 8, 12],
        "padic_macintyre": [8, 16, 32],
    }

    def setup(self, root: Path, seed: int) -> dict:
        specs = {}
        for name in EXAMPLES:
            with open(root / "docs" / "examples" / f"{name}.json") as fh:
                specs[name] = descriptors.load_experiment(json.load(fh))
        fam = specs["presburger_parity"].family
        return {
            "seed": seed,
            "specs": specs,
            "engines": {name: build_engine(s) for name, s in specs.items()},
            "presburger": (
                [(a.rel, a.f.coeffs[0], a.f.const, a.g.coeffs, a.g.const) for a in fam.preds],
                fam.meta["K"],
            ),
            "maxima": {name: {} for name in specs},
        }

    def make_input(self, ctx: dict, index: int) -> list:
        return [
            (name, op_rng(ctx["seed"], index, k).next_u64())
            for k, name in enumerate(EXAMPLES)
        ]

    def run(self, ctx: dict, inp: list) -> list:
        out = []
        for name, seed in inp:
            drawn: list = []
            gen = spec_generator(ctx["specs"][name], drawn)
            table = decomp.shatter_estimate(
                ctx["engines"][name], gen, self.ladders[name], 1, seed
            )
            out.append((table, drawn))
        return out

    def check(self, ctx: dict, inp: list, out: list) -> None:
        preds, K = ctx["presburger"]
        for (name, _), (table, drawn) in zip(inp, out):
            checks.require(len(drawn) == len(table.rows), f"{name}: trial inputs lost")
            for row, B in zip(table.rows, drawn):
                maxima = ctx["maxima"][name]
                maxima[row.n] = max(maxima.get(row.n, 0), row.cells_deduped)
                checks.require(row.n == len(B), f"{name}: row size {row.n} != |B| {len(B)}")
                if name == "ordered_halfline":
                    checks.require(
                        row.cells_deduped == len(B) + 1,
                        f"{name}: {row.cells_deduped} cells at |B|={len(B)}, want |B|+1",
                    )
                elif name == "presburger_parity":
                    types = checks.presburger_type_count(preds, K, B)
                    checks.require(
                        row.cells_deduped == types,
                        f"{name}: {row.cells_deduped} cells != {types} realized types",
                    )

    def finish(self, ctx: dict) -> None:
        for name, spec in ctx["specs"].items():
            checks.check_slope(name, ctx["maxima"][name], spec.expected_slope)


# ---------------------------------------------------------------------------
# verify-1d: exact verification of four kinds of 1-D instance
# ---------------------------------------------------------------------------


def interval_pred(kind: int, rng: SplitMix64) -> tuple[tuple, int]:
    """A semilinear predicate of x against y of one of four shapes, with one
    or two convex components, as (description, number of components)."""
    a = rng.fraction(8, 3)
    w = abs(rng.fraction(5, 3)) + Fraction(1, 5)
    if kind == 0:
        return ("atom", 1, -1, -a, "<"), 1
    if kind == 1:
        return ("atom", 1, -2, -a, ">="), 1
    if kind == 2:
        return ("and", [("atom", 1, -1, -a, ">"), ("atom", 1, -1, -(a + w), "<=")]), 1
    return (
        "or",
        [
            ("and", [("atom", 1, -1, -a, ">="), ("atom", 1, -1, -(a + w), "<")]),
            ("atom", 1, -1, -(a + w + 3), ">"),
        ],
    ), 2


def to_formula(desc):
    if desc[0] == "atom":
        _, cx, cy, c, rel = desc
        return f_atom([cx, cy], c, rel)
    parts = [to_formula(d) for d in desc[1]]
    return f_and(*parts) if desc[0] == "and" else f_or(*parts)


def padic_params(rng: SplitMix64, n: int, p: int) -> list:
    return distinct(rng, n, lambda r: Fraction(r.randint(-p ** 5, p ** 5), r.choice([1, 1, 1, 2, p])))


@dataclass
class Case:
    label: str
    family: object
    engine: object
    B: list
    preds: list = field(default_factory=list)  # own descriptions, ordered kinds
    components: list = field(default_factory=list)


class Verify1D:
    """One op: decomp.verify on a seeded semilinear (omin1d), vector-linear
    trichotomy (conjcells), Macintyre and affine-reduct (padic) instance.
    Ops cycle through the predicate shapes of the omin1d case and the prime,
    centres and radius functions of the Macintyre case; the seed draws the
    constants and the parameters."""

    name = "verify-1d"
    block_ops = 6
    tail_pct = 78  # a 25 s run here holds 48 to 72 ops
    sizes = {"omin1d": 16, "vector-linear": 12, "macintyre": 8, "laff": 4}
    # (first, second) predicate shape of the omin1d case
    omin_patterns = [(k1, k2) for k1 in range(4) for k2 in range(4)]
    # (prime, centre map, extra radius map or None) of the Macintyre case
    mac_maps = [AffineMap.of([1]), AffineMap.of([2]), AffineMap.of([1], 1), AffineMap.of([3])]
    mac_patterns = [(p, c, f) for p in (3, 5) for c in range(4) for f in (None, 0, 1, 2, 3)]

    def setup(self, root: Path, seed: int) -> dict:
        return {"seed": seed}

    def make_input(self, ctx: dict, index: int) -> list[Case]:
        rng = op_rng(ctx["seed"], index)
        pairs = [interval_pred(k, rng) for k in self.omin_patterns[index % len(self.omin_patterns)]]
        preds = [d for d, _ in pairs]
        fam = semilinear_family([to_formula(d) for d in preds], 1, 1)
        B = distinct(rng, self.sizes["omin1d"], lambda r: r.fraction(60, 6))
        cases = [Case("omin1d", fam, omin1d.build_decomposition(fam), B, preds, [k for _, k in pairs])]

        vl_preds, atoms = [], []
        for _ in range(2):
            fc = rng.choice([1, 2, -1])
            gc = rng.choice([1, -1, 2])
            g0 = rng.fraction(4, 2)
            atoms += vl_trichotomy(AffineMap.of([fc]), AffineMap.of([gc], g0))
            vl_preds += [("atom", fc, gc, g0, rel) for rel in ("<", "=", ">")]
        fam = vector_linear_family(atoms, 1, 1)
        B = distinct(rng, self.sizes["vector-linear"], lambda r: r.fraction(30, 4))
        cases.append(Case("vector-linear", fam, conjcells.build_decomposition(fam), B, vl_preds))

        p, c, f = self.mac_patterns[index % len(self.mac_patterns)]
        Fs = [AffineMap.of([0])] + ([] if f is None else [self.mac_maps[f]])
        fam = macintyre_family(Fs, [self.mac_maps[c]], [1, 2], n=2, p=p, param_dim=1)
        B = padic_params(rng, self.sizes["macintyre"], p)
        cases.append(Case("macintyre", fam, padic.macintyre_dcd(fam), B))

        fam = laff_family([AffineMap.of([1]), AffineMap.of([2])], m=2, n=1, Lambda=[1], p=3, param_dim=1)
        B = padic_params(rng, self.sizes["laff"], 3)
        cases.append(Case("laff", fam, padic.laff_dcd_1d(fam), B))
        return cases

    def run(self, ctx: dict, inp: list[Case]) -> list:
        return [decomp.verify(c.engine, c.family, c.B) for c in inp]

    def check(self, ctx: dict, inp: list[Case], out: list) -> None:
        for case, rep in zip(inp, out):
            checks.check_report(case.label, rep)
            if case.label == "omin1d":
                bound = checks.omin1d_cell_bound(case.components, len(case.B))
                checks.require(
                    rep.cell_count_deduped <= bound,
                    f"omin1d: {rep.cell_count_deduped} cells > 2N|Phi||B|+1 = {bound}",
                )
            if case.label == "vector-linear":
                checks.require(
                    rep.cell_count_deduped == rep.census_lower_bound,
                    f"vector-linear: {rep.cell_count_deduped} cells != census {rep.census_lower_bound}",
                )
            if case.preds:
                census = checks.ordered_census(case.preds, case.B)
                checks.require(
                    rep.census_lower_bound == census,
                    f"{case.label}: census {rep.census_lower_bound} != own count {census}",
                )

    def finish(self, ctx: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# plane-induction: dimension induction on planar semilinear families
# ---------------------------------------------------------------------------


class PlaneInduction:
    """One op: induct a seeded planar family with 2 parameters, build the
    planar probes and verify against them.  The family is one atom of x
    against y plus the fixed atom x2 < y2.  Ops cycle through every
    coefficient pattern of the first atom, so a run's mix of instances does
    not depend on the seed, which draws the constants and parameters."""

    name = "plane-induction"
    block_ops = 5
    tail_pct = 80  # a 25 s run here holds 55 to 90 ops
    params = 2
    steps = 16
    patterns = [
        (ax, ay, sy, rel)
        for ax in (1, 2, -1)
        for ay in (0, 1, -1)
        for sy in (-1, 1)
        for rel in ("<", "<=", ">")
    ]

    def setup(self, root: Path, seed: int) -> dict:
        return {"seed": seed}

    def make_input(self, ctx: dict, index: int):
        rng = op_rng(ctx["seed"], index)
        ax, ay, sy, rel = self.patterns[index % len(self.patterns)]
        atoms = [([ax, ay, sy, 0], rng.fraction(3, 2), rel), ([0, 1, 0, -1], Fraction(0), "<")]
        fam = semilinear_family([f_atom(*a) for a in atoms], 2, 2)
        B = distinct(rng, self.params, lambda r: (r.fraction(5, 2), r.fraction(5, 2)))
        return fam, B, atoms

    def run(self, ctx: dict, inp):
        fam, B, _ = inp
        engine = induction.induct(fam)
        probes = induction.plane_probes(fam, B, steps=self.steps)
        return decomp.verify(engine, fam, B, probes=probes), probes

    def check(self, ctx: dict, inp, out) -> None:
        _, B, atoms = inp
        rep, probes = out
        checks.check_report("plane", rep)
        census = checks.plane_census(atoms, B, sorted(set(probes)))
        checks.require(
            rep.census_lower_bound == census,
            f"plane: census {rep.census_lower_bound} != own count {census}",
        )

    def finish(self, ctx: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# incidence: sum-product identities, grid counts, K_{2,2} search
# ---------------------------------------------------------------------------


class Incidence:
    """One op: sum_product_experiment on |A| in 16..20, sum_bb_experiment on
    a seeded pair of sets of 8..14, zarankiewicz_check on one grid and
    contains_ksu on the 64-line grid.  Sizes cycle with the op index, since
    the sum-product cost grows as |A|^4; the seed draws the elements."""

    name = "incidence"
    block_ops = 6
    tail_pct = 82  # a 25 s run here holds 66 to 96 ops
    grids = [64, 128, 256]

    def setup(self, root: Path, seed: int) -> dict:
        grid = incidence.elekes_grid_instance(64)
        points = [
            (Fraction(x), Fraction(y))
            for x in range(1, grid.width + 1)
            for y in range(1, grid.height + 1)
        ]
        return {
            "seed": seed,
            "ksu": incidence.BipartiteInstance(points, grid.lines, incidence.line_edge),
            "profile": incidence.BoundProfile(2, 2, Fraction(2)),
        }

    def make_input(self, ctx: dict, index: int):
        rng = op_rng(ctx["seed"], index)
        A = distinct(rng, 16 + index % 5, lambda r: Fraction(r.randint(-200, 200), r.choice([1, 1, 2, 3])))
        A2 = distinct(rng, 8 + index % 7, lambda r: Fraction(r.randint(-50, 50)))
        B2 = distinct(rng, 14 - index % 7, lambda r: Fraction(r.randint(-50, 50), r.choice([1, 1, 2])))
        return A, A2, B2, self.grids[index % len(self.grids)]

    def run(self, ctx: dict, inp):
        A, A2, B2, n = inp
        sp = incidence.sum_product_experiment(A)
        sbb = incidence.sum_bb_experiment(A2, B2)
        row = incidence.zarankiewicz_check(incidence.elekes_grid_instance(n), ctx["profile"])
        found, _ = incidence.contains_ksu(ctx["ksu"], 2, 2)
        return sp, sbb, row, found

    def check(self, ctx: dict, inp, out) -> None:
        A, A2, B2, n = inp
        sp, sbb, row, found = out
        checks.check_sum_product(A, sp)
        checks.check_sum_bb(A2, B2, sbb)
        checks.check_grid(n, row)
        checks.require(not found, "contains_ksu found a K_{2,2} on the 64-line grid")

    def finish(self, ctx: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (Sweep1D(), Verify1D(), PlaneInduction(), Incidence())}
