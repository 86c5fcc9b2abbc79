"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (failures raise with details).  Run with `pytest -v -s`."""

import json
import math
import time
from fractions import Fraction as F

from distalcells import conjcells, induction, omin1d, padic, ultrametric
from distalcells.decomp import shatter_estimate, verify
from distalcells.families import (
    CongAtom,
    congruence_family,
    macintyre_family,
    semilinear_family,
    type_census_1d,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.incidence import (
    BipartiteInstance,
    contains_ksu,
    elekes_grid_instance,
    line_edge,
    sum_bb_experiment,
    sum_product_experiment,
    zarankiewicz_sweep,
)
from distalcells.linear import AffineMap, f_and, f_atom, f_or
from distalcells.rng import SplitMix64
from distalcells.scalars import INF, in_pn, in_qmn, valuation


def _report(num: int, text: str):
    print(f"\nACCEPTANCE {num}: PASS — {text}")


def _distinct_rationals(rng: SplitMix64, n: int, num=60, den=6) -> list:
    out, seen = [], set()
    while len(out) < n:
        v = rng.fraction(num, den)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


# -- 1: omin1d validity ------------------------------------------------------


def _interval_pred(rng: SplitMix64):
    """A random one- or two-component predicate (N <= 2) of x against y."""
    a = rng.fraction(8, 3)
    w = abs(rng.fraction(5, 3)) + F(1, 5)
    kind = rng.randint(0, 3)
    if kind == 0:
        return f_atom([1, -1], -a, "<")
    if kind == 1:
        return f_atom([1, -2], -a, ">=")
    if kind == 2:
        return f_and(f_atom([1, -1], -a, ">"), f_atom([1, -1], -(a + w), "<="))
    return f_or(
        f_and(f_atom([1, -1], -a, ">="), f_atom([1, -1], -(a + w), "<")),
        f_atom([1, -1], -(a + w + 3), ">"),
    )


def test_acceptance_1_omin1d_validity():
    rng = SplitMix64(1001)
    t0 = time.monotonic()
    sizes = [rng.randint(1, 12) for _ in range(185)] + [64] * 5 + [40] * 10
    for i, nb in enumerate(sizes):
        fam = semilinear_family(
            [_interval_pred(rng) for _ in range(rng.randint(1, 3))], 1, 1
        )
        B = _distinct_rationals(rng, nb)
        decomp = omin1d.build_decomposition(fam)
        rep = verify(decomp, fam, B)
        assert rep.covered and rep.uncrossed, (i, rep.to_dict())
        n_bound = sum(fam.component_bound(k) for k in range(len(fam)))
        assert rep.cell_count_deduped <= 2 * n_bound * len(B) + 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"200 exact omin1d verifications in {elapsed:.2f}s, counts within 2N|Phi||B|+1")


# -- 2: omin1d exponent ------------------------------------------------------


def test_acceptance_2_omin1d_exponent():
    fam = semilinear_family(
        [
            f_atom([1, -1], 0, "<"),
            f_and(f_atom([1, -1], -1, ">"), f_atom([1, -1], -2, "<")),
        ],
        1, 1,
    )
    decomp = omin1d.build_decomposition(fam)

    def gen(rng, n):
        return _distinct_rationals(rng, n, num=40 * n, den=7)

    table = shatter_estimate(decomp, gen, sizes=[8, 16, 32, 64, 128], trials=20, seed=2002)
    assert 0.85 <= table.slope <= 1.10, table.max_counts
    _report(2, f"omin1d shatter slope {table.slope:.3f} in [0.85, 1.10] "
               f"(max counts {table.max_counts})")


# -- 3: dimension induction --------------------------------------------------


def _plane_family(rng: SplitMix64):
    preds = []
    for _ in range(rng.randint(1, 2)):
        ax = rng.choice([1, 1, 2, -1])
        ay = rng.choice([0, 1, -1])
        rel = rng.choice(["<", "<=", ">"])
        preds.append(
            f_atom([ax, ay, rng.choice([-1, 1]), 0], rng.fraction(3, 2), rel)
        )
    preds.append(f_atom([0, 1, 0, -1], 0, "<"))
    return semilinear_family(preds, 2, 2)


def test_acceptance_3_dim_induction():
    t0 = time.monotonic()
    rng = SplitMix64(3003)
    for i in range(50):
        fam = _plane_family(rng)
        decomp = induction.induct(fam)
        B, seen = [], set()
        while len(B) < rng.randint(2, 3):
            b = (rng.fraction(5, 2), rng.fraction(5, 2))
            if b not in seen:
                seen.add(b)
                B.append(b)
        probes = induction.plane_probes(fam, B, steps=40)
        rep = verify(decomp, fam, B, probes=probes)
        assert rep.covered and rep.uncrossed, (i, rep.to_dict())
        assert rep.cell_count_deduped >= rep.census_lower_bound
    fam = semilinear_family(
        [f_atom([1, 0, -1, 0], 0, "<"), f_atom([0, 1, 0, -1], 0, "<")], 2, 2
    )
    decomp = induction.induct(fam)

    def gen(rng2, n):
        out, seen2 = [], set()
        while len(out) < n:
            b = (rng2.fraction(30, 3), rng2.fraction(30, 3))
            if b not in seen2:
                seen2.add(b)
                out.append(b)
        return out

    table = shatter_estimate(decomp, gen, sizes=[2, 3, 4, 6], trials=2, seed=3103)
    assert table.slope <= 3.2, table.max_counts
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(3, f"50 planar verifications on 41x41+intersection probes, "
               f"slope {table.slope:.3f} <= 3.2, {elapsed:.1f}s")


# -- 4: conjunction cells ----------------------------------------------------


def _random_vl_family(rng: SplitMix64):
    atoms = []
    for _ in range(rng.randint(1, 2)):
        f = AffineMap.of([rng.choice([1, 1, 2, -1])])
        g = AffineMap.of([rng.choice([1, -1, 2])], rng.fraction(4, 2))
        atoms += vl_trichotomy(f, g)
    return vector_linear_family(atoms, 1, 1)


def _random_presburger_family(rng: SplitMix64):
    K = rng.choice([2, 3, 4, 6])
    f = AffineMap.of([rng.choice([1, 1, 2])])
    g = AffineMap.of([rng.choice([1, -1])], rng.randint(-4, 4))
    atoms = [CongAtom(f, g, r) for r in ("<", "=", ">")]
    for c in range(K):
        atoms.append(CongAtom(f, AffineMap.of(list(g.coeffs), g.const + c), "mod"))
    return congruence_family(atoms, K=K, point_dim=1, param_dim=1)


def test_acceptance_4_conj_cells_bijection():
    rng = SplitMix64(4004)
    for i in range(100):
        fam = _random_vl_family(rng)
        B = _distinct_rationals(rng, rng.randint(1, 12), num=30, den=4)
        cells = conjcells.conj_decomposition(fam, B)
        census = type_census_1d(fam, B)
        assert len(cells) == census.count, (i, len(cells), census.count)
    for i in range(100):
        fam = _random_presburger_family(rng)
        B, seen = [], set()
        while len(B) < rng.randint(1, 10):
            v = F(rng.randint(-25, 25))
            if v not in seen:
                seen.add(v)
                B.append(v)
        cells = conjcells.conj_decomposition(fam, B)
        census = type_census_1d(fam, B)
        assert len(cells) == census.count, (i, len(cells), census.count)
        # unrealizability certificates agree with exhaustive residue search
        chk = conjcells.check_conjunction_property(fam, B)
        K = fam.meta["K"]
        for pi, cert in chk.certificates.items():
            window = range(-K * 3, K * 3)
            assert not any(
                all(fam.evaluate(pi, F(x), b) for b in B) for x in window
            ), (i, pi, cert)
    vl = vector_linear_family(
        vl_trichotomy(AffineMap.of([1]), AffineMap.of([-1])), 1, 1
    )
    table = shatter_estimate(
        conjcells.build_decomposition(vl),
        lambda r, n: _distinct_rationals(r, n, num=20 * n, den=5),
        sizes=[8, 16, 32, 64], trials=10, seed=4104,
    )
    assert table.slope <= 1.1, table.max_counts
    _report(4, f"200 bijection checks cells == census, certificates exhaustive, "
               f"slope {table.slope:.3f} <= 1.1")


# -- 5: p-adic arithmetic ----------------------------------------------------


def _oracle_valuation(a: F, p: int):
    if a == 0:
        return None
    num, den, v = abs(a.numerator), a.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _oracle_unit_residue(a: F, p: int, k: int) -> int:
    v = _oracle_valuation(a, p)
    num, den = a.numerator, a.denominator
    scaled = a / F(p) ** v
    num, den = scaled.numerator, scaled.denominator
    mod = p ** k
    for w in range(mod):
        if (den * w - num) % mod == 0:
            return w
    raise AssertionError("no residue found")


def _oracle_in_pn(a: F, n: int, p: int) -> bool:
    if a == 0:
        return True
    v = _oracle_valuation(a, p)
    if v % n != 0:
        return False
    vpn = 0
    nn = n
    while nn % p == 0:
        nn //= p
        vpn += 1
    mod = p ** (2 * vpn + 1)
    w = _oracle_unit_residue(a, p, 2 * vpn + 1)
    return any(pow(x, n, mod) == w for x in range(1, mod) if x % p != 0)


def _oracle_in_qmn(a: F, lam: F, m: int, n: int, p: int) -> bool:
    if lam == 0:
        return a == 0
    if a == 0:
        return False
    r = a / lam
    if _oracle_valuation(r, p) % m != 0:
        return False
    return _oracle_unit_residue(r, p, n) == 1


def test_acceptance_5_padic_arithmetic():
    rng = SplitMix64(5005)
    for _ in range(10_000):
        p = rng.choice([3, 5, 7])
        a = rng.fraction(80, 12)
        b = rng.fraction(80, 12)
        va, vb, vs = valuation(a, p), valuation(b, p), valuation(a + b, p)
        assert vs >= min(va, vb)
        if va != vb:
            assert vs == min(va, vb)
        if a != 0 and b != 0:
            assert valuation(a * b, p) == va + vb
    checked = 0
    heights = [
        F(num, den)
        for den in range(1, 51)
        for num in range(-50, 51)
        if math.gcd(abs(num), den) == 1
    ]
    for p in (3, 5):
        for val in heights:
            for n in (2, 3):
                assert in_pn(val, n, p) == _oracle_in_pn(val, n, p), (p, val, n)
                checked += 1
            for mn in ((2, 2), (2, 3), (3, 2), (3, 3)):
                m, n = mn
                got = in_qmn(val, 1, m, n, p)
                assert got == _oracle_in_qmn(val, F(1), m, n, p), (p, val, m, n)
                checked += 1
    _report(5, f"10^4 ultrametric/multiplicativity checks and {checked} "
               f"oracle agreements for in_Pn / in_Qmn")


# -- 6: subinterval atoms ----------------------------------------------------


def test_acceptance_6_subintervals():
    rng = SplitMix64(6006)
    maps = [AffineMap.of([0]), AffineMap.of([1]), AffineMap.of([2]), AffineMap.of([1], 1)]
    done = 0
    while done < 100:
        p = rng.choice([3, 5])
        C = [maps[1]] + ([maps[rng.choice([2, 3])]] if rng.randint(0, 1) else [])
        Fset = [maps[0]] + ([maps[1]] if rng.randint(0, 1) else [])
        B, seen = [], set()
        for _ in range(rng.randint(1, 5)):
            v = (F(rng.randint(-60, 60), rng.choice([1, 1, p])),)
            if v not in seen:
                seen.add(v)
                B.append(v)
        balls = ultrametric.special_balls(Fset, C, B, p)
        if len(balls) > 30 or not balls:
            continue
        atoms = ultrametric.subinterval_atoms(balls)
        assert len(atoms) <= 2 * len(balls) + 1
        # brute-force boolean algebra atoms via region probing
        pts = set()
        radii = sorted({b.radius for b in balls if -INF < b.radius < INF}) or [0]
        probe_radii = set(radii) | {r + 1 for r in radii} | {r - 1 for r in radii}
        for b in balls:
            pts.add(b.center)
            for r in probe_radii:
                for u in range(1, p):
                    pts.add(b.center + F(u) * F(p) ** r)
        regions = {}
        for x in sorted(pts):
            key = tuple(b.member(x) for b in balls)
            regions.setdefault(key, []).append(x)
        assert len(regions) == len(atoms), (p, len(regions), len(atoms))
        for x in sorted(pts):
            owners = [i for i, a in enumerate(atoms) if a.member(x)]
            assert len(owners) == 1
        # T-val well-definedness across all candidate centers
        T = sorted({c(b) for c in C for b in B})
        for x in sorted(pts):
            sub = next(a for a in atoms if a.member(x))
            cands = padic.t_val_candidate_centers(sub, T)
            vals = {valuation(x - t, p) for t in cands}
            assert len(vals) <= 1
        done += 1
    _report(6, "100 arrangements: forest atoms == region-probed atoms, "
               "counts <= 2#balls+1, T-val center-independent")


# -- 7: Macintyre decomposition ----------------------------------------------


def _mac_instance(rng: SplitMix64):
    p = rng.choice([3, 5])
    maps = [AffineMap.of([1]), AffineMap.of([2]), AffineMap.of([1], 1), AffineMap.of([3])]
    C = [maps[rng.randint(0, 3)]]
    if rng.randint(0, 1):
        C.append(maps[rng.randint(0, 3)])
        if C[0] is C[1]:
            C = C[:1]
    Fset = [AffineMap.of([0])]
    if rng.randint(0, 1):
        Fset.append(maps[rng.randint(0, 3)])
    fam = macintyre_family(Fset, C, [1, 2], n=2, p=p, param_dim=1)
    return p, fam


def test_acceptance_7_macintyre_dcd():
    rng = SplitMix64(7007)
    sizes = [rng.randint(2, 10) for _ in range(44)] + [24, 24, 32, 32, 48, 48]
    for i, nb in enumerate(sizes):
        p, fam = _mac_instance(rng)
        decomp = padic.macintyre_dcd(fam)
        B, seen = [], set()
        while len(B) < nb:
            v = F(rng.randint(-p ** 5, p ** 5), rng.choice([1, 1, 1, 2, p]))
            if v not in seen:
                seen.add(v)
                B.append(v)
        rep = verify(decomp, fam, B)
        assert rep.covered and rep.uncrossed and rep.count_ok, (i, rep.to_dict())
        # every cell descriptor reconstructs from at most 3 parameters of B
        cells = decomp.instantiate(B)
        C, Fs = fam.meta["C"], fam.meta["F"]
        t_values = {c((b,)): True for b in B for c in C}
        for cell in cells:
            sub = cell.region.sub
            assert sub.center in t_values
            for alpha in (sub.alpha_l, sub.alpha_u):
                if not -INF < alpha < INF:
                    continue
                # radii come from one more parameter each, possibly shifted
                # one level by the removed-ball renormalization
                ok = any(
                    valuation(f((b,)), p) in (alpha, alpha + 1)
                    for b in B for f in Fs
                ) or any(
                    valuation(sub.center - c((b,)), p) in (alpha, alpha + 1)
                    for b in B for c in C
                )
                assert ok, (alpha, sub)
    # shatter slope
    p, fam = 3, macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1])], [AffineMap.of([1])], [1, 2],
        n=2, p=3, param_dim=1,
    )
    decomp = padic.macintyre_dcd(fam)

    def gen(rng2, n):
        out, seen2 = [], set()
        while len(out) < n:
            v = F(rng2.randint(-3 ** 7, 3 ** 7), rng2.choice([1, 1, 1, 2, 4, 3]))
            if v not in seen2:
                seen2.add(v)
                out.append(v)
        return out

    table = shatter_estimate(decomp, gen, sizes=[8, 16, 32, 64, 128], trials=2, seed=7107)
    assert table.slope <= 1.1, table.max_counts
    # coset transfer on 10^4 precondition-satisfying triples
    rng3 = SplitMix64(7207)
    done = 0
    while done < 10_000:
        p2 = rng3.choice([3, 5])
        a = F(rng3.randint(-50, 50), rng3.choice([1, 2, 3]))
        y = F(rng3.randint(-50, 50), rng3.choice([1, 2, 3]))
        if y == a:
            continue
        base = valuation(y - a, p2)
        k = rng3.randint(1, 5)
        x = y + F(rng3.randint(1, p2 - 1), rng3.choice([1, 2])) * F(p2) ** (base + k)
        if x == a or x == y:
            continue
        assert padic.coset_transfer_check(x, y, a, 2, p2)
        done += 1
    _report(7, f"50 exhaustive Macintyre verifications, 3-parameter descriptors, "
               f"slope {table.slope:.3f} <= 1.1, 10^4 coset transfers")


# -- 8: Zarankiewicz ----------------------------------------------------------


def test_acceptance_8_zarankiewicz():
    rows, bounded = zarankiewicz_sweep([64, 128, 256, 512])
    assert bounded, [r.ratio for r in rows]
    # exhaustive K_{2,2} search on the smallest instance (|P| <= 2000)
    inst = elekes_grid_instance(64)
    points = [
        (F(x), F(y)) for x in range(1, inst.width + 1) for y in range(1, inst.height + 1)
    ]
    bip = BipartiteInstance(points, inst.lines, line_edge)
    found, _ = contains_ksu(bip, 2, 2)
    assert not found
    ratios = [round(r.ratio, 4) for r in rows]
    _report(8, f"grid instances certified K22-free (exhaustive at n=64), "
               f"ratios {ratios} bounded (last-3 growth < 5%)")


# -- 9: sum-product identities -------------------------------------------------


def test_acceptance_9_sum_product():
    t0 = time.monotonic()
    rng = SplitMix64(9009)
    for structure in ("Q", "Qp"):
        for _ in range(50):
            size = rng.randint(2, 40)
            A, seen = [], set()
            while len(A) < size:
                if structure == "Q":
                    v = F(rng.randint(-200, 200), rng.choice([1, 1, 2, 3]))
                else:
                    v = F(rng.randint(-200, 200), rng.choice([1, 1, 3, 9, 5]))
                if v not in seen:
                    seen.add(v)
                    A.append(v)
            rep = sum_product_experiment(A)
            assert rep.incidences >= rep.lower_bound, (structure, size)
    for _ in range(50):
        sa, sb = rng.randint(1, 20), rng.randint(2, 20)
        A = _distinct_rationals(rng, sa, num=80, den=3)
        B = _distinct_rationals(rng, sb, num=80, den=3)
        rep = sum_bb_experiment(A, B)
        assert rep.incidences == rep.expected
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(9, "|E| >= |A|^3 on 100 sum-product instances (Q and Q in Q_p), "
               f"|E| == |A||B|^2 on 50 line-set instances, {elapsed:.2f}s")


# -- 10: determinism -----------------------------------------------------------


def test_acceptance_10_determinism(tmp_path):
    from distalcells.cli import main

    spec = {
        "experiment_id": "determinism",
        "structure": "rationals-order",
        "family": {
            "kind": "semilinear",
            "predicates": [{"atom": {"x": [1], "y": [-1], "c": 0, "rel": "<"}}],
        },
        "sizes": [8, 16, 32],
        "trials": 4,
        "seed": 20240808,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--spec", str(path), "--out-dir", str(out)]) == 0
        outs.append((out / "results.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(10, "rerunning the spec with the same seed is byte-identical")
