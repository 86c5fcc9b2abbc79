import functools
import json
import pickle
from fractions import Fraction as F

import pytest

from distalcells import conjcells, padic
from distalcells.decomp import (
    fit_loglog_slope,
    shatter_estimate,
    verify,
    Decomposition,
    CellInstance,
)
from distalcells.families import (
    CongAtom,
    as_point,
    census_probes_1d,
    congruence_family,
    laff_family,
    macintyre_family,
    semilinear_family,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.induction import _fibers_hold, _point_ints, _Region, induct, plane_probes
from distalcells.linear import AffineMap, f_atom, f_not, f_or
from distalcells.omin1d import build_decomposition
from distalcells.rng import SplitMix64
from distalcells.scalars import in_pn, in_qmn, split_p, valuation
from test_plane_cells import GOLDEN as PLANE_GOLDEN, _instances as plane_instances


def _x_lt_y():
    return semilinear_family([f_atom([1, -1], 0, "<")], 1, 1)


def _trivial_decomp():
    def inst(B):
        return [CellInstance(template="full", params=(), extent_key=("full",))]

    return Decomposition("trivial", inst, lambda cells: lambda a: (0,))


def test_instantiate_rejects_scalar_beside_its_tuple():
    # 0 and (0,) are the same parameter once the engine wraps the scalar
    with pytest.raises(ValueError, match="duplicates"):
        build_decomposition(_x_lt_y()).instantiate([0, (0,)])
    with pytest.raises(ValueError, match="duplicates"):
        build_decomposition(_x_lt_y()).instantiate([(F(1),), F(1)])


def test_boolean_lift_disjunction():
    base = semilinear_family(
        [f_atom([1, -1], 0, "<"), f_atom([1, -1], 0, "=")], 1, 1
    )
    decomp = build_decomposition(base)
    derived = semilinear_family(
        [f_or(f_atom([1, -1], 0, "<"), f_atom([1, -1], 0, "="))], 1, 1
    )
    rep = verify(decomp, derived, [F(0), F(2)])
    assert rep.uncrossed


def test_boolean_lift_negation():
    base = _x_lt_y()
    decomp = build_decomposition(base)
    derived = semilinear_family([f_not(f_atom([1, -1], 0, "<"))], 1, 1)
    rep = verify(decomp, derived, [F(0), F(2)])
    assert rep.uncrossed


def test_boolean_lift_non_combination_crosses():
    base = _x_lt_y()
    decomp = build_decomposition(base)
    # x < y + 1 is not a boolean combination of x < y: it must cross
    derived = semilinear_family([f_atom([1, -1], -1, "<")], 1, 1)
    rep = verify(decomp, derived, [F(0), F(2)], probes=[(F(k, 2),) for k in range(-4, 8)])
    assert not rep.uncrossed
    assert rep.crossing_witness is not None


def test_shatter_slope_linear_family():
    fam = _x_lt_y()
    decomp = build_decomposition(fam)

    def gen(rng, n):
        out = set()
        while len(out) < n:
            out.add(rng.fraction(10 * n, 7))
        return sorted(out)

    table = shatter_estimate(decomp, gen, sizes=[8, 16, 32, 64, 128], trials=5, seed=42)
    assert 0.9 <= table.slope <= 1.1
    # counts are exactly |B| + 1 for this family
    assert table.max_counts == [n + 1 for n in (8, 16, 32, 64, 128)]


def test_shatter_trivial_decomposition_degenerate():
    table = shatter_estimate(
        _trivial_decomp(), lambda rng, n: list(range(n)), sizes=[4, 8], trials=2, seed=1
    )
    assert table.slope == 0.0 and table.degenerate


def test_fit_slope_degenerate():
    assert fit_loglog_slope([2, 4, 8], [1, 1, 1]) == (0.0, True)
    slope, flag = fit_loglog_slope([2, 4, 8], [4, 16, 64])
    assert abs(slope - 2.0) < 1e-9 and not flag


def _engines():
    """(label, family, decomposition) for each 1-D engine and family kind."""
    x_minus_y = (AffineMap.of([1]), AffineMap.of([-1]))
    vl = vector_linear_family(vl_trichotomy(*x_minus_y), 1, 1)
    pres = congruence_family(
        [CongAtom(*x_minus_y, r) for r in ("<", "=", ">")]
        + [CongAtom(AffineMap.of([1]), AffineMap.of([-1], r), "mod") for r in (0, 1)],
        K=2, point_dim=1, param_dim=1,
    )
    mac = macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1])], [AffineMap.of([1])], [1, 2],
        n=2, p=3, param_dim=1,
    )
    laff = laff_family(
        [AffineMap.of([1]), AffineMap.of([2])], m=2, n=1, Lambda=[1], p=3, param_dim=1
    )
    return [
        ("omin1d", _x_lt_y(), build_decomposition(_x_lt_y())),
        ("vector-linear", vl, conjcells.build_decomposition(vl)),
        ("presburger", pres, conjcells.build_decomposition(pres)),
        ("macintyre", mac, padic.macintyre_dcd(mac)),
        ("laff", laff, padic.laff_dcd_1d(laff)),
    ]


@pytest.mark.parametrize("label", ["omin1d", "vector-linear", "presburger", "macintyre", "laff"])
def test_verify_empty_B_is_one_full_cell(label):
    fam, decomp = next((f, d) for name, f, d in _engines() if name == label)
    rep = verify(decomp, fam, [])
    assert rep.passed
    assert (rep.cell_count_raw, rep.cell_count_deduped, rep.census_lower_bound) == (1, 1, 1)


@pytest.mark.parametrize("label", ["omin1d", "vector-linear", "presburger", "macintyre", "laff"])
def test_verify_passes_on_seeded_B(label):
    fam, decomp = next((f, d) for name, f, d in _engines() if name == label)
    rng = SplitMix64(31)
    for _ in range(4):
        if label == "presburger":
            B = sorted({F(rng.randint(-12, 12)) for _ in range(rng.randint(1, 6))})
        else:
            B = sorted({rng.fraction(30, 4) for _ in range(rng.randint(1, 6))})
        rep = verify(decomp, fam, B)
        assert rep.passed, (B, rep.to_dict())
        if label in ("vector-linear", "presburger"):
            # conj-cells are exactly the realized types
            assert rep.cell_count_deduped == rep.census_lower_bound, (B, rep.to_dict())


def _locator_cases():
    """(label, family, decomposition, B, probes) for every engine with a
    locator: each 1-D engine at seeded B over its exact census probes, and
    planar induction at the 10 pinned instances over their planar probes."""
    rng = SplitMix64(2718)
    # Presburger parameters are integers, drawn from their own stream
    ints = SplitMix64(2719)
    for label, fam, decomp in _engines():
        for _ in range(4):
            if label == "presburger":
                B = sorted({F(ints.randint(-30, 30)) for _ in range(ints.randint(1, 8))})
            else:
                B = sorted({rng.fraction(60, 6) for _ in range(rng.randint(1, 8))})
            yield label, fam, decomp, B, census_probes_1d(fam, [as_point(b, 1) for b in B])
    for label, fam, B, _ in plane_instances():
        yield label, fam, induct(fam), B, plane_probes(fam, B, steps=8)


@functools.cache
def _exact_cases() -> list:
    """(label, family, decomposition, probes, cells) over `_locator_cases()`,
    both p-adic engines with a Hensel margin w > 0 over their census and
    family probes, the `vector-linear-2` heredity case over a grid of
    halves, and the |x| = 3 family x1 + x2 + x3 < y over a small grid; each
    instance is built once for the tests that share these cases."""
    cases = list(_locator_cases())
    # w = 2 v_3(3) = 2 and w = n - 1 = 1: edge levels on both sides of a radius
    mac = macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1])], [AffineMap.of([1])], [1, 2], n=3, p=3, param_dim=1,
    )
    laff = laff_family(
        [AffineMap.of([1]), AffineMap.of([2])], m=2, n=2, Lambda=[1], p=3, param_dim=1
    )
    rng = SplitMix64(2720)
    for label, fam, decomp in (("macintyre", mac, padic.macintyre_dcd(mac)),
                               ("laff", laff, padic.laff_dcd_1d(laff))):
        for _ in range(3):
            B = [(b,) for b in sorted({rng.fraction(60, 6) for _ in range(rng.randint(1, 3))})]
            probes = sorted(set(census_probes_1d(fam, B)) | set(padic.family_probes(fam, B)))
            cases.append((label, fam, decomp, B, probes))
    decomp, draw = _heredity_cases()["vector-linear-2"]
    rng = SplitMix64(31337)
    grid = [(F(i, 2), F(j, 2)) for i in range(-14, 15) for j in range(-14, 15)]
    cases += [("vector-linear-2", _vl2_family(), decomp, draw(rng), grid) for _ in range(3)]
    d3 = semilinear_family([f_atom([1, 1, 1, -1], 0, "<")], 3, 1)
    decomp = induct(d3)
    vals = [F(-2), F(-1), F(0), F(1, 2), F(1), F(3, 2)]
    grid = [(a, b, c) for a in vals for b in vals for c in vals]
    cases += [("d3", d3, decomp, B, grid) for B in ([F(0), F(1)], [F(0), F(1), F(-2)])]
    return [
        (label, fam, decomp, probes, decomp.instantiate(B))
        for label, fam, decomp, B, probes in cases
    ]


def _zset_holds(key, x) -> bool:
    """Is x in the Presburger extent key ("pt", v) or ("z", lo, hi, mod, res)?"""
    if x.denominator != 1:
        return False
    v = x.numerator
    if key[0] == "pt":
        return v == key[1]
    _, lo, hi, mod, res = key
    return (lo is None or v >= lo) and (hi is None or v <= hi) and v % mod == res


def _type_holds(fam, cell, x) -> bool:
    """Does x, a point of a p-adic cell's subinterval, have the cell's type?
    Read with the Hensel margin w of the family."""
    sub, typ = cell.region.sub, cell.extent_key[1]
    if typ[0] == "pt":
        return True
    p, n = fam.meta["p"], fam.meta["n"]
    mac = fam.kind == "valuation-macintyre"
    w = 2 * split_p(n, p)[0] if mac else n - 1
    d = x - sub.center
    if typ[0] == "edge":
        _, r, u = typ
        return valuation(d - F(p) ** r * u, p) > r + w
    lam = typ[1]
    if not sub.alpha_l + w < valuation(d, p) < sub.alpha_u - w:
        return False
    return in_pn(d / lam, n, p) if mac else in_qmn(d, lam, fam.meta["m"], n, p)


def _bottom(region):
    while isinstance(region, _Region):
        region = region.base
    return region


def _reference(label, fam, cells, probes) -> list[list[int]]:
    """Per probe, the cells that hold it, read from each cell's own data."""
    if label.startswith(("found", "pattern")):
        # planar cylinders: the pinned membership bits
        pinned = next(g for g in json.loads(PLANE_GOLDEN.read_text()) if g["label"] == label)
        masks = [int(c["member"], 16) for c in pinned["cells"]]
        return [[ci for ci, m in enumerate(masks) if m >> k & 1] for k in range(len(probes))]
    if label in ("omin1d", "vector-linear"):
        def held(a):
            return [ci for ci, c in enumerate(cells) if c.region.member(a[0])]
    elif label == "vector-linear-2":
        def held(a):
            proj = {d: sum(u * x for u, x in zip(d, a)) for d, _ in cells[0].region}
            return [
                ci for ci, c in enumerate(cells)
                if all(iv.member(proj[d]) for d, iv in c.region)
            ]
    elif label == "presburger":
        def held(a):
            return [ci for ci, c in enumerate(cells) if _zset_holds(c.extent_key, a[0])]
    elif label in ("macintyre", "laff"):
        subs = {c.region.node: c.region.sub for c in cells}

        def held(a):
            # the probe's atoms first, then the types of their cells
            nodes = {node for node, sub in subs.items() if sub.member(a[0])}
            return [
                ci for ci, c in enumerate(cells)
                if c.region.node in nodes and _type_holds(fam, c, a[0])
            ]
    else:
        # a scan of every cylinder through its fiber chain: the bottom
        # interval slots must lose no cell
        bottoms = [_bottom(c.region) for c in cells]

        def held(a):
            pt = _point_ints(a)
            return [
                ci for ci, c in enumerate(cells)
                if bottoms[ci].member(a[-1]) and _fibers_hold(c.region, pt)
            ]
    return [held(a) for a in probes]


def test_locate_is_exact():
    # locate(a) is exactly the cells that hold a, for every engine
    for label, fam, decomp, probes, cells in _exact_cases():
        locate = decomp.locator_fn(cells)
        want = _reference(label, fam, cells, probes)
        for a, held in zip(probes, want):
            assert sorted(locate(a)) == held, (label, a)


def test_cells_are_data():
    # a cell is plain data: the cells of an instance pickle, and the locator
    # over the unpickled cells places every probe as before
    for label, _, decomp, probes, cells in _exact_cases():
        back = pickle.loads(pickle.dumps(cells))
        assert [(c.template, c.params, c.extent_key) for c in back] == \
            [(c.template, c.params, c.extent_key) for c in cells], label
        locate, again = decomp.locator_fn(cells), decomp.locator_fn(back)
        for a in probes:
            assert sorted(again(a)) == sorted(locate(a)), (label, a)


def _omin1d_family():
    return semilinear_family(
        [
            f_atom([1, -1], 0, "<"),
            f_or(f_atom([1, -2], 1, "="), f_atom([1, -1], -1, ">")),
        ],
        1, 1,
    )


def _vl2_family():
    return vector_linear_family(
        vl_trichotomy(AffineMap.of([1, 0]), AffineMap.of([-1, 0]))
        + vl_trichotomy(AffineMap.of([1, 1], 1), AffineMap.of([0, 2])),
        2, 2,
    )


def _heredity_cases():
    """label -> (decomposition, draw) for the engines whose cells record
    their parameters from B, where draw(rng) is a parameter set."""
    def draw(dim, size, num, den):
        def params(rng):
            out = set()
            while len(out) < size:
                out.add(tuple(rng.fraction(num, den) for _ in range(dim)))
            return sorted(out)

        return params

    # 2x against y, and 3 | (x - y + c) for every residue c
    pres = congruence_family(
        [CongAtom(AffineMap.of([2]), AffineMap.of([1]), r) for r in ("<", "=", ">")]
        + [CongAtom(AffineMap.of([1]), AffineMap.of([-1], c), "mod") for c in range(3)],
        K=3, point_dim=1, param_dim=1,
    )
    one_d = {label: decomp for label, _, decomp in _engines()}
    return {
        "omin1d": (build_decomposition(_omin1d_family()), draw(1, 6, 12, 4)),
        "vector-linear-1": (one_d["vector-linear"], draw(1, 6, 12, 4)),
        "vector-linear-2": (conjcells.build_decomposition(_vl2_family()), draw(2, 4, 6, 2)),
        "presburger": (conjcells.build_decomposition(pres), draw(1, 6, 12, 1)),
    }


def test_extent_keys_distinct_within_an_instance():
    # the heredity tests match cells by extent key, which is sound only when
    # no two cells of one instance share a key
    cases = [(label, decomp, B) for label, _, decomp, B, _ in _locator_cases()]
    rng = SplitMix64(31337)
    for label, (decomp, draw) in _heredity_cases().items():
        cases += [(label, decomp, draw(rng)) for _ in range(10)]
    d3 = semilinear_family([f_atom([1, 1, 1, -1], 0, "<")], 3, 1)
    cases.append(("d3-smoke", induct(d3), [F(0), F(1)]))
    for label, decomp, B in cases:
        keys = [c.extent_key for c in decomp.instantiate(B)]
        assert len(set(keys)) == len(keys), (label, B)


@pytest.mark.parametrize("label", ["omin1d", "vector-linear-1", "vector-linear-2", "presburger"])
def test_downward_heredity(label):
    # a cell of T(B) whose parameters all lie in a prefix B' of B is a cell
    # of T(B'), since I(Delta) meets B' inside I(Delta) & B, which is empty.
    # The p-adic cells record params=() and a cylinder records derived
    # tuples, so neither can be placed in a prefix and both are left out
    decomp, draw = _heredity_cases()[label]
    rng = SplitMix64(31337)
    checked = 0
    for _ in range(40):
        B = draw(rng)
        cells = decomp.instantiate(B)
        for k in range(1, len(B)):
            prefix = set(B[:k])
            keys = {c.extent_key for c in decomp.instantiate(B[:k])}
            for cell in cells:
                if prefix.issuperset(cell.params):
                    assert cell.extent_key in keys, (label, B[:k], cell.template)
                    checked += 1
    assert checked > 0
