import dataclasses
from fractions import Fraction as F

import pytest

from distalcells import conjcells, padic
from distalcells.decomp import (
    dedupe_cells,
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
from distalcells.induction import induct, plane_probes
from distalcells.linear import AffineMap, f_atom, f_not, f_or
from distalcells.omin1d import build_decomposition
from distalcells.rng import SplitMix64
from test_plane_cells import _instances as plane_instances


def _x_lt_y():
    return semilinear_family([f_atom([1, -1], 0, "<")], 1, 1)


def _trivial_decomp():
    def inst(B):
        return [
            CellInstance(
                template="full", params=(), member=lambda a: True, extent_key=("full",),
            )
        ]

    return Decomposition("trivial", inst)


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


def test_verify_locator_matches_scan():
    # verify gives the same report with the locator as with the full scan,
    # and every cell that holds a probe is among the probe's candidates
    for label, fam, decomp, B, probes in _locator_cases():
        assert decomp.locator_fn is not None, label
        scan = dataclasses.replace(decomp, locator_fn=None)
        assert verify(decomp, fam, B, probes).to_dict() == verify(scan, fam, B, probes).to_dict(), (label, B)
        cells = dedupe_cells(decomp.instantiate(B))
        locate = decomp.locator_fn(cells)
        for a in probes:
            held = {ci for ci, c in enumerate(cells) if c.member(a)}
            assert held <= set(locate(a)), (label, B, a)


def _omin1d_family():
    return semilinear_family(
        [
            f_atom([1, -1], 0, "<"),
            f_or(f_atom([1, -2], 1, "="), f_atom([1, -1], -1, ">")),
        ],
        1, 1,
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

    vl2 = vector_linear_family(
        vl_trichotomy(AffineMap.of([1, 0]), AffineMap.of([-1, 0]))
        + vl_trichotomy(AffineMap.of([1, 1], 1), AffineMap.of([0, 2])),
        2, 2,
    )
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
        "vector-linear-2": (conjcells.build_decomposition(vl2), draw(2, 4, 6, 2)),
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
