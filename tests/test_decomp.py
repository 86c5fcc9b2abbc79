import dataclasses
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
    congruence_family,
    laff_family,
    macintyre_family,
    semilinear_family,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.linear import AffineMap, f_atom, f_not, f_or
from distalcells.omin1d import build_decomposition
from distalcells.rng import SplitMix64


def _x_lt_y():
    return semilinear_family([f_atom([1, -1], 0, "<")], 1, 1)


def _trivial_decomp():
    from distalcells.linear import Iv

    def inst(B):
        return [
            CellInstance(
                template="full", params=(),
                member=lambda a: True, excluded=lambda b: False,
                extent_key=("full",), interval=Iv.full(),
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
        + [CongAtom(AffineMap.of([1]), AffineMap.of([-1], 0), "mod")],
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


def test_verify_locator_matches_scan():
    rng = SplitMix64(2718)
    for label, fam, decomp in _engines():
        if decomp.locator_fn is None:
            continue
        scan = dataclasses.replace(decomp, locator_fn=None)
        for _ in range(4):
            B = sorted({rng.fraction(60, 6) for _ in range(rng.randint(1, 8))})
            assert verify(decomp, fam, B).to_dict() == verify(scan, fam, B).to_dict(), (label, B)


def test_verify_reports_exclusion_stride():
    fam = _x_lt_y()
    decomp = build_decomposition(fam)
    assert verify(decomp, fam, [F(0), F(2)]).exclusion_stride == 1
    # |B| + 1 nonempty cells times |B| parameters: 121 * 120 = 14520 pairs
    rep = verify(decomp, fam, [F(k, 3) for k in range(120)])
    assert rep.passed
    assert rep.to_dict()["exclusion_stride"] == 2
