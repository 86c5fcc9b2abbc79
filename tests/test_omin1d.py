from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.decomp import dedupe_cells, verify
from distalcells.families import (
    interval_family,
    semilinear_family,
    type_census_1d,
)
from distalcells.linear import Iv, f_and, f_atom, f_or
from distalcells.omin1d import (
    EMPTY,
    FULL,
    Cut,
    build_decomposition,
    chain_atoms,
    cut_key,
    downward_family,
)
from distalcells.rng import SplitMix64


def _x_lt_y():
    return semilinear_family([f_atom([1, -1], 0, "<")], 1, 1)


def _y_lt_x():
    return semilinear_family([f_atom([-1, 1], 0, "<")], 1, 1)


def test_convex_components_halfline():
    fam = _x_lt_y()
    assert fam.components(0, F(2)) == [Iv(None, True, F(2), True)]


def test_convex_components_two_pieces():
    # (b < x < b+1) or (b+2 < x < b+3)
    f = f_or(
        f_and(f_atom([1, -1], 0, ">"), f_atom([1, -1], -1, "<")),
        f_and(f_atom([1, -1], -2, ">"), f_atom([1, -1], -3, "<")),
    )
    fam = semilinear_family([f], 1, 1)
    comps = fam.components(0, F(0))
    assert comps == [Iv(F(0), True, F(1), True), Iv(F(2), True, F(3), True)]


def test_convex_components_empty():
    f = f_and(f_atom([1, -1], 0, "<"), f_atom([1, -1], 0, ">"))
    fam = semilinear_family([f], 1, 1)
    assert fam.components(0, F(0)) == []


def test_downward_family_x_lt_y():
    fam = _x_lt_y()
    sets = downward_family(fam, [F(0), F(2)])
    extents = {cut_key(d.extent) for d in sets}
    # phi^1_< is empty over a dense order; phi^1_<= gives (-inf, b)
    assert extents == {cut_key(EMPTY), cut_key(Cut(F(0), False)), cut_key(Cut(F(2), False))}


def test_downward_family_empty_B():
    assert downward_family(_x_lt_y(), []) == []


def test_downward_family_upward_set():
    # y < x: component (b, inf); closure_leq = full, closure_lt = (-inf, b]
    sets = downward_family(_y_lt_x(), [F(0)])
    extents = sorted(cut_key(d.extent) for d in sets)
    assert extents == [cut_key(Cut(F(0), True)), cut_key(FULL)]


def test_chain_atoms_three_cuts():
    from distalcells.omin1d import DownwardSet

    sets = [
        DownwardSet(0, 0, "<=", i, Cut(F(v), False)) for i, v in enumerate((1, 3, 5))
    ]
    atoms = [iv for iv, _, _ in chain_atoms(sets)]
    assert atoms == [
        Iv(None, True, F(1), True),
        Iv(F(1), False, F(3), True),
        Iv(F(3), False, F(5), True),
        Iv(F(5), False, None, True),
    ]


def test_chain_atoms_empty_family():
    assert [iv for iv, _, _ in chain_atoms([])] == [Iv.full()]


def test_instantiate_x_lt_y():
    decomp = build_decomposition(_x_lt_y())
    cells = decomp.instantiate([F(0), F(2)])
    ivs = sorted(
        (c.interval for c in dedupe_cells(cells)),
        key=lambda iv: (iv.lo is not None, iv.lo or F(0)),
    )
    assert ivs == [
        Iv(None, True, F(0), True),
        Iv(F(0), False, F(2), True),
        Iv(F(2), False, None, True),
    ]


def test_instantiate_empty_B_trivial_cell():
    decomp = build_decomposition(_x_lt_y())
    cells = decomp.instantiate([])
    assert len(cells) == 1
    assert cells[0].member((F(123),))


def test_instantiate_rejects_duplicates():
    decomp = build_decomposition(_x_lt_y())
    with pytest.raises(ValueError):
        decomp.instantiate([F(0), F(0)])


def test_verify_x_lt_y_counts():
    fam = _x_lt_y()
    decomp = build_decomposition(fam)
    rep = verify(decomp, fam, [F(0), F(2)])
    assert rep.covered and rep.uncrossed
    assert (rep.cell_count_raw, rep.cell_count_deduped, rep.census_lower_bound) == (3, 3, 3)
    assert rep.passed


def test_verify_corrupted_decomposition_reports_uncovered():
    fam = _x_lt_y()
    base = build_decomposition(fam)

    def broken(B):
        return base.instantiate(B)[1:]  # drop one cell

    from distalcells.decomp import Decomposition

    bad = Decomposition(name="broken", instantiate_fn=broken, locator_fn=base.locator_fn)
    rep = verify(bad, fam, [F(0), F(2)])
    assert not rep.covered
    assert rep.first_uncovered is not None


def test_two_parameter_bound():
    fam = semilinear_family(
        [f_atom([1, -1], 0, "<"), f_atom([2, 1], -3, "<=")], 1, 1
    )
    decomp = build_decomposition(fam)
    for c in decomp.instantiate([F(0), F(2), F(-1)]):
        assert len(c.params) <= 2


def test_exclusion_soundness_definition():
    # Delta emitted  <=>  no b in B lands in I(Delta)
    fam = _x_lt_y()
    decomp = build_decomposition(fam)
    B = [F(0), F(2), F(5)]
    for c in decomp.instantiate(B):
        assert not any(c.excluded((b,)) for b in B)
    # and a cell that would be crossed is excluded: (-inf, 2) is crossed at b=0
    crossed = Iv(None, True, F(2), True)
    from distalcells.linear import crosses

    assert crosses(fam.components(0, F(0)), crossed)


def _random_interval_pred(rng: SplitMix64):
    # one or two disjoint affine-window components
    a1 = rng.fraction(8, 3)
    w1 = abs(rng.fraction(6, 3)) + F(1, 7)
    kind = rng.randint(0, 2)
    if kind == 0:
        return f_atom([1, -1], -a1, "<")  # x < y + a1
    if kind == 1:
        return f_and(f_atom([1, -1], -a1, ">"), f_atom([1, -1], -(a1 + w1), "<"))
    return f_or(
        f_and(f_atom([1, -1], -a1, ">="), f_atom([1, -1], -(a1 + w1), "<")),
        f_atom([1, -1], -(a1 + w1 + 2), ">"),
    )


def test_randomized_exact_verification_small():
    # broader version runs in the acceptance suite with 200 instances
    rng = SplitMix64(20240811)
    for _ in range(25):
        npred = rng.randint(1, 3)
        fam = semilinear_family([_random_interval_pred(rng) for _ in range(npred)], 1, 1)
        nb = rng.randint(1, 10)
        B = []
        seen = set()
        while len(B) < nb:
            v = rng.fraction(30, 6)
            if v not in seen:
                seen.add(v)
                B.append(v)
        decomp = build_decomposition(fam)
        rep = verify(decomp, fam, B)
        assert rep.covered and rep.uncrossed, rep.to_dict()
        n_bound = sum(fam.component_bound(i) for i in range(len(fam)))
        assert rep.cell_count_deduped <= 2 * n_bound * len(B) + 1
        assert rep.cell_count_deduped >= type_census_1d(fam, B).count


def test_cells_equal_types_on_halfline_families():
    # for families of downward half-lines the atoms coincide with the types
    rng = SplitMix64(7)
    for _ in range(20):
        fam = semilinear_family(
            [f_atom([1, -1], -rng.fraction(6, 3), "<") for _ in range(rng.randint(1, 3))],
            1, 1,
        )
        B = sorted({rng.fraction(20, 4) for _ in range(rng.randint(1, 8))})
        decomp = build_decomposition(fam)
        rep = verify(decomp, fam, B)
        assert rep.passed
        assert rep.cell_count_deduped == type_census_1d(fam, B).count


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=0, max_size=8, unique=True))
def test_monotone_exclusion(bs):
    fam = _x_lt_y()
    decomp = build_decomposition(fam)
    B = [F(b) for b in bs]
    B_small = B[: len(B) // 2]
    cells_big = decomp.instantiate(B)
    for c in cells_big:
        # every cell emitted over B with parameters from B_small is immune to B_small
        if all(p in [(b,) for b in B_small] for p in c.params):
            assert not any(c.excluded((b,)) for b in B_small)


def test_interval_family_from_explicit_components():
    def comps(b):
        return [Iv(b[0], True, b[0] + 1, True)]

    fam = interval_family([(comps, 1)], param_dim=1)
    decomp = build_decomposition(fam)
    rep = verify(decomp, fam, [F(0), F(3)])
    assert rep.passed
