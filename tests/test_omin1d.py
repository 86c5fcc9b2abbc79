from dataclasses import dataclass
from fractions import Fraction as F
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.decomp import dedupe_cells, verify
from distalcells.families import (
    interval_family,
    semilinear_family,
    type_census_1d,
)
from distalcells.linear import Iv, decode, f_and, f_atom, f_or
from distalcells.omin1d import (
    ComponentTable,
    DownwardSet,
    build_decomposition,
    chain_atoms,
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


def _table(fam, bs):
    return ComponentTable(fam, [(F(b),) for b in bs])


def test_downward_family_x_lt_y():
    table = _table(_x_lt_y(), [0, 2])
    assert table.cuts == [F(0), F(2)]
    # phi^0_< is empty over a dense order; phi^0_<= gives (-inf, b), the
    # positions below b's position 1 or 3
    assert {d.threshold for d in downward_family(table)} == {0, 1, 3}


def test_downward_family_empty_B():
    assert downward_family(_table(_x_lt_y(), [])) == []


def test_downward_family_upward_set():
    # y < x: component (b, inf); closure_leq = full (below 2k + 1 = 3),
    # closure_lt = (-inf, b] (below 2, the gap above b)
    sets = downward_family(_table(_y_lt_x(), [0]))
    assert [d.threshold for d in sets] == [2, 3]


def test_chain_atoms_three_cuts():
    cuts = [F(1), F(3), F(5)]
    # (-inf, 1), (-inf, 3) and (-inf, 5): the positions below 1, 3 and 5
    sets = [DownwardSet(0, 0, "<=", i, 2 * i + 1) for i in range(3)]
    atoms = [ext for ext, _, _ in chain_atoms(sets, 2 * len(cuts) + 1)]
    assert atoms == [(0, 0), (1, 2), (3, 4), (5, 6)]
    assert [decode(cuts, ext) for ext in atoms] == [
        Iv(None, True, F(1), True),
        Iv(F(1), False, F(3), True),
        Iv(F(3), False, F(5), True),
        Iv(F(5), False, None, True),
    ]


def test_chain_atoms_empty_family():
    assert chain_atoms([], 1) == [((0, 0), None, None)]
    assert decode([], (0, 0)) == Iv.full()


def test_instantiate_x_lt_y():
    decomp = build_decomposition(_x_lt_y())
    cells = decomp.instantiate([F(0), F(2)])
    ivs = sorted(
        (c.region for c in dedupe_cells(cells)),
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
    B = [(F(0),), (F(2),), (F(5),)]
    for c in decomp.instantiate(B):
        assert not any(crosses(fam.components(0, b), c.region) for b in B)
    # and a cell that would be crossed is excluded: (-inf, 2), a cell over
    # {2}, is crossed at b = 0, so it is gone from T([2, 0])
    below_2 = [c for c in decomp.instantiate([F(2)]) if c.region == Iv(None, True, F(2), True)]
    assert len(below_2) == 1
    assert below_2[0].extent_key not in {c.extent_key for c in decomp.instantiate([F(2), F(0)])}


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
    kept = {c.extent_key for c in decomp.instantiate(B_small)}
    for c in decomp.instantiate(B):
        # a cell emitted over B with parameters from B_small is missed by
        # I(Delta) on B_small, a part of B, so it is a cell of T(B_small)
        if all(p in [(b,) for b in B_small] for p in c.params):
            assert c.extent_key in kept


def test_interval_family_from_explicit_components():
    def comps(b):
        return [Iv(b[0], True, b[0] + 1, True)]

    fam = interval_family([(comps, 1)], param_dim=1)
    decomp = build_decomposition(fam)
    rep = verify(decomp, fam, [F(0), F(3)])
    assert rep.passed


# ---------------------------------------------------------------------------
# Fraction reference: the chain of downward closures as exact rational cuts,
# and crossing decided by interval intersection and inclusion, with no rank
# positions anywhere.
# ---------------------------------------------------------------------------

EMPTY = ("empty",)
FULL = ("full",)


@dataclass(frozen=True)
class Cut:
    value: F
    closed: bool  # (-inf, value] when closed, (-inf, value) otherwise


class _RefSet(NamedTuple):
    pred: int
    comp: int
    flavor: str
    param_index: int
    extent: object  # EMPTY, FULL or a Cut


def cut_key(extent) -> tuple:
    if extent == EMPTY:
        return (0,)
    if extent == FULL:
        return (2,)
    return (1, extent.value, extent.closed)


def _closure_leq(comp):
    # exists x0 in comp with x <= x0
    if comp is None:
        return EMPTY
    if comp.hi is None:
        return FULL
    return Cut(comp.hi, closed=not comp.hi_open)


def _closure_lt(comp):
    # x below every point of comp
    if comp is None:
        return FULL
    if comp.lo is None:
        return EMPTY
    return Cut(comp.lo, closed=comp.lo_open)


def ref_downward_family(fam, B):
    sets = []
    for pi in range(len(fam.preds)):
        for bi, b in enumerate(B):
            comps = fam.components(pi, b)
            for ci in range(max(1, len(comps))):
                comp = comps[ci] if ci < len(comps) else None
                sets.append(_RefSet(pi, ci, "<=", bi, _closure_leq(comp)))
                sets.append(_RefSet(pi, ci, "<", bi, _closure_lt(comp)))
    sets.sort(key=lambda d: (cut_key(d.extent), d.pred, d.comp, d.flavor, d.param_index))
    return sets


def _atom_between(lo_extent, hi_extent) -> Iv:
    lo, lo_open = (None, True) if lo_extent == EMPTY else (lo_extent.value, lo_extent.closed)
    hi, hi_open = (None, True) if hi_extent == FULL else (hi_extent.value, not hi_extent.closed)
    return Iv(lo, lo_open, hi, hi_open)


def ref_chain_atoms(sets):
    distinct = []
    for d in sorted(sets, key=lambda d: cut_key(d.extent)):
        if not distinct or cut_key(distinct[-1].extent) != cut_key(d.extent):
            distinct.append(d)
    atoms = []
    prev, prev_extent = None, EMPTY
    for d in distinct:
        if d.extent == EMPTY:
            continue
        iv = _atom_between(prev_extent, d.extent)
        if not iv.is_empty():
            atoms.append((iv, prev, d))
        prev, prev_extent = d, d.extent
    if prev_extent != FULL:
        iv = _atom_between(prev_extent, FULL)
        if not iv.is_empty():
            atoms.append((iv, prev, None))
    return atoms


def iv_subset(a: Iv, b: Iv) -> bool:
    """a is inside b, for a nonempty a."""
    if b.lo is not None:
        if a.lo is None or a.lo < b.lo or (a.lo == b.lo and b.lo_open and not a.lo_open):
            return False
    if b.hi is not None:
        if a.hi is None or a.hi > b.hi or (a.hi == b.hi and b.hi_open and not a.hi_open):
            return False
    return True


def _meets(a: Iv, b: Iv) -> bool:
    if a.lo is not None and b.hi is not None:
        if a.lo > b.hi or (a.lo == b.hi and (a.lo_open or b.hi_open)):
            return False
    if b.lo is not None and a.hi is not None:
        if b.lo > a.hi or (b.lo == a.hi and (b.lo_open or a.hi_open)):
            return False
    return True


def crosses(components, delta: Iv) -> bool:
    """Some component meets delta and none holds all of it."""
    if delta.is_empty() or not any(_meets(c, delta) for c in components):
        return False
    return not any(iv_subset(delta, c) for c in components)


def test_reference_subset_and_crosses():
    a = Iv(F(0), False, F(2), True)  # [0, 2)
    b = Iv(F(1), True, None, True)  # (1, inf)
    c = Iv(F(1), True, F(2), True)  # their intersection
    assert iv_subset(c, a) and iv_subset(c, b)
    assert not iv_subset(a, b)
    comps = [Iv(None, True, F(0), True)]  # (-inf, 0)
    assert crosses(comps, Iv(F(-1), False, F(1), False))
    assert not crosses(comps, Iv(F(-3), False, F(-2), False))
    assert not crosses(comps, Iv(F(1), False, F(2), False))


def _ref_cells(fam, B):
    def label(d):
        return "-" if d is None else f"phi{d.pred}^{d.comp}_{d.flavor}"

    return [
        (
            f"{label(hi)}\\{label(lo)}",
            tuple(B[d.param_index] for d in (lo, hi) if d is not None),
            (iv.lo, iv.lo_open, iv.hi, iv.hi_open),
            iv,
        )
        for iv, lo, hi in ref_chain_atoms(ref_downward_family(fam, B))
    ]


def _reference_pred(rng: SplitMix64):
    """A predicate on x - y: a half-line, a point, its complement (two
    components), a window, or a window beside a point or a half-line."""
    a = rng.fraction(8, 3)
    w = abs(rng.fraction(6, 3)) + F(1, 7)
    window = f_and(
        f_atom([1, -1], -a, rng.choice([">", ">="])),
        f_atom([1, -1], -(a + w), rng.choice(["<", "<="])),
    )
    kind = rng.randint(0, 5)
    if kind == 0:
        return f_atom([1, -1], -a, rng.choice(["<", "<=", ">", ">="]))
    if kind == 1:
        return f_atom([1, -1], -a, "=")
    if kind == 2:
        return f_atom([1, -1], -a, "!=")
    if kind == 3:
        return window
    if kind == 4:
        return f_or(window, f_atom([1, -1], -(a + w + 1), "="))
    return f_or(window, f_atom([1, -1], -(a + w + 2), ">"))


def _reference_interval_family(rng: SplitMix64):
    """An `interval`-kind family: per predicate a window at b + a, alone, with
    a point above it, or with a half-line below it."""
    preds = []
    for _ in range(rng.randint(1, 3)):
        a = rng.fraction(8, 3)
        w = abs(rng.fraction(6, 3)) + F(1, 7)
        opens = (rng.randint(0, 1) == 1, rng.randint(0, 1) == 1)
        shape = rng.randint(0, 2)

        def comps(b, a=a, w=w, opens=opens, shape=shape):
            win = Iv(b[0] + a, opens[0], b[0] + a + w, opens[1])
            if shape == 1:
                return [win, Iv.point(b[0] + a + w + 1)]
            if shape == 2:
                return [Iv(None, True, b[0] + a - 1, opens[0]), win]
            return [win]

        preds.append((comps, 1 if shape == 0 else 2))
    return interval_family(preds, param_dim=1)


def test_positions_match_fraction_reference():
    rng = SplitMix64(20261019)
    on_cut = in_gap = 0
    verdicts = set()
    for n in range(220):
        if n % 5 == 4:
            fam = _reference_interval_family(rng)
        else:
            fam = semilinear_family(
                [_reference_pred(rng) for _ in range(rng.randint(1, 3))], 1, 1
            )
        B, nb = [], rng.randint(1, 6)
        while len(B) < nb:
            b = (rng.fraction(12, 4),)
            if b not in B:
                B.append(b)
        decomp = build_decomposition(fam)
        cells = decomp.instantiate(B)
        ref = _ref_cells(fam, B)
        assert [(c.template, c.params, c.extent_key, c.region) for c in cells] == ref

        comps_at = {b: [fam.components(pi, b) for pi in range(len(fam.preds))] for b in B}
        ends = sorted({
            e for b in B for cs in comps_at[b] for c in cs for e in (c.lo, c.hi)
            if e is not None
        })
        offsets = sorted({
            e - b[0] for b in B for cs in comps_at[b] for c in cs for e in (c.lo, c.hi)
            if e is not None
        })
        # outside B: parameters that put an endpoint on a cut, strictly inside
        # a gap, and beyond either end, then any other parameters up to five
        gaps = [ends[0] - 1] + [(u + v) / 2 for u, v in zip(ends, ends[1:])] + [ends[-1] + 1]
        outside = []
        for pool in (ends, gaps, ends, gaps, ends, gaps):
            b = (rng.choice(pool) - rng.choice(offsets),)
            if b not in B and b not in outside:
                outside.append(b)
        while len(outside) < 5:
            b = (rng.fraction(40, 7),)
            if b not in B and b not in outside:
                outside.append(b)
        for b in outside:
            comps_at[b] = [fam.components(pi, b) for pi in range(len(fam.preds))]
            at = [e for cs in comps_at[b] for c in cs for e in (c.lo, c.hi) if e is not None]
            on_cut += any(e in ends for e in at)
            in_gap += any(e not in ends for e in at)

        for b in B + outside:
            # no parameter of B crosses an emitted cell, and any other
            # excludes exactly the cells that are gone from T(B + [b])
            kept = None if b in B else {c.extent_key for c in decomp.instantiate(B + [b])}
            for cell, (_, _, _, iv) in zip(cells, ref):
                want = any(crosses(cs, iv) for cs in comps_at[b])
                got = False if kept is None else cell.extent_key not in kept
                assert got == want, (n, cell.template, b)
                verdicts.add((kept is None, want))
    assert on_cut >= 100 and in_gap >= 100, (on_cut, in_gap)
    assert verdicts == {(True, False), (False, False), (False, True)}
