from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.conjcells import (
    _dir_crossed,
    _DirPred,
    build_decomposition,
    check_conjunction_property,
    conj_decomposition,
)
from distalcells.decomp import verify
from distalcells.families import (
    CongAtom,
    congruence_family,
    type_census_1d,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.linear import AffineMap, Iv
from distalcells.rng import SplitMix64


def _grid(lo, hi, steps: int) -> list:
    """The (steps+1)^2 rational grid over [lo, hi]^2."""
    axis = [F(lo) + F(hi - lo, steps) * i for i in range(steps + 1)]
    return [(u, v) for u in axis for v in axis]


def _trichotomy_x_minus_y():
    # x - y < 0, x - y = 0, x - y > 0
    return vector_linear_family(
        vl_trichotomy(AffineMap.of([1]), AffineMap.of([-1])), 1, 1
    )


def _presburger_parity():
    # trichotomy of x - y plus parity atoms 2 | (x - y + c), c in {0, 1}
    f, g = AffineMap.of([1]), AffineMap.of([-1])
    atoms = [CongAtom(f, g, "<"), CongAtom(f, g, "="), CongAtom(f, g, ">")]
    atoms.append(CongAtom(f, AffineMap.of([-1], 0), "mod"))
    atoms.append(CongAtom(f, AffineMap.of([-1], 1), "mod"))
    return congruence_family(atoms, K=2, point_dim=1, param_dim=1)


def test_conjunction_property_inequality():
    fam = _trichotomy_x_minus_y()
    res = check_conjunction_property(fam, [F(0), F(2)])
    assert res.ok
    assert res.witnesses[0] == (F(0),)  # x < 0 is the binding bound


def test_conjunction_property_parity_clash():
    fam = _presburger_parity()
    res = check_conjunction_property(fam, [F(0), F(1)])
    assert 3 in res.certificates  # 2 | (x - y) unrealizable over both parities


def test_conjunction_property_equal_parities():
    fam = _presburger_parity()
    res = check_conjunction_property(fam, [F(0), F(2)])
    assert res.witnesses[3] == (F(0),)


def test_vl_cells_trichotomy():
    fam = _trichotomy_x_minus_y()
    cells = conj_decomposition(fam, [(F(0),), (F(2),)])
    # x<0, x=0, 0<x<2, x=2, x>2
    assert len(cells) == 5
    census = type_census_1d(fam, [F(0), F(2)])
    assert census.count == 5


def test_vl_cells_match_census_randomized():
    rng = SplitMix64(123)
    for _ in range(30):
        groups = rng.randint(1, 2)
        atoms = []
        for _ in range(groups):
            a = F(rng.choice([1, 1, 2, -1]))
            atoms += vl_trichotomy(
                AffineMap.of([a]), AffineMap.of([rng.choice([1, -1, 2])], rng.fraction(4, 2))
            )
        fam = vector_linear_family(atoms, 1, 1)
        B = []
        seen = set()
        for _ in range(rng.randint(1, 10)):
            v = rng.fraction(20, 4)
            if v not in seen:
                seen.add(v)
                B.append(v)
        cells = conj_decomposition(fam, B)
        assert len(cells) == type_census_1d(fam, B).count


def test_presburger_cells_equal_census():
    fam = _presburger_parity()
    B = [F(0), F(1)]
    cells = conj_decomposition(fam, B)
    census = type_census_1d(fam, B)
    assert len(cells) == census.count


def test_presburger_cells_equal_census_randomized():
    rng = SplitMix64(5150)
    for _ in range(25):
        K = rng.choice([2, 3, 4])
        f = AffineMap.of([rng.choice([1, 1, 2])])
        g = AffineMap.of([rng.choice([1, -1])], rng.randint(-3, 3))
        atoms = [CongAtom(f, g, r) for r in ("<", "=", ">")]
        for c in range(K):
            atoms.append(CongAtom(f, AffineMap.of(list(g.coeffs), g.const + c), "mod"))
        fam = congruence_family(atoms, K=K, point_dim=1, param_dim=1)
        B = []
        seen = set()
        for _ in range(rng.randint(1, 8)):
            v = F(rng.randint(-12, 12))
            if v not in seen:
                seen.add(v)
                B.append(v)
        cells = conj_decomposition(fam, B)
        assert len(cells) == type_census_1d(fam, B).count, (K, B)


def test_dir_crossed_matches_position_sets():
    # every extent lo..hi over k cuts against every set of cut positions, by
    # sets of positions: a piece crosses when it meets the extent and does
    # not hold it.  The engine's extents are points or have even ends, where
    # bisect_left and bisect_right agree on the odd cut positions; the other
    # extents here tell the two bisections apart
    pieces = {"<": lambda q, x: x < q, ">": lambda q, x: x > q, "=": lambda q, x: x == q}
    for k in range(4):
        for bits in range(1 << k):
            pos = [2 * i + 1 for i in range(k) if bits >> i & 1]
            for lo in range(2 * k + 1):
                for hi in range(lo, 2 * k + 1):
                    for rel, holds in pieces.items():
                        want = any(
                            any(holds(q, x) for x in range(lo, hi + 1))
                            and not all(holds(q, x) for x in range(lo, hi + 1))
                            for q in pos
                        )
                        got = _dir_crossed((lo, hi), [_DirPred(0, rel)], {0: pos})
                        assert got == want, (pos, lo, hi, rel)


def test_empty_B_single_full_cell():
    decomp = build_decomposition(_trichotomy_x_minus_y())
    cells = decomp.instantiate([])
    assert len(cells) == 1 and cells[0].extent_key == ("full",)


def test_verify_conj_decomposition():
    fam = _trichotomy_x_minus_y()
    decomp = build_decomposition(fam)
    rep = verify(decomp, fam, [F(0), F(2)])
    assert rep.passed
    assert rep.cell_count_deduped == rep.census_lower_bound == 5


def test_verify_presburger():
    fam = _presburger_parity()
    decomp = build_decomposition(fam)
    rep = verify(decomp, fam, [F(0), F(1)])
    assert rep.passed
    assert rep.cell_count_deduped == rep.census_lower_bound


def test_vl_two_dimensional_grid():
    # independent directions x1 - y1 and x2 - y2
    atoms = vl_trichotomy(AffineMap.of([1, 0]), AffineMap.of([-1, 0])) + vl_trichotomy(
        AffineMap.of([0, 1]), AffineMap.of([0, -1])
    )
    fam = vector_linear_family(atoms, 2, 2)
    B = [(F(0), F(0)), (F(1), F(1))]
    cells = conj_decomposition(fam, B)
    # 5 cells per coordinate direction
    assert len(cells) == 25
    rep = verify(build_decomposition(fam), fam, B, probes=_grid(-1, 2, 6))
    assert rep.covered and rep.uncrossed
    assert rep.cell_count_deduped >= rep.census_lower_bound


def test_congruence_unrealizable_certificates_match_exhaustive():
    fam = _presburger_parity()
    B = [F(0), F(1)]
    res = check_conjunction_property(fam, B)
    # exhaustive residue search over one period window agrees
    for i, cert in res.certificates.items():
        pred = fam.preds[i]
        K = fam.meta["K"]
        found = False
        for x in range(0, K):
            if all(fam.evaluate(i, F(x + t * K), b) for b in B for t in (0, 1)):
                found = True
        assert not found, f"certificate {cert} but conjunction realizable"



def test_congruence_atom_rejects_non_integer_values():
    f = AffineMap.of([1])
    atoms = [CongAtom(f, AffineMap.of([F(1, 2)], c), "mod") for c in range(2)]
    fam = congruence_family(atoms, K=2, point_dim=1, param_dim=1)
    with pytest.raises(ValueError, match="integer values"):
        conj_decomposition(fam, [F(1), F(2)])


# Brute-force oracle for Presburger families at |x| = |y| = 1: plain integer
# arithmetic on an integer window, sharing no code with the engine's ZSet.
# Every cut point of the drawn families lies in [-50, 50] and every modulus
# divides K <= 6, so the window shows every type and every crossing.
WINDOW = range(-70, 71)


def _oracle_atom(atom, K):
    """x -> b -> truth of the atom, on integers doubled so that half-integer
    coefficients stay integral."""
    a, c = int(2 * atom.f.coeffs[0]), int(2 * atom.f.const)
    k, d = int(2 * atom.g.coeffs[0]), int(2 * atom.g.const)
    if atom.rel == "mod":
        return lambda x, b: (a * x + c + k * b + d) % (2 * K) == 0
    if atom.rel == "<":
        return lambda x, b: a * x + c < k * b + d
    if atom.rel == "=":
        return lambda x, b: a * x + c == k * b + d
    return lambda x, b: a * x + c > k * b + d


@st.composite
def _congruence_instances(draw):
    K = draw(st.sampled_from([2, 3, 4, 6]))
    f_coeff = st.sampled_from([0, 1, -1, 2, -3])
    half = st.integers(-6, 6).map(lambda k: F(k, 2))
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        f = AffineMap.of([draw(f_coeff)], draw(st.integers(-2, 2)))
        g = AffineMap.of([draw(half)], draw(half))
        atoms += [CongAtom(f, g, r) for r in ("<", "=", ">")]
    for _ in range(draw(st.integers(1, 2))):
        f = AffineMap.of([draw(f_coeff)], draw(st.integers(-2, 2)))
        g_coeff, g_const = draw(st.sampled_from([1, -1, 2])), draw(st.integers(-3, 3))
        atoms += [CongAtom(f, AffineMap.of([g_coeff], g_const + c), "mod") for c in range(K)]
    B = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True))
    return congruence_family(atoms, K=K, point_dim=1, param_dim=1), B


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_congruence_instances())
def test_presburger_cells_match_integer_oracle(instance):
    fam, B = instance
    holds = [_oracle_atom(atom, fam.meta["K"]) for atom in fam.preds]
    cells = conj_decomposition(fam, [F(b) for b in B])
    members = build_decomposition(fam).locator_fn(cells)([(F(x),) for x in WINDOW])

    types = {tuple(h(x, b) for h in holds for b in B) for x in WINDOW}
    assert len(cells) == len(types)

    tested = sorted(set(B) | set(range(-15, 16, 5)))
    # a parameter outside B excludes exactly the cells gone from T(B + [b])
    kept = {
        b: {c.extent_key for c in conj_decomposition(fam, [F(v) for v in B + [b]])}
        for b in tested if b not in B
    }
    holds_at = {
        (i, b): {x for x in WINDOW if h(x, b)} for i, h in enumerate(holds) for b in tested
    }
    for ci, cell in enumerate(cells):
        chosen = [int(i) for i in cell.template[len("conj{"):-1].split(",") if i]
        extent = set(WINDOW)
        for i, (b,) in zip(chosen, cell.params):
            extent &= holds_at[i, int(b)]
        assert extent and extent == {x for i, x in enumerate(WINDOW) if members[ci] >> i & 1}
        for b in tested:
            crossed = any(
                0 < len(extent & holds_at[i, b]) < len(extent) for i in range(len(holds))
            )
            # no parameter of B crosses an emitted cell, and any other
            # excludes exactly the cells gone from T(B + [b])
            got = cell.extent_key not in kept[b] if b in kept else False
            assert got == crossed, (cell.template, b)


def iv_subset(a: Iv, b: Iv) -> bool:
    """a is inside b, for a nonempty a."""
    if b.lo is not None and (
        a.lo is None or a.lo < b.lo or (a.lo == b.lo and b.lo_open and not a.lo_open)
    ):
        return False
    return b.hi is None or not (
        a.hi is None or a.hi > b.hi or (a.hi == b.hi and b.hi_open and not a.hi_open)
    )


def _lo_key(lo, lo_open: bool):
    # tightness order for lower bounds: -inf loosest, (v, open) tighter than (v, closed)
    return (0, F(0), 0) if lo is None else (1, lo, 1 if lo_open else 0)


def _hi_key(hi, hi_open: bool):
    # tightness order for upper bounds: +inf loosest, (v, open) tighter than (v, closed)
    return (1, F(0), 0) if hi is None else (0, hi, 0 if hi_open else 1)


def iv_intersect(a: Iv, b: Iv) -> Iv:
    """The intersection of two Fraction intervals, for the reference below."""
    lo, lo_open = (a.lo, a.lo_open)
    if _lo_key(b.lo, b.lo_open) > _lo_key(a.lo, a.lo_open):
        lo, lo_open = b.lo, b.lo_open
    hi, hi_open = (a.hi, a.hi_open)
    if _hi_key(b.hi, b.hi_open) < _hi_key(a.hi, a.hi_open):
        hi, hi_open = b.hi, b.hi_open
    return Iv(lo, lo_open, hi, hi_open)


def test_iv_intersect():
    # [0, 2) meets (1, inf) in (1, 2)
    a = Iv(F(0), False, F(2), True)
    b = Iv(F(1), True, None, True)
    assert iv_intersect(a, b) == Iv(F(1), True, F(2), True)


# Plain-Fraction reference for vector-linear cells: per direction, every
# nonempty conjunction of half-lines and points at the thresholds, deduped by
# extent after each predicate, minus the crossed ones; then the product over
# directions.  Thresholds are recomputed at every use, as Fraction intervals.
def _reference_vl_cells(fam, B):
    dirs = {}
    for i, p in enumerate(fam.preds):
        scale = next(c for c in p.f.coeffs if c != 0)
        rel = p.rel if scale > 0 else {"<": ">", ">": "<", "=": "="}[p.rel]
        dirs.setdefault(tuple(c / scale for c in p.f.coeffs), []).append((i, rel, scale))

    def piece(i, rel, scale, b):
        p = fam.preds[i]
        v = (-p.g(b) - p.f.const) / scale
        return v, (Iv(None, True, v, True) if rel == "<" else (
            Iv(v, True, None, True) if rel == ">" else Iv(v, False, v, False)))

    def crossed(iv, dpreds, b):
        for dp in dpreds:
            pc = piece(*dp, b)[1]
            if not iv_intersect(iv, pc).is_empty() and not iv_subset(iv, pc):
                return True
        return False

    key = lambda iv: (iv.lo, iv.lo_open, iv.hi, iv.hi_open)  # noqa: E731
    axes = []
    for d in sorted(dirs):
        options = {key(Iv.full()): (Iv.full(), ())}
        for dp in dirs[d]:
            vals = {}
            for b in B:
                vals.setdefault(piece(*dp, b), b)
            new = dict(options)
            for iv, chosen in options.values():
                for (_, pc), b in sorted(vals.items(), key=lambda t: t[0][0]):
                    cut = iv_intersect(iv, pc)
                    if not cut.is_empty():
                        new.setdefault(key(cut), (cut, chosen + ((dp[0], b),)))
            options = new
        axes.append([
            (iv, chosen) for iv, chosen in options.values()
            if not any(crossed(iv, dirs[d], b) for b in B)
        ])
    combos = [([], ())]
    for kept in axes:
        combos = [(ivs + [iv], ch + c) for ivs, ch in combos for iv, c in kept]
    cells = []
    for ivs, chosen in combos:
        region = (ivs[0] if ivs else Iv.full()) if fam.point_dim == 1 else tuple(zip(sorted(dirs), ivs))
        excluded = lambda b, ivs=ivs: any(  # noqa: E731
            crossed(iv, dirs[d], b) for d, iv in zip(sorted(dirs), ivs)
        )
        cells.append((
            "conj{" + ",".join(str(i) for i, _ in chosen) + "}",
            tuple(b for _, b in chosen),
            tuple(key(iv) for iv in ivs),
            region,
            excluded,
        ))
    return cells


def _vl_instance(rng, dim):
    atoms = []
    if dim == 1:
        for _ in range(rng.randint(1, 3)):
            f = AffineMap.of([rng.choice([1, 2, -1, F(-1, 2)])], rng.randint(-2, 2))
            g = AffineMap.of([rng.choice([1, -1, 2, 0])], rng.fraction(4, 2))
            atoms += vl_trichotomy(f, g)
    else:
        for d in rng.choice([[[1, 0], [0, 1]], [[1, 1], [2, -1]], [[0, 3]]]):
            s = rng.choice([1, -2, F(1, 3)])
            g = AffineMap.of([rng.choice([1, -1, 2])], rng.fraction(4, 2))
            atoms += vl_trichotomy(AffineMap.of([s * c for c in d], rng.randint(-1, 1)), g)
    B = sorted({(rng.fraction(10, 3),) for _ in range(rng.randint(1, 8))})
    return vector_linear_family(atoms, dim, 1), B


@pytest.mark.parametrize("dim", [1, 2])
def test_vector_linear_cells_match_fraction_reference(dim):
    rng = SplitMix64(1009 + dim)
    for _ in range(40):
        fam, B = _vl_instance(rng, dim)
        outside = [(rng.fraction(10, 3),) for _ in range(4)] + [(B[0][0] + F(1, 997),)]
        cells = conj_decomposition(fam, B)
        ref = _reference_vl_cells(fam, B)
        # a parameter outside B excludes exactly the cells gone from T(B + [b])
        kept = {
            b: {c.extent_key for c in conj_decomposition(fam, B + [b])}
            for b in outside if b not in B
        }
        assert len(cells) == len(ref)
        for cell, (template, params, key, region, excluded) in zip(cells, ref):
            assert (cell.template, cell.params, cell.extent_key) == (template, params, key)
            assert cell.region == region
            # the reference finds no b in B crossing an emitted cell
            for b in B:
                assert not excluded(b), (cell.template, b)
            for b, keys in kept.items():
                assert (cell.extent_key not in keys) == excluded(b), (cell.template, b)
        if dim == 1:
            assert verify(build_decomposition(fam), fam, B).passed
