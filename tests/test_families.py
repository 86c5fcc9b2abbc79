from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.families import (
    CongAtom,
    census_probes_1d,
    congruence_family,
    fast_truth_masks,
    interval_family,
    laff_family,
    macintyre_family,
    semilinear_family,
    type_census_1d,
    type_census_probe,
    vector_linear_family,
    vl_trichotomy,
)
from distalcells.linear import AffineMap, Iv, f_and, f_atom, f_not, f_or
from distalcells.rng import SplitMix64


def _grid(lo, hi, steps: int) -> list:
    """The (steps+1)^2 rational grid over [lo, hi]^2."""
    axis = [F(lo) + F(hi - lo, steps) * i for i in range(steps + 1)]
    return [(u, v) for u in axis for v in axis]


def _x_lt_y():
    # x < y as a semilinear family with |x| = |y| = 1
    return semilinear_family([f_atom([1, -1], 0, "<")], 1, 1)


def test_evaluate_interval_example():
    fam = _x_lt_y()
    assert fam.evaluate(0, F(1), F(2)) is True
    assert fam.evaluate(0, F(2), F(1)) is False


def test_evaluate_congruence_example():
    fam = congruence_family(
        [CongAtom(AffineMap.of([1]), AffineMap.of([1]), "mod")], K=2,
        point_dim=1, param_dim=1,
    )
    assert fam.evaluate(0, F(3), F(5)) is True  # 8 even
    assert fam.evaluate(0, F(3), F(4)) is False


def test_evaluate_valuation_example():
    # v(f(y)) < v(x - y) with f = 0: never true (v(0) = +inf)
    fam = macintyre_family(
        F=[], C=[AffineMap.of([1])], Lambda=[1], n=2, p=3, param_dim=1,
    )
    # pred 0 is ("vless", f0, c0)
    assert fam.evaluate(0, F(9), F(0)) is False


def test_census_x_lt_y():
    fam = _x_lt_y()
    assert type_census_1d(fam, [F(0), F(2)]).count == 3


def test_census_empty_parameter_set():
    fam = _x_lt_y()
    assert type_census_1d(fam, []).count == 1


def test_census_parity():
    fam = congruence_family(
        [
            CongAtom(AffineMap.of([1]), AffineMap.of([1]), "mod"),
        ],
        K=2, point_dim=1, param_dim=1,
    )
    assert type_census_1d(fam, [F(0), F(1)]).count == 2


def test_census_probe_grid():
    fam = semilinear_family(
        [f_atom([1, 0, -1, 0], 0, "<"), f_atom([0, 1, 0, -1], 0, "<")], 2, 2
    )
    B = [(F(0), F(0)), (F(1), F(1))]
    probes = _grid(-1, 2, 4)
    assert type_census_probe(fam, B, probes).count == 9


def test_census_probe_empty_probes():
    fam = _x_lt_y()
    assert type_census_probe(fam, [F(0)], []).count == 0


def test_census_equality_relation():
    fam = semilinear_family([f_atom([1, -1], 0, "=")], 1, 1)
    census = type_census_probe(fam, [F(0), F(1)], [(F(-1),), (F(0),), (F(1),)])
    assert census.count == 3
    # n + 1 exact over distinct parameters
    assert type_census_1d(fam, [F(0), F(1), F(5)]).count == 4


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=0, max_size=6, unique=True))
def test_census_equality_is_n_plus_one(bs):
    fam = semilinear_family([f_atom([1, -1], 0, "=")], 1, 1)
    B = [F(b) for b in bs]
    assert type_census_1d(fam, B).count == len(B) + 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True),
    st.integers(0, 4),
)
def test_probe_census_monotone_in_probes(bs, extra):
    fam = _x_lt_y()
    B = [F(b) for b in bs]
    p1 = [(F(i),) for i in range(-3, 1)]
    p2 = p1 + [(F(extra),), (F(extra) + F(1, 2),)]
    c1 = type_census_probe(fam, B, p1).count
    c2 = type_census_probe(fam, B, p2).count
    assert c2 >= c1


def test_census_1d_agrees_with_probe_superset():
    fam = _x_lt_y()
    B = [F(0), F(2), F(7)]
    exact = type_census_1d(fam, B).count
    probes = list(census_probes_1d(fam, B)) + [(F(100),), (F(-100),), (F(1, 3),)]
    assert type_census_probe(fam, B, probes).count == exact


def test_interval_kind_component_bound_enforced():
    def three_pieces(b):
        return [
            Iv(F(0), True, F(1), True),
            Iv(F(2), True, F(3), True),
            Iv(F(4), True, F(5), True),
        ]

    fam = interval_family([(three_pieces, 2)], param_dim=1)
    with pytest.raises(ValueError):
        fam.components(0, F(0))


# fast_truth_masks against ParamFamily.truth_mask, the per-point evaluator:
# equal masks on the sorted census probes of verified instances.


def _ordered_instances(rng):
    """A verified (family, decomposition, B) of each ordered kind."""
    from distalcells import conjcells, omin1d

    a, w = rng.fraction(8, 3), abs(rng.fraction(5, 3)) + F(1, 5)
    semi = semilinear_family([
        f_atom([1, -1], -a, rng.choice(["<", "<=", "=", "!="])),
        f_or(
            f_and(f_atom([1, -2], -a, ">"), f_atom([1, -1], -(a + w), "<=")),
            f_atom([1, -1], -(a + w + 3), ">"),
        ),
    ], 1, 1)

    def two_pieces(b, w=w):
        return [Iv(b[0], True, b[0] + w, False), Iv(b[0] + w + 1, False, None, True)]

    def point(b):
        return [Iv(2 * b[0], False, 2 * b[0], False)]

    interval = interval_family([(two_pieces, 2), (point, 1)], 1)
    vl = vector_linear_family(
        vl_trichotomy(AffineMap.of([rng.choice([1, -2])]), AffineMap.of([1], rng.fraction(4, 2)))
        + vl_trichotomy(AffineMap.of([F(1, 2)]), AffineMap.of([-1])), 1, 1,
    )
    B = [(b,) for b in sorted({rng.fraction(20, 4) for _ in range(rng.randint(1, 7))})]
    return [
        (semi, omin1d.build_decomposition(semi), B),
        (interval, omin1d.build_decomposition(interval), B),
        (vl, conjcells.build_decomposition(vl), B),
    ]


def test_fast_truth_masks_match_truth_mask_ordered_kinds():
    from distalcells.decomp import verify

    rng = SplitMix64(4242)
    for _ in range(15):
        for fam, decomp, B in _ordered_instances(rng):
            assert verify(decomp, fam, B).passed, fam.kind
            xs = sorted(census_probes_1d(fam, B))
            assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs], fam.kind


# The valuation kinds' integer column masks against truth_mask, which
# evaluates each (point, predicate, parameter) on Fractions through scalars.


def _padic_rational(draw, p, height=3):
    """u * p^e / w with e in [-2, 2]: p can sit in the numerator or the
    denominator, and w = 2 gives a unit part other than 1."""
    u = draw(st.integers(-p ** height, p ** height))
    return F(u) * F(p) ** draw(st.integers(-2, 2)) / draw(st.sampled_from([1, 1, 2]))


def _valuation_probes(draw, fam, B, centres, p):
    """Census probes, every centre c(b) (where v(x - c(b)) is +inf), and
    nearby points at a few valuations."""
    probes = set(census_probes_1d(fam, B)[:40])
    for c in centres:
        probes.add((c,))
        for e in (-1, 0, 1, 3):
            probes.add((c + F(p) ** e * draw(st.sampled_from([1, 2, p - 1])),))
    return sorted(probes)


def _padic_params(draw, p, most):
    """Distinct parameters k / d with d in {1, 2, p}, as 1-tuples."""
    pairs = draw(st.lists(
        st.tuples(st.integers(-p ** 3, p ** 3), st.sampled_from([1, 2, p])),
        min_size=1, max_size=most,
    ))
    return [(b,) for b in dict.fromkeys(F(k, d) for k, d in pairs)]


@st.composite
def _macintyre_instances(draw):
    p, n = draw(st.sampled_from([3, 5, 7])), draw(st.sampled_from([2, 3]))
    B = _padic_params(draw, p, 4)
    # F(y) = y - B[0] vanishes at the first parameter
    Fs = [AffineMap.of([1], -B[0][0]), AffineMap.of([draw(st.integers(-3, 3))], _padic_rational(draw, p))]
    C = [AffineMap.of([draw(st.sampled_from([1, 2, -1]))], _padic_rational(draw, p))]
    lams = [_padic_rational(draw, p) for _ in range(2)] + [F(p), F(1, p), F(0)]
    fam = macintyre_family(Fs, C, lams, n=n, p=p, param_dim=1)
    return fam, B, _valuation_probes(draw, fam, B, [C[0](b) for b in B], p)


@st.composite
def _laff_instances(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    m, n = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2]))
    B = _padic_params(draw, p, 3)
    C = [AffineMap.of([1]), AffineMap.of([draw(st.sampled_from([2, -1, 3]))], _padic_rational(draw, p))]
    lams = [F(0), F(1), F(p), _padic_rational(draw, p)]
    fam = laff_family(C, m=m, n=n, Lambda=lams, p=p, param_dim=1)
    return fam, B, _valuation_probes(draw, fam, B, [c(b) for c in C for b in B], p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_macintyre_instances())
def test_macintyre_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_laff_instances())
def test_laff_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]


# The int-row columns of the linear kinds against truth_mask, which
# evaluates each (point, predicate, parameter) on Fractions: probes sit on
# the atoms' zero sets, where a row is 0 and only the rel decides.

_small = st.integers(-3, 3)
_rat = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3]))


@st.composite
def _congruence_instances(draw):
    K = draw(st.integers(2, 4))
    atoms = []
    for _ in range(draw(st.integers(1, 2))):
        f = AffineMap.of([draw(st.sampled_from([1, 2, -1, -3]))], draw(_small))
        g = AffineMap.of([draw(st.sampled_from([1, -1, 2]))], draw(_small))
        atoms += [CongAtom(f, g, rel) for rel in ("<", "=", ">")]
    f = AffineMap.of([draw(st.sampled_from([1, 2, 3]))])
    g = AffineMap.of([draw(st.sampled_from([1, -1, 2]))], 0)
    atoms += [CongAtom(f, AffineMap.of(g.coeffs, r), "mod") for r in range(K)]
    fam = congruence_family(atoms, K, point_dim=1, param_dim=1)
    B = [(F(b),) for b in draw(st.lists(st.integers(-20, 20), max_size=4, unique=True))]
    far = [(F(v),) for v in (-1000, -97, 0, 98, 1001)]
    return fam, B, sorted(set(census_probes_1d(fam, B) + far))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_congruence_instances())
def test_congruence_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]


def test_congruence_masks_need_integer_values():
    fam = congruence_family(
        [CongAtom(AffineMap.of([1]), AffineMap.of([1], r), "mod") for r in (0, 1)], 2, 1, 1
    )
    with pytest.raises(ValueError, match="integer values"):
        fast_truth_masks(fam, [(F(1),)], [(F(0),), (F(1, 2),)])


def _plane_probes(draw, lines):
    """Grid points, and points exactly on each line a1 x1 + a2 x2 + c = 0,
    in no particular order (the scan needs none)."""
    pts = [(draw(_rat), draw(_rat)) for _ in range(6)]
    for a1, a2, c in lines:
        for u in (F(-1), F(0), F(5, 2)):
            if a2:
                pts.append((u, -(c + a1 * u) / a2))
            elif a1:
                pts.append((-c / a1, u))
    return pts


@st.composite
def _plane_semilinear_instances(draw):
    B = [(b,) for b in dict.fromkeys(draw(st.lists(_rat, min_size=1, max_size=3)))]
    atoms = [
        f_atom([draw(_small), draw(_small), draw(_small)], draw(_rat),
               draw(st.sampled_from(["<", "<=", "=", "!=", ">"])))
        for _ in range(3)
    ]
    fam = semilinear_family(
        [atoms[0], f_or(f_and(atoms[1], atoms[2]), f_not(atoms[0])), f_and(atoms[2], f_not(atoms[1]))],
        2, 1,
    )
    lines = []
    for f in atoms:
        if f[0] == "atom":
            cs = list(f[1].coeffs) + [0] * 3
            lines += [(F(cs[0]), F(cs[1]), cs[2] * b[0] + f[1].const) for b in B]
    return fam, B, _plane_probes(draw, lines)


@st.composite
def _plane_vector_linear_instances(draw):
    B = [(b,) for b in dict.fromkeys(draw(st.lists(_rat, min_size=1, max_size=3)))]
    atoms, lines = [], []
    for _ in range(2):
        f = AffineMap.of([draw(_small), draw(st.sampled_from([1, -2, F(1, 2)]))], draw(_rat))
        g = AffineMap.of([draw(_small)], draw(_rat))
        atoms += vl_trichotomy(f, g)
        lines += [(f.coeffs[0], f.coeffs[1], f.const + g(b)) for b in B]
    fam = vector_linear_family(atoms, 2, 1)
    return fam, B, _plane_probes(draw, lines)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_plane_semilinear_instances())
def test_plane_semilinear_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_plane_vector_linear_instances())
def test_plane_vector_linear_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]


@st.composite
def _interval_instances(draw):
    """Components that move with b, with open or closed ends, probed at
    every endpoint, between endpoints and far out."""
    shapes = draw(st.lists(
        st.tuples(_rat, st.integers(0, 4), st.booleans(), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ))

    def comps(b, shapes=shapes):
        out = []
        for lo, w, lo_open, hi_open, ray in shapes:
            lo = lo + b[0]
            if ray:
                out.append(Iv(lo, lo_open, None, True))
            else:
                out.append(Iv(lo, lo_open and w > 0, lo + w, hi_open and w > 0))
        return out

    fam = interval_family([(comps, None), (lambda b: [Iv(None, True, -b[0], False)], 1)], 1)
    B = [(b,) for b in dict.fromkeys(draw(st.lists(_rat, min_size=1, max_size=3)))]
    ends = sorted({v for b in B for pred in fam.preds for iv in pred[0](b)
                   for v in (iv.lo, iv.hi) if v is not None})
    mids = [(u + v) / 2 for u, v in zip(ends, ends[1:])]
    xs = sorted({(v,) for v in ends + mids + [ends[0] - 1, ends[-1] + 1]})
    return fam, B, xs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_interval_instances())
def test_interval_masks_match_truth_mask(instance):
    fam, B, xs = instance
    assert fast_truth_masks(fam, B, xs) == [fam.truth_mask(a, B) for a in xs]
