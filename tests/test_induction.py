from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import Phase, given, settings, strategies as st

from distalcells import induction
from distalcells.decomp import Decomposition, verify
from distalcells.families import semilinear_family
from distalcells.induction import (
    _drop_first_var,
    _empty,
    _shift_y_block,
    _subst_var,
    derive_family,
    fiber_sources,
    induct,
    plane_probes,
)
from distalcells.linear import (
    components_1d,
    conj_satisfiable,
    eval_formula,
    f_and,
    f_atom,
    f_not,
    f_or,
    formula_atoms,
)
from distalcells.rng import SplitMix64
from test_plane_cells import _instances as plane_instances


def _two_halfplanes():
    # x1 < y1 and x2 < y2 over points (x1, x2), parameters (y1, y2)
    return semilinear_family(
        [f_atom([1, 0, -1, 0], 0, "<"), f_atom([0, 1, 0, -1], 0, "<")], 2, 2
    )


def test_fiber_sources_halfline():
    fam = _two_halfplanes()
    sources = fiber_sources(fam)
    # pred 0 is convex in x1 (single component, two flavors); same for pred 1
    assert {(s.pred, s.comp, s.flavor) for s in sources} == {
        (0, 0, "<="), (0, 0, "<"), (1, 0, "<="), (1, 0, "<"),
    }
    leq = next(s for s in sources if s.pred == 0 and s.flavor == "<=")
    # closure of (-inf, y1) is (-inf, y1): holds iff x1 < y1
    for x1, y1, expect in [(0, 1, True), (1, 1, False), (2, 1, False)]:
        assert eval_formula(leq.formula, [F(x1), F(9), F(y1), F(7)]) is expect


def test_fiber_sources_keep_both_components():
    # the fiber of x1 < y1 or x1 > y1 + 1 has two components, and both are
    # kept
    fam = semilinear_family(
        [f_or(f_atom([1, 0, -1], 0, "<"), f_atom([1, 0, -1], -1, ">"))], 2, 1
    )
    assert {s.comp for s in fiber_sources(fam)} == {0, 1}


def test_fiber_sources_decide_empty_components_exactly():
    # at the second level of this 3-D family, predicate 3's formula for a
    # component of index 2 or more has a DNF past dnf_simplify's limit
    # (1,962 conjuncts), and it is empty: the count stops at 2
    fam = semilinear_family(
        [f_atom([1, -1, 0, 1, 0], 0, "<"), f_atom([0, 1, -1, 0, 1], 0, "<")], 3, 2
    )
    sources = fiber_sources(derive_family(fam)[18].family)
    assert [(s.pred, s.comp) for s in sources[::2]] == [
        (0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1),
    ]


def test_empty_past_its_limit_is_loud(monkeypatch):
    monkeypatch.setattr(induction, "_EMPTY_LIMIT", 4)
    x_or = [f_or(f_atom([1, 0], k, "<"), f_atom([0, 1], k, "<")) for k in range(3)]
    with pytest.raises(ValueError, match="emptiness undecided"):
        _empty(f_and(*x_or), conj_satisfiable)


def test_derived_predicate_halfline_fiber():
    # forall x1 < y1^A: x1 < y1^C  <=>  y1^A <= y1^C
    fam = _two_halfplanes()
    derived = derive_family(fam)
    df = next(
        d for d in derived
        if d.template.up is not None and d.template.dn is None
        and d.template.up.pred == 0 and d.template.up.flavor == "<="
    )
    allpos_phi0 = 1  # preds: [theta*, allpos_0, allneg_0, allpos_1, allneg_1]
    for a_y1, c_y1, expect in [(0, 1, True), (1, 1, True), (2, 1, False)]:
        bA = (F(a_y1), F(0))
        bB = (F(5), F(5))
        bC = (F(c_y1), F(3))
        assert df.family.evaluate(allpos_phi0, (F(0),), bA + bB + bC) is expect, (a_y1, c_y1)


def test_derived_predicate_x1_free():
    # phi = x2 < y2 is x1-free: on the full-line template, allpos equals phi
    fam = _two_halfplanes()
    derived = derive_family(fam)
    df = next(d for d in derived if d.template.ident == "[line]")
    allpos_phi1 = 3
    for x2, y2 in [(0, 1), (1, 0), (3, 3)]:
        got = df.family.evaluate(allpos_phi1, (F(x2),), (F(0), F(0)) * 2 + (F(9), F(y2)))
        assert got is (x2 < y2)


def test_derived_predicate_empty_fiber_vacuous():
    # template [S \ S] with the same source twice has empty fibers: the
    # universal statements hold vacuously
    fam = _two_halfplanes()
    derived = derive_family(fam)
    df = next(
        d for d in derived
        if d.template.up is not None and d.template.dn is not None
        and d.template.up == d.template.dn
    )
    b = (F(0), F(0))
    assert df.family.evaluate(1, (F(5),), b + b + b) is True
    assert df.family.evaluate(2, (F(5),), b + b + b) is True


def test_induct_d2_verify_canonical_example():
    fam = _two_halfplanes()
    decomp = induct(fam)
    B = [(F(0), F(0)), (F(1), F(1))]
    probes = plane_probes(fam, B, steps=20)
    rep = verify(decomp, fam, B, probes=probes)
    assert rep.covered, rep.first_uncovered
    assert rep.uncrossed, rep.crossing_witness
    assert rep.census_lower_bound >= 9
    assert rep.cell_count_deduped >= rep.census_lower_bound


def test_induct_singleton_B():
    fam = _two_halfplanes()
    decomp = induct(fam)
    B = [(F(0), F(0))]
    rep = verify(decomp, fam, B, probes=plane_probes(fam, B, steps=12))
    assert rep.passed
    assert rep.census_lower_bound >= 4


def _groups(df, B):
    """The groups (b1, b2) of one template, in the engine's order."""
    if df.template.arity == 2:
        return [(b1, b2) for b1 in B for b2 in B]
    if df.template.arity == 1:
        return [(b, b) for b in B]
    return [(B[0], B[0])]


@pytest.mark.parametrize("label", ["pattern-7", "found-3"])
def test_base_instantiated_only_for_groups_that_keep_a_cylinder(monkeypatch, label):
    # a planar group (template, b1, b2) that keeps no cylinder has its base
    # decomposition skipped: the bases instantiated are exactly those of the
    # groups named by the emitted cells, in emission order
    _, fam, B, _ = next(i for i in plane_instances() if i[0] == label)
    decomp = induct(fam)
    total = sum(len(_groups(df, B)) for df in derive_family(fam))
    calls = []
    instantiate = Decomposition.instantiate

    def wrapped(self, params):
        if self is not decomp:
            calls.append(list(params))
        return instantiate(self, params)

    monkeypatch.setattr(Decomposition, "instantiate", wrapped)
    cells = decomp.instantiate(B)
    groups = dict.fromkeys(c.extent_key[:3] for c in cells)
    want = [[b1 + b2 + b for b in B] for _, b1, b2 in groups]
    assert calls == want
    assert 0 < len(want) < total  # some groups are skipped, some are not


def _unfiltered_keys(fam, B) -> list:
    """The extent keys of the cylinders kept by the per-cell rule, with every
    group's base instantiated: a base cell is kept when the template's fiber
    is inhabited at its sample and theta* holds there at no b of B, read by
    Fraction evaluation."""
    B = [tuple(map(F, b)) for b in B]
    keys = []
    for ti, df in enumerate(derive_family(fam)):
        base = induct(df.family)
        for b1, b2 in _groups(df, B):
            for cell in base.instantiate([b1 + b2 + b for b in B]):
                r = cell.region
                sample = r.sample if isinstance(r, induction._Region) else (r.sample(),)
                if not components_1d(df.template.formula, 0, [F(0), *sample, *b1, *b2]):
                    continue
                theta = df.family.preds[0]
                if any(eval_formula(theta, [*sample, *b1, *b2, *b]) for b in B):
                    continue
                keys.append((ti, b1, b2, cell.extent_key))
    return keys


_small = st.builds(F, st.integers(-4, 4), st.integers(1, 2))


@st.composite
def _planar_families(draw):
    """2 or 3 atoms a1 x1 + a2 x2 + c1 y1 + c2 y2 + k REL 0, each one
    predicate, and 1 to 3 distinct parameters in Q^2."""
    atoms = []
    for _ in range(draw(st.integers(2, 3))):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(4)]
        if not any(coeffs[:2]):
            coeffs[draw(st.integers(0, 1))] = 1
        rel = draw(st.sampled_from(["<", "<=", ">", ">=", "="]))
        atoms.append(f_atom(coeffs, draw(_small), rel))
    B = draw(st.lists(st.tuples(_small, _small), min_size=1, max_size=3, unique=True))
    return semilinear_family(atoms, 2, 2), B


# no shrinking: each example instantiates every group's base twice, so a
# failing example is reported as drawn
@settings(max_examples=25, deadline=None, derandomize=True, phases=[Phase.generate])
@given(case=_planar_families())
def test_keep_set_matches_per_cell_rule(case):
    fam, B = case
    assert [c.extent_key for c in induct(fam).instantiate(B)] == _unfiltered_keys(fam, B)


def test_keep_set_matches_per_cell_rule_d3():
    fam = semilinear_family([f_atom([1, 1, 1, -1], 0, "<")], 3, 1)
    B = [(F(0),), (F(1),)]
    assert [c.extent_key for c in induct(fam).instantiate(B)] == _unfiltered_keys(fam, B)


def test_two_piece_shadow_keeps_both_pieces():
    # x1 < y1 and (x2 < y2 or x2 > y2 + 1): the fibers over x2 are inhabited
    # on two pieces, and the cylinders over the second are kept
    fam = semilinear_family(
        [f_and(f_atom([1, 0, -1, 0], 0, "<"),
               f_or(f_atom([0, 1, 0, -1], 0, "<"), f_atom([0, 1, 0, -1], -1, ">")))],
        2, 2,
    )
    B = [(F(0), F(0)), (F(1), F(3))]
    rep = verify(induct(fam), fam, B, probes=plane_probes(fam, B, steps=12))
    assert rep.passed, rep.to_dict()


def test_exponent_budget():
    fam = _two_halfplanes()
    decomp = induct(fam)
    B = [(F(0), F(0)), (F(1), F(2)), (F(-1), F(1))]
    cells = decomp.instantiate(B)
    n_sources = 4
    n_templates = n_sources * n_sources + 2 * n_sources + 1
    n_derived = 1 + 2 * len(fam)
    per_base = 2 * n_derived * len(B) + 1
    assert len(cells) <= n_templates * len(B) ** 2 * per_base


def test_fiber_consistency_random():
    # for random (cell, base point, parameter): the fiber of the cell at that
    # base point is never crossed by any phi(., a'; b) -- checked exactly by
    # endpoint analysis of the probe column
    fam = _two_halfplanes()
    decomp = induct(fam)
    rng = SplitMix64(424242)
    B = [(F(0), F(0)), (F(1), F(1)), (F(-1), F(2))]
    cells = decomp.instantiate(B)
    probes = plane_probes(fam, B, steps=8)
    members = decomp.locator_fn(cells)(probes)
    held = {p: {ci for ci, m in enumerate(members) if m >> k & 1} for k, p in enumerate(probes)}
    by_base: dict = {}
    for p in probes:
        by_base.setdefault(p[1], []).append(p)
    base_vals = sorted(by_base)
    checked = 0
    order = list(range(len(cells) * len(base_vals)))
    for i in range(len(order) - 1, 0, -1):  # Fisher-Yates
        j = rng.randint(0, i)
        order[i], order[j] = order[j], order[i]
    for k in order:
        if checked >= 500:
            break
        ci = k % len(cells)
        a2 = base_vals[k // len(cells)]
        column = [p for p in by_base[a2] if ci in held[p]]
        if len(column) < 2:
            continue
        checked += 1
        for pi in range(len(fam)):
            for b in B:
                vals = {fam.evaluate(pi, p, b) for p in column}
                assert len(vals) == 1
    assert checked >= 50


def test_induct_d3_smoke():
    # one predicate through all three coordinates: x1 + x2 + x3 < y
    fam = semilinear_family([f_atom([1, 1, 1, -1], 0, "<")], 3, 1)
    decomp = induct(fam)
    B = [F(0), F(1)]
    cells = decomp.instantiate(B)
    assert len(cells) == 149
    vals = [F(-1), F(0), F(1, 4), F(1, 2), F(1)]
    probes = [(a, b, c) for a in vals for b in vals for c in vals]
    rep = verify(decomp, fam, B, probes=probes)
    assert rep.covered and rep.uncrossed
    assert rep.census_lower_bound >= 3  # below 0, between, above 1


_rats = st.builds(F, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def _formulas(draw, nvars: int, free_first: bool = False):
    """A random and/or/not formula over nvars variables with rational
    coefficients; with free_first, variable 0 occurs in no atom."""

    def build(depth):
        if depth == 0:
            coeffs = [draw(_rats) for _ in range(nvars)]
            if free_first:
                coeffs[0] = F(0)
            rel = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
            return f_atom(coeffs, draw(_rats), rel)
        kind = draw(st.sampled_from(["and", "or", "not"]))
        if kind == "not":
            return f_not(build(depth - 1))
        sub = [build(depth - 1) for _ in range(2)]
        return f_and(*sub) if kind == "and" else f_or(*sub)

    return build(draw(st.integers(0, 2)))


def _holds_somewhere(f) -> bool:
    """Brute force over Q^2, sharing nothing with `_empty` but the Fraction
    evaluation: every face, edge and vertex of the atoms' line arrangement
    holds a sample.  The xs are each vertex and vertical line, a point
    between each two and one beyond each end (the roots in y keep their
    order between two of them), and over each x the same in y."""
    rows = [(*(tuple(a.coeffs) + (0, 0))[:2], F(a.const)) for a in formula_atoms(f)]

    def around(vals):
        vals = sorted(set(vals))
        if not vals:
            return [F(0)]
        return vals + [(u + v) / 2 for u, v in zip(vals, vals[1:])] + [vals[0] - 1, vals[-1] + 1]

    xs = [-c / a0 for a0, a1, c in rows if a0 and not a1]
    for (a0, a1, c), (b0, b1, d) in combinations(rows, 2):
        det = a0 * b1 - a1 * b0
        if det:
            xs.append((a1 * d - b1 * c) / det)
    return any(
        eval_formula(f, [x, y])
        for x in around(xs)
        for y in around([-(a0 * x + c) / a1 for a0, a1, c in rows if a1])
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=_formulas(2), g=_formulas(2))
def test_empty_matches_brute_force(f, g):
    h = f_and(f, g)
    assert _empty(h, conj_satisfiable) is not _holds_somewhere(h)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f=_formulas(4),
    var=st.integers(0, 3),
    target=st.integers(0, 5),
    point=st.lists(_rats, min_size=6, max_size=6),
)
def test_subst_var_preserves_truth(f, var, target, point):
    moved = list(point)
    moved[var] = point[target]
    assert eval_formula(_subst_var(f, var, target), point) == eval_formula(f, moved)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    data=st.data(),
    d=st.integers(1, 2),
    e=st.integers(1, 2),
    block=st.integers(0, 2),
)
def test_shift_y_block_preserves_truth(data, d, e, block):
    # the shifted formula reads the parameter block [d + block*e, d + (block+1)*e)
    f = data.draw(_formulas(d + e))
    point = data.draw(st.lists(_rats, min_size=d + 3 * e, max_size=d + 3 * e))
    src = [point[i] if i < d else point[i + block * e] for i in range(d + e)]
    assert eval_formula(_shift_y_block(f, d, e, block), point) == eval_formula(f, src)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f=_formulas(4, free_first=True),
    x0=_rats,
    point=st.lists(_rats, min_size=3, max_size=3),
)
def test_drop_first_var_preserves_truth(f, x0, point):
    assert eval_formula(_drop_first_var(f), point) == eval_formula(f, [x0] + point)


def test_plane_probes_stay_rational_without_parameters():
    # canonical atoms hold ints; with no parameter the line constants are
    # ints too, and an int / int division would turn a probe into a float
    fam = semilinear_family([f_atom([1, 1], 0, "<"), f_atom([1, -1], 1, "<")], 2, 0)
    probes = plane_probes(fam, [()], steps=2)
    assert (F(-1, 2), F(1, 2)) in probes  # the two lines cross there
    assert all(type(v) is F for p in probes for v in p)


def _plane_probes_reference(family, B, steps):
    """`plane_probes` as it was written on Fractions: every grid point a
    product, every neighbor a sum, the set sorted as Fraction tuples."""
    lines = []
    vals = [F(0)]
    for f in family.preds:
        for atom in formula_atoms(f):
            for b in B:
                cs = list(atom.coeffs) + [0] * (2 + len(b) - len(atom.coeffs))
                c = sum((ci * bi for ci, bi in zip(cs[2:], b)), F(atom.const))
                if cs[0] or cs[1]:
                    lines.append((cs[0], cs[1], c))
    for b in B:
        vals.extend(b)
    delta = F(1, 101)
    pts = set()
    for i in range(len(lines)):
        a1, a2, c = lines[i]
        if a2 != 0:
            for x1 in (F(0), F(1)):
                pts.add((x1, (-c - a1 * x1) / a2))
        if a1 != 0:
            for x2 in (F(0), F(1)):
                pts.add(((-c - a2 * x2) / a1, x2))
        for j in range(i + 1, len(lines)):
            b1, b2, cc = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x1 = (-c * b2 + cc * a2) / det
            x2 = (-a1 * cc + b1 * c) / det
            for dx in (-delta, F(0), delta):
                for dy in (-delta, F(0), delta):
                    pts.add((x1 + dx, x2 + dy))
    lo, hi = min(vals) - 2, max(vals) + 2
    for i in range(steps + 1):
        x1 = lo + (hi - lo) * F(i, steps)
        for j in range(steps + 1):
            pts.add((x1, lo + (hi - lo) * F(j, steps)))
    return sorted(pts)


def _coefficient_patterns():
    """(family, B) for each of the 54 coefficient patterns a1 x1 + a2 x2 +
    s y1 REL c of the two-atom planar family with x2 < y2, at seeded c and
    B of two parameters."""
    rng = SplitMix64(2801)
    for a1 in (1, 2, -1):
        for a2 in (0, 1, -1):
            for s in (-1, 1):
                for rel in ("<", "<=", ">"):
                    fam = semilinear_family(
                        [f_atom([a1, a2, s, 0], rng.fraction(3, 2), rel),
                         f_atom([0, 1, 0, -1], 0, "<")], 2, 2,
                    )
                    B = []
                    while len(B) < 2:
                        b = (rng.fraction(5, 2), rng.fraction(5, 2))
                        if b not in B:
                            B.append(b)
                    yield fam, B


_probe_coeff = st.integers(-3, 3)


@st.composite
def _probe_families(draw):
    """A planar semilinear family of 1 to 3 atoms with 0 to 2 parameters,
    and 1 to 3 parameters in Q^e."""
    e = draw(st.integers(0, 2))
    atoms = [
        f_atom([draw(_probe_coeff) for _ in range(2 + e)], draw(_rats), draw(st.sampled_from(["<", "<=", "="])))
        for _ in range(draw(st.integers(1, 3)))
    ]
    B = draw(st.lists(st.tuples(*[_rats] * e), min_size=1, max_size=3, unique=True))
    return semilinear_family(atoms, 2, e), B


def test_plane_probes_match_fraction_reference():
    # the same list, element for element, as the Fraction construction
    for fam, B in _coefficient_patterns():
        assert plane_probes(fam, B, steps=16) == _plane_probes_reference(fam, B, 16), B
    found = [(fam, B) for label, fam, B, _ in plane_instances() if label.startswith("found")]
    for (fam, B), steps in zip(found * 3, (8, 8, 16, 16, 40, 40)):
        assert plane_probes(fam, B, steps=steps) == _plane_probes_reference(fam, B, steps)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_probe_families(), steps=st.sampled_from([8, 16, 40]))
def test_plane_probes_match_fraction_reference_on_random_families(case, steps):
    fam, B = case
    assert plane_probes(fam, B, steps=steps) == _plane_probes_reference(fam, B, steps)
