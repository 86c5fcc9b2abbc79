import itertools
import math
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from distalcells.linear import (
    FALSE,
    Atom,
    Compiled,
    Iv,
    TRUE,
    _fm_sat,
    _subst_affine,
    components_1d,
    conj_satisfiable,
    decode,
    dnf_simplify,
    eliminate_exists,
    eval_formula,
    f_and,
    f_atom,
    fold_atom,
    f_not,
    f_or,
    iv_intersect,
    merge_adjacent,
    position,
)


def test_atom_normalization_and_eval():
    # x - y > 0 becomes -x + y < 0
    f = f_atom([1, -1], 0, ">")
    assert eval_formula(f, [F(3), F(1)])
    assert not eval_formula(f, [F(1), F(3)])
    assert not eval_formula(f, [F(1), F(1)])


_rats = st.builds(F, st.integers(-50, 50), st.integers(1, 12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(_rats, min_size=1, max_size=4),
    _rats,
    st.sampled_from(["<", "<=", "=", "!="]),
    st.lists(_rats, min_size=4, max_size=4),
)
def test_atom_value_matches_fraction_sum(coeffs, const, rel, point):
    atom = Atom(tuple(coeffs), const, rel)
    ref = const + sum((c * a for c, a in zip(coeffs, point)), F(0))
    expect = {"<": ref < 0, "<=": ref <= 0, "=": ref == 0, "!=": ref != 0}[rel]
    assert atom.eval(point) == expect


def test_boolean_simplification():
    a = f_atom([1], 0, "<")
    assert f_and() == TRUE
    assert f_or() == FALSE
    assert f_and(a, TRUE) == a
    assert f_or(a, FALSE) == a
    assert f_and(a, FALSE) == FALSE
    assert f_not(f_not(a)) == a


def test_components_simple_halfline():
    # x < y with y fixed at 2: component (-inf, 2)
    f = f_atom([1, -1], 0, "<")
    comps = components_1d(f, 0, [F(0), F(2)])
    assert comps == [Iv(None, True, F(2), True)]


def test_components_union_and_point():
    # (0 < x < 1) or x = 3
    f = f_or(
        f_and(f_atom([1], 0, ">"), f_atom([1], -1, "<")),
        f_atom([1], -3, "="),
    )
    comps = components_1d(f, 0, [F(0)])
    assert comps == [Iv(F(0), True, F(1), True), Iv(F(3), False, F(3), False)]


def test_components_adjacent_pieces_merge():
    # (x <= 1) or (x > 1): full line
    f = f_or(f_atom([1], -1, "<="), f_atom([1], -1, ">"))
    assert components_1d(f, 0, [F(0)]) == [Iv.full()]


def test_components_empty():
    f = f_and(f_atom([1], 0, "<"), f_atom([1], 0, ">"))
    assert components_1d(f, 0, [F(0)]) == []


def test_interval_algebra():
    a = Iv(F(0), False, F(2), True)   # [0, 2)
    b = Iv(F(1), True, None, True)    # (1, inf)
    c = iv_intersect(a, b)
    assert c == Iv(F(1), True, F(2), True)
    assert merge_adjacent([Iv(F(0), True, F(1), True), Iv(F(1), False, F(1), False)]) == [
        Iv(F(0), True, F(1), False)
    ]
    # over the cuts 0 < 1 < 2 the three are position ranges, and inclusion
    # is range inclusion
    cuts = [F(0), F(1), F(2)]
    ra, rb, rc = (1, 4), (4, 6), (4, 4)
    assert [decode(cuts, r) for r in (ra, rb, rc)] == [a, b, c]

    def inside(r, s):
        return s[0] <= r[0] and r[1] <= s[1]

    assert inside(rc, ra) and inside(rc, rb)
    assert not inside(ra, rb)


def test_position():
    cuts = [F(-1), F(0), F(2)]
    assert [position(cuts, F(v)) for v in (-1, 0, 2)] == [1, 3, 5]
    assert [position(cuts, v) for v in (F(-5), F(-1, 2), F(1), F(7))] == [0, 2, 4, 6]
    assert position([], F(3)) == 0
    assert decode(cuts, (0, 6)) == Iv.full()
    assert decode(cuts, (3, 3)) == Iv(F(0), False, F(0), False)


def _rand_formula(draw, nvars: int, depth: int):
    if depth == 0:
        coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in range(nvars)]
        const = draw(st.integers(min_value=-4, max_value=4))
        rel = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
        return f_atom(coeffs, const, rel)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return f_not(_rand_formula(draw, nvars, depth - 1))
    sub = [_rand_formula(draw, nvars, depth - 1) for _ in range(2)]
    return f_and(*sub) if kind == "and" else f_or(*sub)


@st.composite
def _formulas(draw):
    return _rand_formula(draw, 3, draw(st.integers(min_value=1, max_value=2)))


@settings(max_examples=120, deadline=None)
@given(f=_formulas(), y=st.integers(-5, 5), z=st.integers(-5, 5))
def test_eliminate_exists_matches_component_analysis(f, y, z):
    # oracle: exists x . f(x, y, z) iff the component list at (y, z) is nonempty
    env = [F(0), F(y), F(z)]
    elim = eliminate_exists(f, 0)
    assert eval_formula(elim, env) == bool(components_1d(f, 0, env))


@settings(max_examples=120, deadline=None)
@given(f=_formulas(), y=st.integers(-5, 5), z=st.integers(-5, 5))
def test_eliminated_formula_is_var_free(f, y, z):
    elim = eliminate_exists(f, 0)
    e1 = eval_formula(elim, [F(-99), F(y), F(z)])
    e2 = eval_formula(elim, [F(99), F(y), F(z)])
    assert e1 == e2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    f=_formulas(),
    var=st.integers(0, 2),
    coeffs=st.lists(_rats, min_size=4, max_size=4),
    const=_rats,
    point=st.lists(_rats, min_size=4, max_size=4),
)
def test_subst_affine_preserves_truth(f, var, coeffs, const, point):
    # f[vars[var] := e] holds at a iff f holds at a with a[var] replaced by e(a)
    g = _subst_affine(f, var, tuple(coeffs), const)
    moved = list(point)
    moved[var] = const + sum((c * a for c, a in zip(coeffs, point)), F(0))
    assert eval_formula(g, point) == eval_formula(f, moved)


# ---------------------------------------------------------------------------
# Integer kernel against plain Fraction references.  The references below
# evaluate atoms, find roots and run Fourier-Motzkin on Fractions with code
# of their own; they share nothing with the int paths under test.
# ---------------------------------------------------------------------------


def _ref_value(atom, point):
    return F(atom.const) + sum((F(c) * x for c, x in zip(atom.coeffs, point)), F(0))


def _ref_holds(f, point):
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "atom":
        v = _ref_value(f[1], point)
        return {"<": v < 0, "<=": v <= 0, "=": v == 0, "!=": v != 0}[f[1].rel]
    if tag == "and":
        return all(_ref_holds(g, point) for g in f[1])
    if tag == "or":
        return any(_ref_holds(g, point) for g in f[1])
    return not _ref_holds(f[1], point)


def _ref_atoms(f):
    if f[0] == "atom":
        return [f[1]]
    if f[0] in ("and", "or"):
        return [a for g in f[1] for a in _ref_atoms(g)]
    if f[0] == "not":
        return _ref_atoms(f[1])
    return []


def _ref_roots(f, var, point):
    """Sorted distinct roots in vars[var] of f's atoms at the other values."""
    roots = set()
    for a in _ref_atoms(f):
        c = F(a.coeffs[var]) if var < len(a.coeffs) else F(0)
        if c:
            rest = _ref_value(a, point[:var] + [F(0)] + point[var + 1:])
            roots.add(-rest / c)
    return sorted(roots)


def _ref_test_points(roots):
    """One point of every piece the roots cut the line into."""
    if not roots:
        return [F(0)]
    pts = [roots[0] - 1, roots[-1] + 1]
    for lo, hi in zip(roots, roots[1:]):
        pts.append((lo + hi) / 2)
    return pts + roots


_small_rats = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _kernel_formulas(draw, nvars: int = 3):
    """An and/or/not formula of 1 to 3 atoms with rational coefficients."""
    n_atoms = draw(st.integers(1, 3))
    leaves = []
    for _ in range(n_atoms):
        coeffs = [draw(_small_rats) for _ in range(nvars)]
        rel = draw(st.sampled_from(["<", "<=", "=", "!=", ">", ">="]))
        leaves.append(f_atom(coeffs, draw(_small_rats), rel))
    f = leaves[0]
    for g in leaves[1:]:
        op = draw(st.sampled_from(["and", "or"]))
        f = f_and(f, g) if op == "and" else f_or(f, g)
        if draw(st.booleans()):
            f = f_not(f)
    return f


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    coeffs=st.lists(_rats, min_size=1, max_size=4),
    const=_rats,
    rel=st.sampled_from(["<", "<=", "=", "!="]),
)
def test_canonical_atoms_hold_coprime_ints(coeffs, const, rel):
    atom = Atom.make(coeffs, const, rel)
    f = f_atom(coeffs, const, rel)
    if f in (TRUE, FALSE):
        assert not any(coeffs)
        return
    canon = f[1]
    assert all(type(c) is int for c in canon.coeffs) and type(canon.const) is int
    assert canon.coeffs[-1] != 0
    assert math.gcd(canon.const, *canon.coeffs) == 1
    # a positive multiple of the original atom
    ratios = {F(c) / a for c, a in zip(canon.coeffs + (canon.const,), atom.coeffs + (atom.const,)) if a}
    assert len(ratios) == 1 and ratios.pop() > 0
    assert all(c == 0 for c in canon.coeffs[len(coeffs):])
    assert fold_atom(canon) == ("atom", canon)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(f=_kernel_formulas(), var=st.integers(0, 2), point=st.lists(_small_rats, min_size=3, max_size=3))
def test_components_1d_matches_fraction_pieces(f, var, point):
    roots = _ref_roots(f, var, point)

    def holds(x):
        env = list(point)
        env[var] = x
        return _ref_holds(f, env)

    pieces = []  # (lo, lo_open, hi, hi_open) of every piece where f holds
    bounds = [None] + roots + [None]
    for j in range(len(roots) + 1):
        lo, hi = bounds[j], bounds[j + 1]
        sample = F(0) if lo is None and hi is None else (
            hi - 1 if lo is None else lo + 1 if hi is None else (lo + hi) / 2
        )
        if holds(sample):
            pieces.append([lo, True, hi, True])
        if hi is not None and holds(hi):
            pieces.append([hi, False, hi, False])
    merged = []
    for p in pieces:
        last = merged[-1] if merged else None
        if last and last[2] is not None and last[2] == p[0] and not (last[3] and p[1]):
            merged[-1][2:] = p[2:]
        else:
            merged.append(p)
    got = components_1d(f, var, list(point))
    assert [(iv.lo, iv.lo_open, iv.hi, iv.hi_open) for iv in got] == [tuple(p) for p in merged]
    assert all(type(iv.lo) is F for iv in got if iv.lo is not None)
    # the engines' two steps: rows at the parameter (the third variable),
    # over var and one other, then that other fixed at its own denominator
    other = (var + 1) % 3
    param = 3 - var - other
    ys, den = _scaled([point[param]])
    vals = [0, 0, 0]
    vals[param] = ys[0]
    step = Compiled.of(f).at(vals, den, (var, other))
    (n,), q = _scaled([point[other]])
    assert step.at([0, n], q, (0,)).pieces() == got
    # the point test, with the first d = var + 1 variables as the point and
    # the others as the parameter: each row at the parameter, times its
    # denominator, is the atom's value there
    d = var + 1
    compiled = Compiled.of(f)
    ys, den = _scaled(point[d:])
    at = compiled.at([0] * d + ys, den, range(d))
    for (coeffs, const, rel), (cx, s, rel_at) in zip(compiled.rows, at.rows):
        assert rel_at == rel and len(cx) == d
        value = sum(c * x for c, x in zip(cx, point)) + s
        assert value == den * _ref_value(Atom(coeffs, const, rel), point)
    xs, q = _scaled(point[:d])
    assert at.holds((*xs, q)) == _ref_holds(f, point) == eval_formula(f, point)


def _scaled(values):
    """Rationals as ints over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@settings(max_examples=300, deadline=None, derandomize=True)
@given(f=_kernel_formulas(), var=st.integers(0, 2), point=st.lists(_small_rats, min_size=3, max_size=3))
def test_eliminate_exists_matches_brute_force(f, var, point):
    # exists x . f  iff f holds at one of the test points of its own roots
    expect = False
    for x in _ref_test_points(_ref_roots(f, var, point)):
        env = list(point)
        env[var] = x
        expect = expect or _ref_holds(f, env)
    elim = eliminate_exists(f, var)
    assert all(a.coeffs[var] == 0 for a in _ref_atoms(elim) if var < len(a.coeffs))
    assert _ref_holds(elim, point) == expect
    assert _ref_holds(dnf_simplify(elim), point) == expect
    assert _ref_holds(dnf_simplify(f), point) == _ref_holds(f, point)


def _ref_fm(rows):
    """Fraction Fourier-Motzkin: is  c . x + k REL 0  for all rows satisfiable?"""
    n = max(len(cs) for cs, _, _ in rows)
    rows = [([F(c) for c in cs] + [F(0)] * (n - len(cs)), F(k), r) for cs, k, r in rows]
    while True:
        var = next((i for cs, _, _ in rows for i, c in enumerate(cs) if c), None)
        if var is None:
            return all(k < 0 if r == "<" else k <= 0 for _, k, r in rows)
        keep = [row for row in rows if row[0][var] == 0]
        lows = [row for row in rows if row[0][var] < 0]
        ups = [row for row in rows if row[0][var] > 0]
        for lc, lk, lr in lows:
            for uc, uk, ur in ups:
                a, b = -lc[var], uc[var]
                keep.append((
                    [x / a + y / b for x, y in zip(lc, uc)],
                    lk / a + uk / b,
                    "<" if "<" in (lr, ur) else "<=",
                ))
        rows = keep


# small entries, so that eliminations often end on a 0 constant, where
# strict and weak rows differ, and even coefficients, so that combined rows
# often share a factor their constant lacks
_rows = st.lists(
    st.tuples(
        st.lists(st.sampled_from([-4, -2, -1, 0, 0, 1, 2, 4]), min_size=2, max_size=3),
        st.integers(-3, 3),
        st.sampled_from(["<", "<="]),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rows=_rows)
def test_fm_sat_matches_fraction_fm(rows):
    assert _fm_sat([(list(cs), k, r) for cs, k, r in rows]) == _ref_fm(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=3, max_size=3),
            st.integers(-4, 4),
            st.sampled_from(["<", "<=", "=", "!="]),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_conj_satisfiable_matches_fraction_fm(rows):
    # reference: an equality is two weak inequalities, a disequation one of
    # two strict ones; satisfiable iff some choice passes Fraction FM
    fixed, choices = [], []
    for cs, k, rel in rows:
        neg = ([-c for c in cs], -k)
        if rel == "=":
            fixed += [(cs, k, "<="), (*neg, "<=")]
        elif rel == "!=":
            choices.append([(cs, k, "<"), (*neg, "<")])
        else:
            fixed.append((cs, k, rel))
    expect = any(_ref_fm(fixed + list(pick)) for pick in itertools.product(*choices))
    atoms = [Atom.make(cs, k, rel) for cs, k, rel in rows]
    assert conj_satisfiable(atoms) == expect
