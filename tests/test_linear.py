from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from distalcells.linear import (
    FALSE,
    Atom,
    Iv,
    TRUE,
    _subst_affine,
    components_1d,
    crosses,
    eliminate_exists,
    eval_formula,
    f_and,
    f_atom,
    f_not,
    f_or,
    iv_intersect,
    iv_subset,
    merge_adjacent,
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
    assert atom.value(point) == ref
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
    assert comps == [Iv(F(0), True, F(1), True), Iv.point(F(3))]


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
    assert iv_subset(c, a) and iv_subset(c, b)
    assert not iv_subset(a, b)
    assert merge_adjacent([Iv(F(0), True, F(1), True), Iv.point(F(1))]) == [
        Iv(F(0), True, F(1), False)
    ]


def test_crosses():
    comps = [Iv(None, True, F(0), True)]  # (-inf, 0)
    assert crosses(comps, Iv(F(-1), False, F(1), False))
    assert not crosses(comps, Iv(F(-3), False, F(-2), False))
    assert not crosses(comps, Iv(F(1), False, F(2), False))


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
