from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from distalcells.incidence import (
    BipartiteInstance,
    BoundProfile,
    GridInstance,
    Line,
    _line_masks,
    certify_lines_pairwise_distinct,
    contains_ksu,
    elekes_grid_instance,
    line_edge,
    sum_bb_experiment,
    sum_product_experiment,
    zarankiewicz_check,
    zarankiewicz_sweep,
)
from distalcells.rng import SplitMix64


def test_contains_k11_single_edge():
    inst = BipartiteInstance([1], ["a"], lambda p, q: True)
    found, witness = contains_ksu(inst, 1, 1)
    assert found and witness == ([1], ["a"])


def test_contains_k22_all_edges():
    inst = BipartiteInstance([1, 2, 3], ["a", "b", "c"], lambda p, q: True)
    found, witness = contains_ksu(inst, 2, 2)
    assert found
    ps, qs = witness
    assert len(ps) == 2 and len(qs) == 2


def test_point_line_k22_free():
    # distinct lines through a small grid: no two points on two common lines
    lines = [Line(F(i), F(s)) for i in range(3) for s in (1, 2)]
    assert certify_lines_pairwise_distinct(lines)
    pts = [(F(x), F(y)) for x in range(-2, 3) for y in range(-2, 3)]
    inst = BipartiteInstance(pts, lines, line_edge)
    found, _ = contains_ksu(inst, 2, 2)
    assert not found


def _grid_points(grid):
    return [(F(x), F(y)) for x in range(1, grid.width + 1) for y in range(1, grid.height + 1)]


def test_point_line_k22_on_a_repeated_line():
    # a line listed twice shares its grid points, two of them at width 2
    grid = elekes_grid_instance(32)
    lines = grid.lines + [grid.lines[5]]
    assert not certify_lines_pairwise_distinct(lines)
    found, witness = contains_ksu(BipartiteInstance(_grid_points(grid), lines, line_edge), 2, 2)
    assert found
    ps, qs = witness
    assert len(ps) == 2 and len(qs) == 2
    assert all(q.through(*p) for p in ps for q in qs)


def test_contains_ksu_guard():
    inst = BipartiteInstance(list(range(2001)), [0], lambda p, q: False)
    with pytest.raises(ValueError):
        contains_ksu(inst, 2, 2)


def test_contains_ksu_permutation_invariance():
    rng = SplitMix64(8)
    P = list(range(8))
    Q = list(range(6))
    edges = {(p, q) for p in P for q in Q if rng.randint(0, 2) == 0}
    inst1 = BipartiteInstance(P, Q, lambda p, q: (p, q) in edges)
    P2, Q2 = P[::-1], Q[::-1]
    inst2 = BipartiteInstance(P2, Q2, lambda p, q: (p, q) in edges)
    for s, u in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        assert contains_ksu(inst1, s, u)[0] == contains_ksu(inst2, s, u)[0]


def test_bound_profile_exponents():
    prof = BoundProfile(2, 2, F(2))
    assert prof.q == F(2, 3) and prof.r == F(2, 3)
    prof32 = BoundProfile(3, 2, F(2))
    assert prof32.q == F(3, 5) and prof32.r == F(4, 5)


def test_grid_instance_exact_counts():
    inst = elekes_grid_instance(64)
    # every line threads the full grid width
    assert inst.count_incidences() == 64 * inst.width
    assert inst.n_points == inst.width * inst.height


def test_zarankiewicz_trivial_cases():
    prof = BoundProfile(2, 2, F(2))
    inst = elekes_grid_instance(16)
    row = zarankiewicz_check(inst, prof)
    assert row.edges >= 0
    assert row.ratio <= 1.0  # far below the envelope at this size


def test_zarankiewicz_sweep_bounded():
    rows, bounded = zarankiewicz_sweep([64, 128, 256, 512])
    assert bounded
    assert [r.n for r in rows] == [64, 128, 256, 512]
    assert all(r.edges == r.n * (r.n // 16) for r in rows)


def test_sum_product_small_example():
    rep = sum_product_experiment([F(1), F(2)])
    assert rep.sumset == 3 and rep.productset == 3  # {2,3,4}, {1,2,4}
    assert rep.incidences >= 8


def test_sum_product_singleton_zero():
    rep = sum_product_experiment([F(0)])
    assert rep.sumset == rep.productset == rep.max_size == 1


def test_sum_product_124():
    rep = sum_product_experiment([F(1), F(2), F(4)])
    assert rep.sumset == 6 and rep.productset == 5
    assert rep.max_size == 6
    assert rep.incidences >= 27


def test_sum_bb_zero_a():
    rep = sum_bb_experiment([F(0)], [F(1), F(2)])
    assert rep.sum_bb == 3  # {1, 2, 4}
    assert rep.incidences == rep.expected == 4


def test_sum_bb_single_line():
    rep = sum_bb_experiment([F(1)], [F(1)])
    assert rep.incidences == rep.expected == 1


def test_sum_bb_exact_identity_random():
    rng = SplitMix64(99)
    for _ in range(10):
        A = sorted({F(rng.randint(-30, 30), rng.choice([1, 2, 3])) for _ in range(10)})
        B = sorted({F(rng.randint(-30, 30), rng.choice([1, 2])) for _ in range(10)})
        if not A or not B:
            continue
        rep = sum_bb_experiment(A, B)
        assert rep.incidences == rep.expected


# -- differential: the scaled-int counters against plain Fraction oracles ------

_rats = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 9]))
_rat_sets = st.lists(_rats, min_size=1, max_size=8)


def _oracle_sum_product(A):
    A = set(A)
    sums = {a + b for a in A for b in A}
    prods = {a * b for a in A for b in A}
    count = sum(1 for a in A for b in A for x1 in sums if b * (x1 - a) in prods)
    return len(A), len(sums), len(prods), count


def _oracle_sum_bb(A, B):
    A, B = set(A), set(B)
    target = {a + b1 * b2 for a in A for b1 in B for b2 in B}
    count = sum(1 for a in A for b in B for x1 in B if a + b * x1 in target)
    return len(target), count


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rat_sets)
@example([F(0)])
@example([F(-7, 9)])
@example([F(0), F(-3, 2), F(5, 3), F(1, 5), F(-4, 9), F(2)])
def test_sum_product_matches_fraction_oracle(A):
    rep = sum_product_experiment(A)
    assert (rep.size, rep.sumset, rep.productset, rep.incidences) == _oracle_sum_product(A)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rat_sets, _rat_sets)
@example([F(0)], [F(-1, 3)])
@example([F(-2, 5), F(0), F(7, 9)], [F(1, 2), F(-3), F(0), F(4, 3)])
def test_sum_bb_matches_fraction_oracle(A, B):
    assume(set(A) != {0} or set(B) != {0})
    rep = sum_bb_experiment(A, B)
    assert (rep.sum_bb, rep.incidences) == _oracle_sum_bb(A, B)
    assert rep.incidences == rep.expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(_rats, _rats), min_size=1, max_size=6),
    st.integers(1, 6), st.integers(1, 12),
)
@example([(F(-1, 2), F(3, 2)), (F(2, 3), F(-9, 5)), (F(0), F(1, 9))], 4, 8)
def test_grid_count_matches_fraction_oracle(params, width, height):
    lines = [Line(y1, y2) for y1, y2 in params]
    want = 0
    for ln in lines:
        for x in range(1, width + 1):
            y = ln.y2 * (x - ln.y1)
            if y.denominator == 1 and 1 <= y <= height:
                want += 1
    grid = GridInstance(len(lines), width, height, lines)
    assert grid.count_incidences() == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rats, _rats, _rats, _rats, st.booleans())
@example(F(1, 2), F(-3, 5), F(7, 9), F(0), True)
def test_line_through_matches_fraction_oracle(y1, y2, x1, x2, on_line):
    if on_line:
        x2 = y2 * (x1 - y1)
    assert Line(y1, y2).through(x1, x2) == (y2 * (x1 - y1) == x2)


# -- point-line neighborhoods: the lookup against the pairwise line_edge test --

_coords = st.one_of(st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])))


@st.composite
def _points_and_lines(draw):
    """Lines and points, about half of the points drawn on a line, with
    repeats of both and int and Fraction coordinates mixed."""
    lines = draw(st.lists(st.builds(Line, _coords, _coords), max_size=6))
    lines += draw(st.lists(st.sampled_from(lines), max_size=2)) if lines else []
    points = []
    for _ in range(draw(st.integers(0, 10))):
        x1 = draw(_coords)
        if lines and draw(st.booleans()):
            ln = draw(st.sampled_from(lines))
            points.append((x1, ln.y2 * (x1 - ln.y1)))
        else:
            points.append((x1, draw(_coords)))
    points += draw(st.lists(st.sampled_from(points), max_size=3)) if points else []
    return points, lines


_grid64 = elekes_grid_instance(64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_points_and_lines())
@example(([], [Line(F(1), F(2))]))
@example(([(F(1), F(2)), (2, 0)], []))
@example(([(F(1), F(0)), (2, 0), (F(2), 0), (F(-1, 2), F(0))], [Line(F(1), F(0)), Line(3, 0)]))
@example(([(F(1, 2), 0), (F(1, 2), F(0)), (3, F(5, 2))], [Line(F(1, 2), F(5)), Line(F(1, 2), F(5)), Line(0, F(5, 6))]))
@example((_grid_points(_grid64), _grid64.lines))
def test_line_masks_match_pairwise_test(case):
    points, lines = case
    pairwise = [sum(1 << j for j, ln in enumerate(lines) if line_edge(p, ln)) for p in points]
    assert _line_masks(points, lines) == pairwise
    by_lookup = BipartiteInstance(points, lines, line_edge)
    by_pairs = BipartiteInstance(points, lines, lambda p, q: line_edge(p, q))
    for s, u in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
        assert contains_ksu(by_lookup, s, u) == contains_ksu(by_pairs, s, u)
