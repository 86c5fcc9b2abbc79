from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.scalars import (
    INF,
    in_pn,
    in_qmn,
    pn_coset_representatives,
    qmn_coset_representatives,
    same_pn_coset,
    unit_residue,
    valuation,
)


VALUATION_CASES = [
    (3, F(18), 2),  # 18 = 2 * 3^2
    (3, F(0), INF),
    (3, F(18, 5), 2),  # denominator coprime to 3
    (5, F(7, 25), -2),
    (3, F(-27), 3),
]


# ids name the expected level by position, like the rational a, so the case
# names do not depend on how a level prints
@pytest.mark.parametrize(
    "p,a,expected", VALUATION_CASES,
    ids=[f"{p}-a{i}-expected{i}" for i, (p, _, _) in enumerate(VALUATION_CASES)],
)
def test_valuation_examples(p, a, expected):
    assert valuation(a, p) == expected


@pytest.mark.parametrize(
    "p,a,k,expected",
    [
        (3, F(18), 1, 2),   # unit part of 18 is 2
        (3, F(9), 1, 1),    # unit part of 9 is 1
        (5, F(7, 3), 2, 19),  # oracle below confirms
    ],
)
def test_unit_residue_examples(p, a, k, expected):
    assert unit_residue(a, p, k) == expected


def test_unit_residue_oracle_7_over_3_mod_25():
    # independent oracle: solve 3x = 7 mod 25 by exhaustive search
    sols = [x for x in range(25) if (3 * x - 7) % 25 == 0]
    assert sols == [19]
    assert unit_residue(F(7, 3), 5, 2) == 19


def test_unit_residue_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        unit_residue(F(0), 3, 1)


@pytest.mark.parametrize(
    "p,a,lam,m,n,expected",
    [
        (3, F(9), F(1), 2, 1, True),    # 9 = 3^2 * 1
        (3, F(3), F(1), 2, 1, False),   # v = 1 not divisible by 2
        (3, F(18), F(1), 2, 1, False),  # unit 2 != 1 mod 3
        (3, F(0), F(0), 2, 1, True),
        (3, F(0), F(1), 2, 1, False),
    ],
)
def test_in_qmn_examples(p, a, lam, m, n, expected):
    assert in_qmn(a, lam, m, n, p) is expected


@pytest.mark.parametrize(
    "p,a,n,expected",
    [
        (3, F(4), 2, True),    # 4 = 2^2
        (3, F(2), 2, False),   # 2 is not a QR mod 3
        (3, F(12), 2, False),  # v(12) = 1 odd
        (3, F(0), 2, True),
        (3, F(28), 2, True),
    ],
)
def test_in_pn_examples(p, a, n, expected):
    assert in_pn(a, n, p) is expected


def _rationals(max_num=60, max_den=12):
    return st.builds(
        F,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


@settings(max_examples=300, deadline=None)
@given(a=_rationals(), b=_rationals(), p=st.sampled_from([3, 5, 7]))
def test_ultrametric_inequality(a, b, p):
    va, vb, vs = valuation(a, p), valuation(b, p), valuation(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


@settings(max_examples=300, deadline=None)
@given(a=_rationals(), b=_rationals(), p=st.sampled_from([3, 5]))
def test_valuation_multiplicative(a, b, p):
    if a == 0 or b == 0:
        assert valuation(a * b, p) == INF
    else:
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


@settings(max_examples=200, deadline=None)
@given(
    a=_rationals(), b=_rationals(),
    p=st.sampled_from([3, 5]),
    m=st.sampled_from([2, 3]),
    n=st.sampled_from([2, 3]),
)
def test_qmn_multiplicatively_closed(a, b, p, m, n):
    if a != 0 and b != 0 and in_qmn(a, 1, m, n, p) and in_qmn(b, 1, m, n, p):
        assert in_qmn(a * b, 1, m, n, p)


@settings(max_examples=200, deadline=None)
@given(b=_rationals(), n=st.sampled_from([2, 3]), p=st.sampled_from([3, 5]))
def test_nth_powers_are_in_pn(b, n, p):
    if b != 0:
        assert in_pn(b ** n, n, p)


def test_pn_root_exists_when_accepted():
    # when in_pn accepts a unit, an explicit residue root exists at the
    # Hensel precision by exhaustive search
    for p, n in [(3, 2), (3, 3), (5, 2), (5, 3)]:
        k = 2 * (1 if n == p else 0) + 1
        mod = p ** k
        for a in range(1, 40):
            if a % p == 0:
                continue
            if in_pn(F(a), n, p):
                assert any(pow(x, n, mod) == a % mod for x in range(1, mod))


def test_coset_representative_counts():
    # index of P_n^x in Q_p^x for p odd, p not dividing n, is 2n at n=2
    assert len(pn_coset_representatives(2, 3)) == 4
    assert len(pn_coset_representatives(2, 5)) == 4
    # index of Q_{m,n}: m * p^(n-1) * (p-1)
    assert len(qmn_coset_representatives(2, 1, 3)) == 2 * 2
    assert len(qmn_coset_representatives(1, 2, 3)) == 6


def test_qmn_representatives_cover_distinct_cosets():
    reps = qmn_coset_representatives(2, 1, 3)
    for i, r in enumerate(reps):
        for s in reps[i + 1:]:
            assert not in_qmn(r / s, 1, 2, 1, 3)


def test_same_pn_coset_consistency():
    reps = pn_coset_representatives(2, 3)
    for i, r in enumerate(reps):
        assert same_pn_coset(r, r, 2, 3)
        for s in reps[i + 1:]:
            assert not same_pn_coset(r, s, 2, 3)
