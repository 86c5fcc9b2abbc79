from collections import Counter
from fractions import Fraction as F

import pytest

from distalcells.families import laff_family, macintyre_family
from distalcells.linear import AffineMap
from distalcells.padic import laff_dcd_1d, macintyre_dcd, types_per_subinterval
from distalcells.rng import SplitMix64
from distalcells.scalars import pn_coset_representatives, qmn_coset_representatives, split_p


def _cells_per_atom(decomp, B) -> Counter:
    """Deduped cells per subinterval; within an instance the forest node
    names the atom."""
    return Counter(c.region.node for c in decomp.instantiate(B))


def _units(p: int, k: int) -> int:
    return p ** k - p ** (k - 1)


def _macintyre_count(n: int, p: int) -> int:
    """P_n cosets, plus 2 marg + 1 edge levels of units mod p^(marg + 1),
    with the margin marg = 2 v_p(n)."""
    marg = 2 * split_p(n, p)[0]
    return len(pn_coset_representatives(n, p)) + (2 * marg + 1) * _units(p, marg + 1)


def _laff_count(m: int, n: int, p: int) -> int:
    """Q_{m,n} cosets, plus 2 (marg - 1) + 1 edge levels of units mod p^marg,
    with the margin marg = n."""
    return len(qmn_coset_representatives(m, n, p)) + (2 * (n - 1) + 1) * _units(p, n)


def _params(rng: SplitMix64, p: int, size: int) -> list:
    B = []
    while len(B) < size:
        b = (F(rng.randint(-p ** 4, p ** 4), rng.choice([1, 2, p, p * p])),)
        if b not in B:
            B.append(b)
    return B


def test_types_per_subinterval_bounds_cells_per_atom():
    fam = macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1])], [AffineMap.of([1])], [1, 2],
        n=2, p=3, param_dim=1,
    )
    cap = types_per_subinterval(fam)
    assert cap == 4 + 1 * 2  # P_2 cosets + one boundary level of p-1 balls
    per_atom = _cells_per_atom(macintyre_dcd(fam), [F(0), F(1), F(3)])
    assert max(per_atom.values()) <= cap


def test_types_per_subinterval_laff():
    fam = laff_family([AffineMap.of([1]), AffineMap.of([2])], m=2, n=1,
                      Lambda=[1], p=3, param_dim=1)
    cap = types_per_subinterval(fam)
    assert cap == 4 + 1 * 2  # Q_{2,1} cosets + one boundary level
    per_atom = _cells_per_atom(laff_dcd_1d(fam), [F(0), F(1), F(3)])
    assert max(per_atom.values()) <= cap


# margins above 0: 2 v_p(n) = 2 at (3, 3) and (5, 5), 0 at (4, 3)
@pytest.mark.parametrize("n, p", [(3, 3), (5, 5), (4, 3)])
def test_macintyre_types_with_margins(n, p):
    fam = macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1], 1)], [AffineMap.of([1]), AffineMap.of([p], F(1, p))],
        [1, 2], n=n, p=p, param_dim=1,
    )
    cap = types_per_subinterval(fam)
    assert cap == _macintyre_count(n, p)
    rng = SplitMix64(7000 + 10 * n + p)
    for size in (1, 2, 3):
        per_atom = _cells_per_atom(macintyre_dcd(fam), _params(rng, p, size))
        assert 0 < max(per_atom.values()) <= cap, (size, per_atom)


# the affine reduct's margin is n - 1: 1 at n = 2
@pytest.mark.parametrize("m, p", [(2, 3), (1, 3), (2, 5)])
def test_laff_types_with_margins(m, p):
    fam = laff_family([AffineMap.of([1]), AffineMap.of([2], 1)], m=m, n=2,
                      Lambda=[1], p=p, param_dim=1)
    cap = types_per_subinterval(fam)
    assert cap == _laff_count(m, 2, p)
    rng = SplitMix64(7100 + 10 * m + p)
    for size in (1, 2, 3):
        per_atom = _cells_per_atom(laff_dcd_1d(fam), _params(rng, p, size))
        assert 0 < max(per_atom.values()) <= cap, (size, per_atom)
