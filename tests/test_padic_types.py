from fractions import Fraction as F

from distalcells.decomp import dedupe_cells
from distalcells.families import laff_family, macintyre_family
from distalcells.linear import AffineMap
from distalcells.padic import laff_dcd_1d, macintyre_dcd, types_per_subinterval


def test_types_per_subinterval_bounds_cells_per_atom():
    fam = macintyre_family(
        [AffineMap.of([0]), AffineMap.of([1])], [AffineMap.of([1])], [1, 2],
        n=2, p=3, param_dim=1,
    )
    cap = types_per_subinterval(fam)
    assert cap == 4 + 1 * 2  # P_2 cosets + one boundary level of p-1 balls
    cells = dedupe_cells(macintyre_dcd(fam).instantiate([F(0), F(1), F(3)]))
    per_atom: dict = {}
    for c in cells:
        key = c.region.sub.key()
        per_atom[key] = per_atom.get(key, 0) + 1
    assert max(per_atom.values()) <= cap


def test_types_per_subinterval_laff():
    fam = laff_family([AffineMap.of([1]), AffineMap.of([2])], m=2, n=1,
                      Lambda=[1], p=3, param_dim=1)
    cap = types_per_subinterval(fam)
    assert cap == 4 + 1 * 2  # Q_{2,1} cosets + one boundary level
    cells = dedupe_cells(laff_dcd_1d(fam).instantiate([F(0), F(1), F(3)]))
    per_atom: dict = {}
    for c in cells:
        key = c.region.sub.key()
        per_atom[key] = per_atom.get(key, 0) + 1
    assert max(per_atom.values()) <= cap
