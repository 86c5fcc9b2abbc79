from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from distalcells.decomp import verify
from distalcells.families import laff_family, macintyre_family, type_census_1d
from distalcells.linear import AffineMap
from distalcells.padic import (
    coset_transfer_check,
    family_probes,
    laff_dcd_1d,
    macintyre_dcd,
    t_val,
    t_val_candidate_centers,
)
from distalcells.rng import SplitMix64
from distalcells.scalars import INF, unit_residue, valuation
from distalcells.ultrametric import (
    ArrangementError,
    UltrametricBall,
    _Scale,
    ball_forest,
    dedupe_balls,
    laff_balls,
    special_balls,
    subinterval_atoms,
)

ZERO = AffineMap.of([0])
IDENT = AffineMap.of([1])
DOUBLE = AffineMap.of([2])


def B3(c, r):
    return UltrametricBall(F(c), r, 3)


def same_extent(a: UltrametricBall, b: UltrametricBall) -> bool:
    """Do two balls hold the same points?  Decided on Fractions."""
    if a.radius != b.radius:
        return False
    if a.radius == INF:
        return a.center == b.center
    return valuation(a.center - b.center, a.p) > a.radius


def contains(a: UltrametricBall, b: UltrametricBall) -> bool:
    """a superseteq b as sets, decided on Fractions."""
    if a.radius == INF:
        return b.radius == INF and b.center == a.center
    if b.radius == INF:
        return a.member(b.center)
    return b.radius >= a.radius and a.member(b.center)


def test_ball_membership_and_equality():
    b = B3(0, 0)
    assert b.member(F(3)) and b.member(F(9)) and not b.member(F(1))
    assert same_extent(b, B3(3, 0))  # v(0-3)=1 > 0
    assert not same_extent(b, B3(1, 0))
    pt = B3(5, INF)
    assert pt.member(F(5)) and not pt.member(F(5) + F(3) ** 10)


def test_special_balls_example():
    # F={0}, C={identity}, B={0,1}: point balls at 0, 1 and B_0(0), B_0(1)
    balls = special_balls([ZERO], [IDENT], [(F(0),), (F(1),)], 3)
    scale = _Scale([b.center for b in balls], 3)  # D = 1: a centre is its own int
    keys = {scale.key(scale.x(b.center), b.radius) for b in balls}
    assert (1, 0, 0) in keys and (1, 0, 1) in keys  # points
    assert (0, 0, 0) in keys  # B_0(0)
    assert len(balls) == 4


def test_special_balls_empty():
    assert special_balls([ZERO], [IDENT], [], 3) == []


def test_ball_forest_nested_chain():
    forest = ball_forest([B3(0, 1), B3(0, 0)])
    assert sum(p is not None for p in forest.parent) == 1
    assert len(forest.roots) == 1


def test_ball_forest_disjoint():
    forest = ball_forest([B3(0, 0), B3(1, 0)])
    assert forest.parent == [None, None]
    assert len(forest.roots) == 2


def test_forest_comparability_iff_intersection():
    rng = SplitMix64(20240808)
    for _ in range(20):
        balls = [
            B3(F(rng.randint(-40, 40), rng.choice([1, 1, 3, 9])), rng.randint(-2, 3))
            for _ in range(12)
        ]
        balls = dedupe_balls(balls)
        for i, a in enumerate(balls):
            for b in balls[i + 1:]:
                comparable = contains(a, b) or contains(b, a)
                # intersection test: sample membership on centers
                intersect = a.member(b.center) or b.member(a.center)
                assert comparable == intersect


def _probe_region_atoms(balls, probes):
    """Brute-force boolean-algebra atoms via region probing: distinct
    membership bit-vectors over the ball list."""
    regions = {}
    for x in probes:
        key = tuple(b.member(x) for b in balls)
        regions.setdefault(key, []).append(x)
    return regions


def _critical_probes(balls):
    """For each pair of centers, representatives at every critical radius
    +-1, plus the centers themselves."""
    pts = set()
    for b in balls:
        pts.add(b.center)
        radii = set()
        for other in balls:
            if -INF < other.radius < INF:
                radii.add(other.radius)
        for r in radii | {r + 1 for r in radii} | {r - 1 for r in radii}:
            for u in (1, 2):
                pts.add(b.center + F(u) * F(3) ** r)
    return sorted(pts)


@pytest.mark.parametrize(
    "balls,expected",
    [
        ([B3(0, 0)], 2),
        ([B3(0, 0), B3(1, 0)], 3),
        ([B3(0, -1), B3(0, 0), B3(0, 1)], 4),
    ],
)
def test_subinterval_atoms_counts(balls, expected):
    atoms = subinterval_atoms(balls)
    assert len(atoms) == expected
    # region-probe oracle agrees
    probes = _critical_probes(balls)
    regions = _probe_region_atoms(balls, probes)
    assert len(regions) == expected
    # and the atoms induce exactly the probe partition
    for x in probes:
        owners = [i for i, a in enumerate(atoms) if a.member(x)]
        assert len(owners) == 1


def test_atoms_match_region_probing_on_special_arrangements():
    rng = SplitMix64(777)
    for _ in range(15):
        B = []
        seen = set()
        for _ in range(rng.randint(1, 4)):
            v = (F(rng.randint(-30, 30), rng.choice([1, 1, 3])),)
            if v not in seen:
                seen.add(v)
                B.append(v)
        balls = special_balls([ZERO, IDENT], [IDENT, DOUBLE], B, 3)
        atoms = subinterval_atoms(balls)
        assert len(atoms) <= 2 * len(balls) + 1
        probes = _critical_probes(balls)
        regions = _probe_region_atoms(balls, probes)
        assert len(regions) == len(atoms)
        for x in probes:
            owners = [i for i, a in enumerate(atoms) if a.member(x)]
            assert len(owners) == 1, (x, owners)


def test_arrangement_error_on_unequal_siblings():
    # two disjoint children of the line at different radii, same parent
    with pytest.raises(ArrangementError):
        subinterval_atoms([B3(0, 2), B3(1, 5)])


def test_t_val_examples():
    balls = special_balls([ZERO], [IDENT], [(F(0),), (F(1),)], 3)
    atoms = subinterval_atoms(balls)
    assert t_val(F(0), atoms) == INF  # a center
    # outside all balls: v(a - t) = v(a) for the root-complement atom
    assert t_val(F(1, 3), atoms) == -1
    # inside B_0(0) but not 0 itself: v(a - 0)
    assert t_val(F(9), atoms) == 2


def test_t_val_well_defined_across_candidate_centers():
    rng = SplitMix64(31337)
    for _ in range(25):
        B = []
        seen = set()
        for _ in range(rng.randint(1, 4)):
            v = (F(rng.randint(-20, 20)),)
            if v not in seen:
                seen.add(v)
                B.append(v)
        balls = special_balls([ZERO, IDENT], [IDENT, DOUBLE], B, 3)
        atoms = subinterval_atoms(balls)
        T = sorted({c((b[0],)) for c in (IDENT, DOUBLE) for b in B})
        probes = _critical_probes(balls)
        for x in probes:
            sub = next(a for a in atoms if a.member(x))
            cands = t_val_candidate_centers(sub, T)
            vals = {valuation(x - t, 3) for t in cands}
            assert len(vals) <= 1
            if cands and sub.alpha_l != INF:
                assert vals == {sub.t_val(x)}


def test_coset_transfer_examples():
    # v(1 - 28) = v(-27) = 3 > 2*0 + v(1 - 0)
    assert coset_transfer_check(F(28), F(1), F(0), 2, 3) is True
    assert coset_transfer_check(F(7), F(7), F(1), 2, 3) is True  # ratio 1
    with pytest.raises(ValueError):
        coset_transfer_check(F(2), F(1), F(0), 2, 3)


def test_coset_transfer_randomized():
    rng = SplitMix64(5)
    done = 0
    while done < 2000:
        p = rng.choice([3, 5])
        n = 2
        a = F(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))
        y = F(rng.randint(-20, 20), rng.choice([1, 1, 2, 3]))
        if y == a:
            continue
        k = rng.randint(1, 6)
        x = y + F(rng.randint(1, p - 1)) * F(p) ** (valuation(y - a, p) + k)
        if x == a or x == y:
            continue
        assert coset_transfer_check(x, y, a, n, p) is True
        done += 1


def _mac_family():
    return macintyre_family(
        F=[ZERO, IDENT], C=[IDENT], Lambda=[1, 2], n=2, p=3, param_dim=1
    )


def test_macintyre_dcd_verify_example():
    fam = _mac_family()
    decomp = macintyre_dcd(fam)
    B = [F(0), F(1), F(3)]
    rep = verify(decomp, fam, B)
    assert rep.covered, rep.first_uncovered
    assert rep.uncrossed, rep.crossing_witness
    assert rep.count_ok
    assert rep.cell_count_deduped >= rep.census_lower_bound


def test_macintyre_singleton_parameter():
    fam = _mac_family()
    decomp = macintyre_dcd(fam)
    cells = decomp.instantiate([F(2)])
    # a constant number of cells: at most (#types) * (#subintervals)
    balls = special_balls(fam.meta["F"], fam.meta["C"], [(F(2),)], 3)
    atoms = subinterval_atoms(balls)
    n_types = 4 + 2  # P_2 cosets + (p-1) edge balls at the removal level
    assert len(cells) <= n_types * len(atoms) + 1
    rep = verify(decomp, fam, [F(2)])
    assert rep.passed


def test_macintyre_three_parameter_descriptors():
    fam = _mac_family()
    decomp = macintyre_dcd(fam)
    for c in decomp.instantiate([F(0), F(1), F(3)]):
        assert len(c.params) <= 3


def test_laff_dcd_verify_example():
    fam = laff_family(
        C=[IDENT, DOUBLE], m=2, n=1, Lambda=[1], p=3, param_dim=1
    )
    decomp = laff_dcd_1d(fam)
    B = [F(0), F(1), F(3)]
    rep = verify(decomp, fam, B)
    assert rep.covered, rep.first_uncovered
    assert rep.uncrossed, rep.crossing_witness
    assert rep.count_ok


def test_laff_singleton_parameter():
    fam = laff_family(C=[IDENT, DOUBLE], m=2, n=1, Lambda=[1], p=3, param_dim=1)
    decomp = laff_dcd_1d(fam)
    B = [F(5)]
    cells = decomp.instantiate(B)
    balls = laff_balls(fam.meta["C"], [(F(5),)], 3)
    atoms = subinterval_atoms(balls)
    n_types = 2 * 2 + 2 * 1  # cosets of Q_{2,1} plus edge balls
    assert len(cells) <= n_types * len(atoms) + 1
    assert verify(decomp, fam, B).passed


def test_laff_exclusion_matches_atom_structure():
    # emitted subinterval extents equal brute-force atoms
    fam = laff_family(C=[IDENT, DOUBLE], m=2, n=1, Lambda=[1], p=3, param_dim=1)
    decomp = laff_dcd_1d(fam)
    B = [F(0), F(1), F(3)]
    balls = laff_balls(fam.meta["C"], [(b,) for b in B], 3)
    atoms = subinterval_atoms(balls)
    cells = decomp.instantiate(B)
    probes = [x for (x,) in family_probes(fam, [(b,) for b in B])]
    members = decomp.locator_fn(cells)([(x,) for x in probes])
    for ci in range(len(cells)):
        inside = [x for i, x in enumerate(probes) if members[ci] >> i & 1]
        if not inside:
            continue
        owner = {next(i for i, a in enumerate(atoms) if a.member(x)) for x in inside}
        assert len(owner) == 1  # every cell sits inside one atom


def test_census_on_valuation_family():
    fam = _mac_family()
    census = type_census_1d(fam, [F(0), F(1)])
    assert census.count >= 4


def test_macintyre_shatter_is_linear():
    from distalcells.decomp import shatter_estimate

    fam = _mac_family()
    decomp = macintyre_dcd(fam)

    def gen(rng, size):
        out = []
        seen = set()
        while len(out) < size:
            v = F(rng.randint(-3 ** 6, 3 ** 6), rng.choice([1, 1, 1, 2, 4, 5]))
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    table = shatter_estimate(decomp, gen, sizes=[4, 8, 16, 32], trials=3, seed=11)
    assert table.slope <= 1.1, table.max_counts


def _parents_by_scan(balls):
    """The minimal strictly larger ball containing each ball, by the O(n^2)
    pairwise containment scan: the reference for ball_forest's key lookup."""
    parent = []
    for i, b in enumerate(balls):
        best = None
        for j, other in enumerate(balls):
            if i == j or not contains(other, b) or same_extent(other, b):
                continue
            if best is None or contains(balls[best], other):
                best = j
        parent.append(best)
    return parent


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ball_forest_parents_match_containment_scan(p):
    rng = SplitMix64(4000 + p)
    C = [IDENT, AffineMap.of([p], 1), AffineMap.of([1], F(1, p))]
    Fs = [ZERO, IDENT, AffineMap.of([F(1, p)], p * p)]
    for trial in range(16):
        B = []
        while len(B) < rng.randint(1, 9):
            b = (F(rng.randint(-3 * p * p, 3 * p * p), rng.choice([1, 1, 2, p, p * p])),)
            if b not in B:
                B.append(b)
        for balls in (special_balls(Fs, C, B, p), laff_balls(C, B, p)):
            if trial % 4 == 0:
                balls = balls + [UltrametricBall(F(0), -INF, p)]  # the whole line
            forest = ball_forest(balls)
            assert any(b.radius == INF for b in forest.balls)  # point balls
            assert forest.parent == _parents_by_scan(forest.balls)


# -- a second probe source -----------------------------------------------------


def _brute_probes(fam, B, depth):
    """x = c(b) + p^k u for every centre, every level k from 4 below the
    lowest to 4 above the highest finite level among the centre distances
    and radii, and every unit u mod p^depth: built from the parameters
    alone, with no atoms and no engine probes."""
    p, C = fam.meta["p"], fam.meta["C"]
    centres = sorted({c(b) for b in B for c in C})
    levels = {valuation(s - t, p) for s in centres for t in centres}
    levels |= {valuation(f(b), p) for f in fam.meta.get("F", []) for b in B}
    finite = [v for v in levels if v != INF] or [0]
    units = [u for u in range(1, p ** depth) if u % p]
    pts = {(t,) for t in centres}
    for t in centres:
        for k in range(min(finite) - 4, max(finite) + 5):
            for u in units:
                pts.add((t + u * F(p) ** k,))
    return sorted(pts)


@pytest.mark.parametrize("kind", ["macintyre", "laff"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_on_brute_force_probes(kind, p):
    rng = SplitMix64(9100 + p)
    B = []
    while len(B) < 3:
        b = (F(rng.randint(-p ** 3, p ** 3), rng.choice([1, 2, p, p * p])),)
        if b not in B:
            B.append(b)
    if kind == "macintyre":
        n = 3 if p == 3 else 2  # at p = 3, n = 3 has margins 2 v_3(3) = 2
        fam = macintyre_family(
            [ZERO, AffineMap.of([1], 1)], [IDENT, AffineMap.of([p], F(1, p))], [1, 2],
            n=n, p=p, param_dim=1,
        )
        decomp = macintyre_dcd(fam)
        depth = 2 * (n == 3) + 2  # one digit past the engine's precision
    else:
        fam = laff_family([IDENT, DOUBLE], m=2, n=1, Lambda=[1], p=p, param_dim=1)
        decomp = laff_dcd_1d(fam)
        depth = 2
    brute = _brute_probes(fam, B, depth)
    own = verify(decomp, fam, B)
    rep = verify(decomp, fam, B, probes=brute)
    assert own.passed and rep.passed, rep.to_dict()
    assert rep.probe_count > own.probe_count
    assert rep.census_lower_bound == own.census_lower_bound


# -- the integer kernel against Fraction arithmetic ----------------------------


def _rationals(p, dens, height):
    return st.builds(F, st.integers(-height, height), st.sampled_from(dens))


@st.composite
def _kernel_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    dens = [1, 2, p, p * p, 2 * p, 4 * p ** 3]  # powers of p and a p-free part
    centres = draw(st.lists(_rationals(p, dens, p ** 4), min_size=1, max_size=4, unique=True))
    probes = draw(st.lists(_rationals(p, dens + [p ** 5, 7 * p], p ** 5), min_size=1, max_size=3))
    units = draw(st.lists(st.sampled_from([u for u in range(1, p * p) if u % p]), min_size=1, max_size=3))
    return p, centres, probes, units


def _in_ball(y, r, p):
    """y in B_r(0): v(y) > r, or y = 0 for r = +inf."""
    return y == 0 if r == INF else valuation(y, p) > r


def _kernel_levels(scale):
    return range(-scale.vD - 3, 4)  # reaches levels below -vD


def truncate(a, p: int, level: int) -> F:
    """p-adic truncation of a below digit `level` (digits of index <= level),
    on Fractions: two rationals x, y satisfy v(x - y) > level iff their
    truncations agree.  The reference for `_Scale.key`."""
    a = F(a)
    v = valuation(a, p)
    if v > level:  # a = 0 too
        return F(0)
    return unit_residue(a, p, level - v + 1) * F(p) ** v


def test_truncate_canonical_key():
    # v(x - truncate(x, level)) > level
    for x in [F(7, 3), F(-12, 5), F(45), F(1, 9)]:
        for level in range(-3, 4):
            t = truncate(x, 3, level)
            assert valuation(x - t, 3) > level


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_kernel_ball_keys_are_scaled_truncations(case):
    p, centres, _, _ = case
    scale = _Scale(centres, p)
    for c in centres:
        X = scale.x(c)
        assert F(X, scale.D) == c
        assert scale.key(X, INF) == (1, 0, X)
        for r in _kernel_levels(scale):
            assert scale.key(X, r) == (0, r, truncate(c, p, r) * F(p) ** scale.vD), (c, r)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_kernel_valuations_of_differences(case):
    p, centres, probes, _ = case
    scale = _Scale(centres, p)
    for c1 in centres:
        for c2 in centres:
            assert scale.level(scale.x(c1) - scale.x(c2)) == valuation(c1 - c2, p)
    for x in probes:
        for c in centres:
            split = scale.unit_split(x, scale.x(c))
            if x == c:
                assert split is None
            else:
                v, u, w = split
                assert v == valuation(x - c, p), (x, c)
                assert u % p and w % p and F(u, w) * F(p) ** v == x - c, (x, c)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_kernel_cases())
def test_kernel_swallow_and_membership_tests(case):
    p, centres, probes, units = case
    scale = _Scale(centres, p)
    for t in centres:
        for c in centres:
            for r in _kernel_levels(scale):
                for u in units:
                    # the swallow test: is c in B_lv(t + p^r u)?
                    M, f = scale.shift(scale.x(t) - scale.x(c), 0, 1, r, u)
                    y = t - c + u * F(p) ** r
                    for lv in (r - 1, r, r + 1, INF):
                        assert scale.inside(M, f, lv) == _in_ball(y, lv, p), (t, c, r, u, lv)
    for x in probes:
        for c in centres:
            N, e, w = scale.offset(x, scale.x(c))
            for r in list(_kernel_levels(scale)) + [INF, -INF]:
                assert scale.inside(N, e, r) == (r == -INF or _in_ball(x - c, r, p)), (x, c, r)
            for r in _kernel_levels(scale):
                for u in units:
                    # edge membership: is x in B_lv(c + p^r u)?
                    M, f = scale.shift(N, e, w, r, -u)
                    y = x - c - u * F(p) ** r
                    for lv in (r, r + 2, INF):
                        assert scale.inside(M, f, lv) == _in_ball(y, lv, p), (x, c, r, u, lv)
