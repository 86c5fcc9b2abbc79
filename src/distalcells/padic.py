"""The one-dimensional valued field cell decompositions over Q_p, on the
ball arrangements of `ultrametric`.

Both the valued field (`macintyre_dcd`) and its affine reduct
(`laff_dcd_1d`) come from one builder, `_decomposition`, driven by a small
per-kind record (`_Kind`).  Cells pair a subinterval atom with a
multiplicative type: a coset on the interior displacement levels, kept a
Hensel margin w away from both radii, or an edge ball at the levels near the
two radii.  A parameter excludes a cell when one of its balls would cut
strictly between the atom's two radii, or (for Macintyre's edge balls at the
removal level) when its ball swallows the cell.

No parameter of B cuts an atom.  Every centre of B is a point ball of the
arrangement, and every distance ball and every v(f(b)) ball around a centre
is in the family.  So a ball of a parameter of B strictly between an atom's
radii would be a forest node between the atom's ball and its children, and
a centre of B on the removal sphere lies in its distance ball at that
level, which is a child: a removed ball.  The swallow rule is thus the one
test that drops potential cells: Macintyre's edge ball at the removal level
whose ball at that level holds a centre of B lies in a removed ball.

A cell is (forest node, type), and its locator reads the type of a point
x off x alone.  `BallForest.locate` gives the node, so x lies in its atom's
outer ball and in no removed ball.  With t the atom's centre, the ints of
`_Scale.unit_split` give the level s = v(x - t) and the unit residue U of
x - t mod p^(w+1).  The type is an edge ball (s, U) at the w levels above a
finite alpha_l and the w + 1 levels up to a finite alpha_u, and otherwise
the coset of x - t, read from a table keyed by (s mod period, U) that
`_decomposition` builds once per family.  The swallow test reads a table of
centre distances, and the locator and probes compare a rational a/d with a
centre X / D through a D - X d, building no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .decomp import CellInstance, Decomposition
from .families import ParamFamily, as_point
from .scalars import (
    INF,
    Level,
    in_pn,
    pn_coset_representatives,
    pn_residues,
    qmn_coset_representatives,
    split_p,
    valuation,
)
from .ultrametric import (
    BallForest,
    Subinterval,
    _Centres,
    _f_levels,
    _laff,
    _special,
    arrangement,
    subinterval_atoms,
)


def t_val(a, atoms: list[Subinterval]) -> Level:
    """Displacement valuation of a point from its atom's center."""
    x = a[0] if isinstance(a, tuple) else Fraction(a)
    for sub in atoms:
        if sub.member(x):
            return sub.t_val(x)
    raise ValueError("atoms do not cover the point")


def t_val_candidate_centers(sub: Subinterval, T: Sequence[Fraction]) -> list[Fraction]:
    """All centers in T that can recenter the atom: those at or beyond the
    removal radius (for the point atom, the point itself)."""
    if sub.alpha_l == INF:
        return [t for t in T if t == sub.center]
    out = []
    for t in T:
        if sub.alpha_u == INF:
            if t == sub.center:
                out.append(t)
        elif valuation(t - sub.center, sub.p) >= sub.alpha_u:
            out.append(t)
    return out


def coset_transfer_check(x, y, a, n: int, p: int) -> bool:
    """With v(y-x) > 2 v_p(n) + v(y-a) and x, y distinct from a, the ratio
    (x-a)/(y-a) must be an n-th power; exercised as a randomized lemma test
    and implicitly inside every non-crossing verification."""
    x, y, a = Fraction(x), Fraction(y), Fraction(a)
    if x == a or y == a:
        raise ValueError("x, y must differ from a")
    if x != y:
        vpn = split_p(n, p)[0]
        if not valuation(y - x, p) > valuation(y - a, p) + 2 * vpn:
            raise ValueError("precondition unmet")
    return in_pn((x - a) / (y - a), n, p)


# ---------------------------------------------------------------------------
# Subinterval types
# ---------------------------------------------------------------------------


def _units(p: int, prec: int) -> list[int]:
    return [u for u in range(1, p ** prec) if u % p != 0]


def _level_in_window(lo, hi, residue: int, period: int) -> bool:
    """Is there an integer level in [lo, hi] congruent to residue mod period?
    Infinite ends make the window unbounded."""
    if not (-INF < lo < INF and -INF < hi < INF):
        return True
    if hi - lo + 1 >= period:
        return hi >= lo
    return any((r - residue) % period == 0 for r in range(lo, hi + 1))


def _edge_levels(a_l, a_u, w: int) -> list[int]:
    """The levels in (a_l, a_u] at most w above a finite a_l or w below a
    finite a_u, for a_l < INF and a_u > -INF."""
    levels = set(range(a_l + 1, a_l + w + 1)) if a_l != -INF else set()
    if a_u != INF:
        levels.update(range(a_u - w, a_u + 1))
    return [r for r in sorted(levels) if a_l < r <= a_u]


class Region(NamedTuple):
    """Where a p-adic cell lies: the instance's ball forest, the forest node
    its subinterval is tagged with, and the subinterval itself."""

    forest: BallForest
    node: int
    sub: Subinterval


def _mac_tests(family: ParamFamily, cen: _Centres, B: list):
    """Macintyre's balls and edge rule: the edge balls at the removal level
    r = a_u are dropped when B_r(t + p^r u) holds a centre of B, that is,
    when it is a removed ball, so kept edge balls avoid the removed balls."""
    vf = _f_levels(family.meta["F"], B, family.meta["p"])
    scale, xs = cen.scale, cen.xs

    def keep(kt: int, sub: Subinterval, r: int, u: int) -> bool:
        # is a centre c_k in B_r(t + p^r u)?  Only one with v(t - c_k) = r
        # can be: else v(t + p^r u - c_k) = min(v(t - c_k), r)
        return r < sub.alpha_u or not any(
            v == r and scale.inside(*scale.shift(xs[kt] - xs[k], 0, 1, r, u), r)
            for k, v in enumerate(cen.dist[kt])
        )

    return _special(cen, vf), keep


def _laff_tests(family: ParamFamily, cen: _Centres, B: list):
    """The affine reduct's balls and edge rule: every edge ball is kept."""
    return _laff(cen), lambda kt, sub, r, u: True


class _Kind(NamedTuple):
    """What the Macintyre and affine-reduct decompositions differ in.  With
    w the Hensel margin, both read unit residues mod p^(w+1), put coset
    cells at the levels a_l+w+1 .. a_u-w-1, and put edge balls
    B_{r+w}(t + p^r u) at the w levels above a_l and the w+1 levels up to
    a_u."""

    w: int  # the Hensel margin
    reps: tuple  # coset representatives lam
    period: int  # the levels of lam's coset are v(lam) mod period
    ones: frozenset  # unit residues mod p^(w+1) of the coset of 1
    window: int  # family_probes' levels past each radius
    # (family, cen, B) -> the instance's ball family and its edge rule:
    # keep(kt, sub, r, u) says whether the edge ball at (r, u) of the
    # subinterval sub around centre kt is a cell
    tests: Callable


def _kind(family: ParamFamily) -> _Kind:
    """Macintyre's root-power cosets P_n, with w = 2 v_p(n), or the affine
    reduct's cosets of Q_{m,n}, with w = n - 1."""
    n, p = family.meta["n"], family.meta["p"]
    if family.kind == "valuation-macintyre":
        w = 2 * split_p(n, p)[0]
        return _Kind(w, pn_coset_representatives(n, p), n, pn_residues(n, p)[1], w + n + 1, _mac_tests)
    if family.kind == "valuation-laff":
        m = family.meta["m"]
        return _Kind(n - 1, qmn_coset_representatives(m, n, p), m, frozenset({1}), n + m + 1, _laff_tests)
    raise ValueError(family.kind)


def _decomposition(name: str, family: ParamFamily) -> Decomposition:
    """Cells are (subinterval x coset type) and (subinterval x edge ball),
    definable from the descriptor (center, alpha_l, alpha_u)."""
    kind = _kind(family)
    C, p, dim = family.meta["C"], family.meta["p"], family.param_dim
    w, period = kind.w, kind.period
    # (lam, (v_p, p-free part) of its numerator, and of its denominator)
    lams = [(lam, split_p(lam.numerator, p), split_p(lam.denominator, p)) for lam in kind.reps]
    units = _units(p, w + 1)
    mod = p ** (w + 1)
    # the coset of x - t = p^s U by (s mod period, U mod p^(w+1)): (x - t) / lam
    # is in the coset of 1 when s - v(lam) is 0 mod period and U ld / ln is in
    # `ones`, that is, U = one ln / ld for some one
    cosets = {
        ((vn - vd) % period, one * ln * pow(ld, -1, mod) % mod): lam
        for lam, (vn, ln), (vd, ld) in lams
        for one in kind.ones
    }

    def inst(B: list) -> list[CellInstance]:
        B = [as_point(b, dim) for b in B]
        cen = _Centres(C, B, p)
        balls, keep = kind.tests(family, cen, B)
        forest, tagged = arrangement(balls)
        cells: list[CellInstance] = []
        for ai, sub in tagged:
            # within an instance the forest node names the atom, so every
            # cell's extent key is (node, type)
            region = Region(forest, ai, sub)
            if sub.alpha_l == INF:
                cells.append(CellInstance("sub(pt)", (), (ai, ("pt",)), region))
                continue
            kt = cen.at[cen.scale.x(sub.center)]
            a_l, a_u = sub.alpha_l, sub.alpha_u
            for lam, (vn, _), (vd, _) in lams:
                if _level_in_window(a_l + w + 1, a_u - w - 1, (vn - vd) % period, period):
                    cells.append(CellInstance("subcoset", (), (ai, ("coset", lam)), region))
            for r in _edge_levels(a_l, a_u, w):
                for u in units:
                    if keep(kt, sub, r, u):
                        cells.append(CellInstance("subedge", (), (ai, ("edge", r, u)), region))
        return cells

    def locator(cells: list[CellInstance]):
        """The cell of x: its forest node, then its type there."""
        forest = cells[0].region.forest
        scale = forest.scale
        index = {c.extent_key: ci for ci, c in enumerate(cells)}
        atoms = {
            c.region.node: (scale.x(c.region.sub.center), c.region.sub.alpha_l, c.region.sub.alpha_u)
            for c in cells
        }

        def locate(a) -> tuple[int, ...]:
            node = forest.locate(a[0])
            if node not in atoms:
                return ()
            X, a_l, a_u = atoms[node]
            if a_l == INF:
                typ = ("pt",)
            else:
                split = scale.unit_split(a[0], X)
                if split is None:
                    return ()
                s, u, q = split
                U = u * pow(q, -1, mod) % mod
                if (a_l != -INF and s <= a_l + w) or (a_u != INF and s >= a_u - w):
                    typ = ("edge", s, U)
                else:
                    typ = ("coset", cosets[s % period, U])
            ci = index.get((node, typ))
            return () if ci is None else (ci,)

        return locate

    return Decomposition(name=name, instantiate_fn=inst, locator_fn=locator)


def macintyre_dcd(family: ParamFamily) -> Decomposition:
    """The valued field's decomposition: subintervals crossed with the
    root-power cosets of P_n or with edge balls."""
    if family.kind != "valuation-macintyre":
        raise ValueError("macintyre_dcd needs a valuation-macintyre family")
    return _decomposition("padic-macintyre", family)


def laff_dcd_1d(family: ParamFamily) -> Decomposition:
    """The affine reduct's decomposition: subintervals crossed with the
    cosets of Q_{m,n} or with edge balls."""
    if family.kind != "valuation-laff":
        raise ValueError("laff_dcd_1d needs a valuation-laff family")
    if family.point_dim != 1:
        raise ValueError("only the one-dimensional decomposition is built")
    return _decomposition("padic-laff", family)


# ---------------------------------------------------------------------------
# Exhaustive residue probes
# ---------------------------------------------------------------------------


def types_per_subinterval(family: ParamFamily) -> int:
    """The constant number of multiplicative types a subinterval can split
    into for this family's (p, m, n): interior cosets plus the boundary balls
    of every edge level.  Reported per instance, no cross-instance claim."""
    kind = _kind(family)
    return len(kind.reps) + (2 * kind.w + 1) * len(_units(family.meta["p"], kind.w + 1))


def family_probes(family: ParamFamily, B: Sequence) -> list[tuple]:
    """One exact representative per (subinterval x residue class at the
    family's precision), exhausting every realized type: the predicates in
    scope depend only on the atom, the displacement level relative to the
    boundary windows, and a unit residue at bounded precision."""
    B = [as_point(b, family.param_dim) for b in B]
    kind = _kind(family)
    if not B:
        return [(Fraction(0),), (Fraction(1),)]
    p = family.meta["p"]
    cen = _Centres(family.meta["C"], B, p)
    atoms = subinterval_atoms(kind.tests(family, cen, B)[0])
    scale, W, period = cen.scale, kind.window, kind.period
    units = _units(p, kind.w + 1)
    probes: list[tuple] = []
    seen = set()

    def emit(x: Fraction):
        if x not in seen:
            seen.add(x)
            probes.append((x,))

    for sub in atoms:
        if sub.alpha_l == INF:
            emit(sub.center)
            continue
        # W levels past each finite radius, and a period more on a side
        # whose other radius is infinite
        levels: set[int] = set()
        lo, hi = sub.alpha_l, sub.alpha_u
        if lo != -INF:
            levels.update(range(lo + 1, lo + W + 1 + (period if hi == INF else 0)))
        if hi != INF:
            levels.update(range(hi - W - (period if lo == -INF else 0), hi + 1))
        if lo == -INF and hi == INF:
            levels.update(range(-W, W + 1))
        X = scale.x(sub.center)
        gaps = [X - scale.x(rep) for rep in sub.removed]  # t - rep, scaled
        for r in sorted(levels):
            if not lo < r <= hi:
                continue
            for u in units:
                # x = t + p^r u lies in the outer ball; drop it when it lies
                # in a removed one
                if any(scale.inside(*scale.shift(g, 0, 1, r, u), hi) for g in gaps):
                    continue
                M, f = scale.shift(X, 0, 1, r, u)
                emit(Fraction(M, scale.D * scale.pw(f)))
    return probes
