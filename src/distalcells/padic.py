"""The one-dimensional valued field cell decompositions over Q_p, on the
ball arrangements of `ultrametric`.

Cells pair a subinterval atom with a multiplicative type: a coset constraint
on the interior displacement levels (margins keep Hensel lifting valid), or a
single deeper ball at the levels near the two radii.  Exclusion predicates
are uniformly definable from the cell descriptor: a parameter is excluded
when one of its balls would cut strictly between the atom's two radii, or
(for boundary cells at the outer removal level) when its ball swallows the
cell.

Each instance runs on the ints of its centres' `_Scale`: the exclusion tests
read a table of centre distances indexed by the position of a parameter in
B (a parameter outside B takes the same tests on exact valuations), and the
membership tests and probes compare a rational a/d with a centre X / D
through a D - X d, building no Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .decomp import CellInstance, Decomposition
from .families import ParamFamily, as_param
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
from .ultrametric import (  # with the ball layer's public names, re-exported
    ArrangementError,
    BallForest,
    Subinterval,
    UltrametricBall,
    _Centres,
    _f_levels,
    _laff,
    _Scale,
    _special,
    arrangement,
    ball_forest,
    dedupe_balls,
    laff_balls,
    special_balls,
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


def _edge_levels(a_l, a_u, lo_width: int, hi_width: int) -> list[int]:
    """Finite levels in (a_l, a_u] within lo_width above a_l or hi_width
    below a_u (inclusive of a_u itself)."""
    levels: set[int] = set()
    if -INF < a_l < INF:
        levels.update(range(a_l + 1, a_l + lo_width + 1))
    if -INF < a_u < INF:
        levels.update(range(a_u - hi_width, a_u + 1))
    return [r for r in sorted(levels) if a_l < r <= a_u]


def _lam_parts(reps: list[Fraction], p: int) -> list[tuple[int, int, int]]:
    """(v(lam), num, den) per coset representative lam = p^v(lam) num / den,
    with num and den prime to p."""
    out = []
    for lam in reps:
        vn, num = split_p(lam.numerator, p)
        vd, den = split_p(lam.denominator, p)
        out.append((vn - vd, num, den))
    return out


class Region(NamedTuple):
    """Where a p-adic cell lies: the instance's ball forest, the forest node
    its subinterval is tagged with, and the subinterval itself."""

    forest: BallForest
    node: int
    sub: Subinterval


def _point_cell(region: Region) -> CellInstance:
    """The cell of a point atom {t}, which no parameter excludes.  Within an
    instance the forest node names the atom, so every cell's extent key is
    (node, type)."""
    return CellInstance(
        template="sub(pt)", params=(),
        member=lambda a, t=region.sub.center: a[0] == t,
        excluded=lambda b: False,
        extent_key=(region.node, ("pt",)),
        region=region,
    )


def _mac_cut(row, ks, vf, a_l, a_u) -> bool:
    """The Macintyre exclusion test without the swallow part: a centre c_k,
    k in ks, at a level row[k] = v(t - c_k) strictly between the radii, or a
    level w of v(f(b)) strictly between them and below such a centre level."""
    for k in ks:
        v = row[k]
        if a_l < v < a_u:
            return True
        for w in vf:
            if a_l < w < a_u and w < v:
                return True
    return False


def _laff_cut(to_t, to_reps, among, a_l, a_u) -> bool:
    """The affine-reduct exclusion test of one parameter with centres t_i:
    to_t[i] = v(t_i - t), to_reps[i] the levels v(t_i - rep) over the removed
    representatives, among[i][k] = v(t_i - t_k)."""
    if a_u != INF:
        # missed sibling: a centre on the removal sphere but not inside any
        # removed representative's ball
        for vt, vr in zip(to_t, to_reps):
            if vt == a_u and not any(v > a_u for v in vr):
                return True
    if any(a_l < v < a_u for row in among for v in row) and any(a_l < vt for vt in to_t):
        return True
    return any(a_l < vt < a_u for vt in to_t)


# ---------------------------------------------------------------------------
# The Macintyre-language decomposition (root-power predicates)
# ---------------------------------------------------------------------------


def macintyre_dcd(family: ParamFamily) -> Decomposition:
    """Cells are (subinterval x root-power type), definable from the three
    descriptor parameters (center, alpha_l, alpha_u)."""
    if family.kind != "valuation-macintyre":
        raise ValueError("macintyre_dcd needs a valuation-macintyre family")
    meta = family.meta
    F, C, n, p = meta["F"], meta["C"], meta["n"], meta["p"]
    dim = family.param_dim
    marg = 2 * split_p(n, p)[0]
    prec = marg + 1
    reps = pn_coset_representatives(n, p)
    lams = _lam_parts(reps, p)
    units = _units(p, prec)
    _, powers = pn_residues(n, p)
    mod = p ** prec

    def inst(B: list) -> list[CellInstance]:
        B = [as_param(b, dim) for b in B]
        cen = _Centres(C, B, p)
        vf = _f_levels(F, B, p)
        forest, tagged = arrangement(_special(cen, vf))
        scale, dist, xs, fracs = cen.scale, cen.dist, cen.xs, cen.fracs
        pos = {b: j for j, b in enumerate(B)}
        everywhere = range(len(xs))

        def swallowed(kt: int, r: int, u: int, ks) -> bool:
            """Is some centre c_k, k in ks, in the ball B_r(t + p^r u)?  Only
            a centre with v(t - c_k) = r can be: otherwise v(t + p^r u - c_k)
            is min(v(t - c_k), r)."""
            row, X = dist[kt], xs[kt]
            return any(row[k] == r and scale.inside(*scale.shift(X - xs[k], 0, 1, r, u), r) for k in ks)

        def make_excluded(kt: int, a_l, a_u, u: Optional[int] = None):
            row = dist[kt]

            def excluded(b) -> bool:
                b = as_param(b, dim)
                j = pos.get(b)
                if j is not None:
                    ks = cen.ids[j]
                    return _mac_cut(row, ks, vf[j], a_l, a_u) or (u is not None and swallowed(kt, a_u, u, ks))
                # b outside B: the same tests on exact valuations
                t, cbs = fracs[kt], [c(b) for c in C]
                to_t = [valuation(t - cb, p) for cb in cbs]
                if _mac_cut(to_t, range(len(cbs)), _f_levels(F, [b], p)[0], a_l, a_u):
                    return True
                if u is None:
                    return False
                q = t + Fraction(p) ** a_u * u
                return any(valuation(q - cb, p) > a_u for cb in cbs)

            return excluded

        def coset_member(X: int, lo, hi, vl: int, ln: int, ld: int):
            def member(a) -> bool:
                # lo < v(x - t) < hi and (x - t) / lam an n-th power
                s = scale.unit_split(a[0], X)
                if s is None or not lo < s[0] < hi or (s[0] - vl) % n:
                    return False
                return s[1] * ld * pow(s[2] * ln, -1, mod) % mod in powers

            return member

        def edge_member(X: int, r: int, u: int):
            def member(a) -> bool:
                # v(x - (t + p^r u)) > r + marg
                N, e, w = scale.offset(a[0], X)
                M, f = scale.shift(N, e, w, r, -u)
                return scale.inside(M, f, r + marg)

            return member

        cells: list[CellInstance] = []
        for ai, sub in tagged:
            region = Region(forest, ai, sub)
            if sub.alpha_l == INF:
                cells.append(_point_cell(region))
                continue
            kt = cen.at[scale.x(sub.center)]
            a_l, a_u = sub.alpha_l, sub.alpha_u
            row = dist[kt]
            # every cell's exclusion test starts with this one
            if any(_mac_cut(row, ks, vfj, a_l, a_u) for ks, vfj in zip(cen.ids, vf)):
                continue
            excl_plain = make_excluded(kt, a_l, a_u)
            X = xs[kt]
            for lam, (vl, ln, ld) in zip(reps, lams):
                if _level_in_window(a_l + marg + 1, a_u - marg - 1, vl % n, n):
                    cells.append(
                        CellInstance(
                            template="subcoset", params=(),
                            member=coset_member(X, a_l + marg, a_u - marg, vl, ln, ld),
                            excluded=excl_plain,
                            extent_key=(ai, ("coset", lam)),
                            region=region,
                        )
                    )
            for r in _edge_levels(a_l, a_u, marg, marg):
                for u in units:
                    excl = excl_plain
                    if r == a_u:  # at the removal level the cell's ball can be swallowed
                        if swallowed(kt, r, u, everywhere):
                            continue
                        excl = make_excluded(kt, a_l, a_u, u)
                    cells.append(
                        CellInstance(
                            template="subedge", params=(),
                            member=edge_member(X, r, u),
                            excluded=excl,
                            extent_key=(ai, ("edge", r, u)),
                            region=region,
                        )
                    )
        return cells

    return Decomposition(
        name="padic-macintyre",
        instantiate_fn=inst,
        locator_fn=_forest_locator,
    )


# ---------------------------------------------------------------------------
# The affine-reduct decomposition (coset-group predicates)
# ---------------------------------------------------------------------------


def laff_dcd_1d(family: ParamFamily) -> Decomposition:
    """Affine-reduct cells: (subinterval x Q_{m,n} type).  The subinterval
    part keeps its removed representatives in the descriptor, and exclusion
    is the three-part test: a missed sibling at the removal radius, a
    same-parameter distance radius strictly between the bounds, or a center
    strictly between the bounds."""
    if family.kind != "valuation-laff":
        raise ValueError("laff_dcd_1d needs a valuation-laff family")
    if family.point_dim != 1:
        raise ValueError("only the one-dimensional decomposition is built")
    meta = family.meta
    C, m, n, p = meta["C"], meta["m"], meta["n"], meta["p"]
    dim = family.param_dim
    marg = n
    prec = n
    reps = qmn_coset_representatives(m, n, p)
    lams = _lam_parts(reps, p)
    units = _units(p, prec)
    mod = p ** n

    def inst(B: list) -> list[CellInstance]:
        B = [as_param(b, dim) for b in B]
        cen = _Centres(C, B, p)
        forest, tagged = arrangement(_laff(cen))
        scale, dist, xs, fracs = cen.scale, cen.dist, cen.xs, cen.fracs
        pos = {b: j for j, b in enumerate(B)}

        def cut_at(kt: int, rems: list[int], ks: list[int], a_l, a_u) -> bool:
            return _laff_cut(
                [dist[k][kt] for k in ks],
                [[dist[k][kr] for kr in rems] for k in ks],
                [[dist[i][k] for k in ks] for i in ks],
                a_l, a_u,
            )

        def make_excluded(kt: int, rems: list[int], sub: Subinterval, a_l, a_u):
            def excluded(b) -> bool:
                b = as_param(b, dim)
                j = pos.get(b)
                if j is not None:
                    return cut_at(kt, rems, cen.ids[j], a_l, a_u)
                # b outside B: the same test on exact valuations
                t, ts = fracs[kt], [c(b) for c in C]
                return _laff_cut(
                    [valuation(ti - t, p) for ti in ts],
                    [[valuation(ti - rep, p) for rep in sub.removed] for ti in ts],
                    [[valuation(ti - tk, p) for tk in ts] for ti in ts],
                    a_l, a_u,
                )

            return excluded

        def coset_member(X: int, lo, hi, vl: int, ln: int, ld: int):
            def member(a) -> bool:
                # lo <= v(x - t) <= hi and x - t in lam Q_{m,n}
                s = scale.unit_split(a[0], X)
                if s is None or not lo <= s[0] <= hi or (s[0] - vl) % m:
                    return False
                return s[1] * ld * pow(s[2] * ln, -1, mod) % mod == 1

            return member

        def edge_member(X: int, r: int, u: int, a_l, a_u, removed: list[int]):
            def member(a) -> bool:
                # v(x - (t + p^r u)) >= r + marg, and x in the subinterval
                N, e, w = scale.offset(a[0], X)
                if not scale.inside(*scale.shift(N, e, w, r, -u), r + marg - 1):
                    return False
                if not scale.inside(N, e, a_l):
                    return False
                d = a[0].denominator  # x - rep = (N + (X - R) d) / (w p^e D)
                return not any(scale.inside(N + (X - R) * d, e, a_u) for R in removed)

            return member

        cells: list[CellInstance] = []
        for ai, sub in tagged:
            region = Region(forest, ai, sub)
            if sub.alpha_l == INF:
                cells.append(_point_cell(region))
                continue
            kt = cen.at[scale.x(sub.center)]
            rems = [cen.at[scale.x(c)] for c in sub.removed]
            a_l, a_u = sub.alpha_l, sub.alpha_u
            if any(cut_at(kt, rems, ks, a_l, a_u) for ks in cen.ids):
                continue  # excl is every cell's test for this subinterval
            excl = make_excluded(kt, rems, sub, a_l, a_u)
            X = xs[kt]
            for lam, (vl, ln, ld) in zip(reps, lams):
                if _level_in_window(a_l + marg, a_u - marg, vl % m, m):
                    cells.append(
                        CellInstance(
                            template="subcoset", params=(),
                            member=coset_member(X, a_l + marg, a_u - marg, vl, ln, ld),
                            excluded=excl,
                            extent_key=(ai, ("coset", lam)),
                            region=region,
                        )
                    )
            removed = [xs[k] for k in rems]
            for r in _edge_levels(a_l, a_u, marg - 1, marg - 1):
                for u in units:
                    cells.append(
                        CellInstance(
                            template="subedge", params=(),
                            member=edge_member(X, r, u, a_l, a_u, removed),
                            excluded=excl,
                            extent_key=(ai, ("edge", r, u)),
                            region=region,
                        )
                    )
        return cells

    return Decomposition(
        name="padic-laff",
        instantiate_fn=inst,
        locator_fn=_forest_locator,
    )


def _forest_locator(cells: list[CellInstance]):
    """Candidates for x: the cells of the subinterval the forest puts x in."""
    if not cells:
        return lambda a: ()
    forest = cells[0].region.forest
    by_node: dict[int, list[int]] = {}
    for ci, c in enumerate(cells):
        by_node.setdefault(c.region.node, []).append(ci)

    def locate(a) -> list[int]:
        return by_node.get(forest.locate(a[0]), [])

    return locate


# ---------------------------------------------------------------------------
# Exhaustive residue probes
# ---------------------------------------------------------------------------


def _probe_params(family: ParamFamily) -> tuple:
    meta = family.meta
    if family.kind == "valuation-macintyre":
        marg = 2 * split_p(meta["n"], meta["p"])[0]
        return meta["p"], marg, marg + 1, meta["n"]
    if family.kind == "valuation-laff":
        return meta["p"], meta["n"], meta["n"], meta["m"]
    raise ValueError(family.kind)


def types_per_subinterval(family: ParamFamily) -> int:
    """The constant number of multiplicative types a subinterval can split
    into for this family's (p, m, n): interior cosets plus the boundary balls
    of every edge level.  Reported per instance, no cross-instance claim."""
    p, marg, prec, _period = _probe_params(family)
    meta = family.meta
    if family.kind == "valuation-macintyre":
        n_cosets = len(pn_coset_representatives(meta["n"], p))
        n_levels = 2 * marg + 1
    else:
        n_cosets = len(qmn_coset_representatives(meta["m"], meta["n"], p))
        n_levels = 2 * (marg - 1) + 1
    return n_cosets + n_levels * len(_units(p, prec))


def family_probes(family: ParamFamily, B: Sequence) -> list[tuple]:
    """One exact representative per (subinterval x residue class at the
    family's precision), exhausting every realized type: the predicates in
    scope depend only on the atom, the displacement level relative to the
    boundary windows, and a unit residue at bounded precision."""
    B = [as_param(b, family.param_dim) for b in B]
    p, marg, prec, period = _probe_params(family)
    if not B:
        return [(Fraction(0),), (Fraction(1),)]
    meta = family.meta
    if family.kind == "valuation-macintyre":
        atoms = subinterval_atoms(special_balls(meta["F"], meta["C"], B, p))
    else:
        atoms = subinterval_atoms(laff_balls(meta["C"], B, p))
    scale = _Scale([c(b) for b in B for c in meta["C"]], p)
    W = marg + period + 1
    units = _units(p, prec)
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
        levels: set[int] = set()
        lo, hi = sub.alpha_l, sub.alpha_u
        if lo != -INF:
            levels.update(range(lo + 1, lo + W + 1))
            if hi == INF:
                levels.update(range(lo + W + 1, lo + W + 1 + period))
        if hi != INF:
            levels.update(range(hi - W, hi + 1))
            if lo == -INF:
                levels.update(range(hi - W - period, hi - W))
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
