"""Ultrametric ball arrangements over Q_p and the one-dimensional valued
field cell decompositions.

Open balls B_r(c) = {x : v(x-c) > r} are kept with exact rational centers and
value-group radii; radius +inf denotes the degenerate point ball {c}.  The
special-ball family of a parameter set is closed under pairwise-distance
recentering, which forces all children of a node in the containment forest to
share one radius; the boolean-algebra atoms then normalize to "outer ball
minus at most p-1 same-radius subballs" and carry a well-defined displacement
valuation from their center.

Cells pair an atom with a multiplicative type: a coset constraint on the
interior displacement levels (margins keep Hensel lifting valid), or a single
deeper ball at the levels near the two radii.  Exclusion predicates are
uniformly definable from the cell descriptor: a parameter is excluded when
one of its balls would cut strictly between the atom's two radii, or (for
boundary cells at the outer removal level) when its ball swallows the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .decomp import CellInstance, Decomposition
from .families import ParamFamily, as_param
from .scalars import (
    Gamma,
    NEG_INF,
    POS_INF,
    in_pn,
    in_qmn,
    pn_coset_representatives,
    qmn_coset_representatives,
    truncate,
    valuation,
    valuation_int,
)


class ArrangementError(ValueError):
    """The ball family is not closed enough for the subinterval normal form."""


@dataclass(frozen=True)
class UltrametricBall:
    center: Fraction
    radius: Gamma
    p: int

    def member(self, x: Fraction) -> bool:
        if self.radius == POS_INF:
            return x == self.center
        return valuation(x - self.center, self.p) > self.radius

    def same_extent(self, other: "UltrametricBall") -> bool:
        if self.radius != other.radius:
            return False
        if self.radius == POS_INF:
            return self.center == other.center
        return valuation(self.center - other.center, self.p) > self.radius

    def contains(self, other: "UltrametricBall") -> bool:
        """self superseteq other (as sets)."""
        if self.radius == POS_INF:
            return other.radius == POS_INF and other.center == self.center
        if other.radius == POS_INF:
            return self.member(other.center)
        return other.radius >= self.radius and self.member(other.center)

    def key(self) -> tuple:
        if self.radius == POS_INF:
            return (1, 0, self.center)
        if not self.radius.is_finite:  # -inf: the whole line
            return (-1, 0, Fraction(0))
        r = self.radius.level
        return (0, r, truncate(self.center, self.p, r))


def dedupe_balls(balls: Sequence[UltrametricBall]) -> list[UltrametricBall]:
    seen: dict[tuple, UltrametricBall] = {}
    for b in balls:
        seen.setdefault(b.key(), b)
    return [seen[k] for k in sorted(seen)]


def special_balls(F, C, B: Sequence, p: int) -> list[UltrametricBall]:
    """Deduplicated special balls of a parameter set: around each center
    c(b) a ball of radius v(f(b)) for every f in F, plus balls reaching from
    every center to every other center."""
    balls: list[UltrametricBall] = []
    for b in B:
        for c in C:
            cb = c(b)
            for f in F:
                balls.append(UltrametricBall(cb, valuation(f(b), p), p))
    centers = [c(b) for b in B for c in C]
    for t1 in centers:
        for t2 in centers:
            balls.append(UltrametricBall(t1, valuation(t1 - t2, p), p))
    return dedupe_balls(balls)


def laff_balls(C, B: Sequence, p: int) -> list[UltrametricBall]:
    """Ball family for the affine reduct: pairwise-distance balls plus, per
    parameter, balls of every same-parameter distance radius around each of
    its centers."""
    balls: list[UltrametricBall] = []
    centers = [c(b) for b in B for c in C]
    for t1 in centers:
        for t2 in centers:
            balls.append(UltrametricBall(t1, valuation(t1 - t2, p), p))
    for b in B:
        ts = [c(b) for c in C]
        for t_center in ts:
            for tj in ts:
                for tk in ts:
                    balls.append(UltrametricBall(t_center, valuation(tj - tk, p), p))
    return dedupe_balls(balls)


@dataclass
class BallForest:
    balls: list[UltrametricBall]
    parent: list[Optional[int]]
    children: list[list[int]]
    roots: list[int]

    def locate(self, x: Fraction) -> int:
        """Index of the deepest ball containing x; len(balls) for the outer
        region."""
        cur = len(self.balls)
        frontier = self.roots
        while True:
            nxt = None
            for j in frontier:
                if self.balls[j].member(x):
                    nxt = j
                    break
            if nxt is None:
                return cur
            cur = nxt
            frontier = self.children[cur]


def ball_forest(balls: Sequence[UltrametricBall]) -> BallForest:
    """Containment forest of a deduplicated ball family; by the ultrametric
    property comparability coincides with intersection.  A ball's parent is
    the deepest strictly larger ball around its centre: the first key
    (level, truncate(centre, level)) present, scanning the levels below its
    radius deepest first, else the whole line when the family has it."""
    balls = dedupe_balls(balls)
    index = {b.key(): i for i, b in enumerate(balls)}
    levels = sorted({b.radius.level for b in balls if b.radius.is_finite}, reverse=True)
    whole = index.get((-1, 0, Fraction(0)))
    parent: list[Optional[int]] = []
    for i, b in enumerate(balls):
        best = None
        if b.radius != NEG_INF:
            for r in levels:
                if b.radius <= r:
                    continue
                best = index.get((0, r, truncate(b.center, b.p, r)))
                if best is not None:
                    break
            else:
                best = whole
        parent.append(best)
    children: list[list[int]] = [[] for _ in balls]
    for i, par in enumerate(parent):
        if par is not None:
            children[par].append(i)
    roots = [i for i, par in enumerate(parent) if par is None]
    return BallForest(balls, parent, children, roots)


@dataclass(frozen=True)
class Subinterval:
    """Atom of the ball boolean algebra: an outer ball around `center` minus
    at most p-1 removed balls at the single radius `alpha_u`.

    alpha_l = +inf encodes the point atom {center}; alpha_l = -inf encodes
    the complement of the root balls.
    """

    center: Fraction
    alpha_l: Gamma
    alpha_u: Gamma
    removed: tuple[Fraction, ...]
    p: int

    def member(self, x: Fraction) -> bool:
        if self.alpha_l == POS_INF:
            return x == self.center
        if not valuation(x - self.center, self.p) > self.alpha_l:
            return False
        for rep in self.removed:
            if self.alpha_u == POS_INF:
                if x == rep:
                    return False
            elif valuation(x - rep, self.p) > self.alpha_u:
                return False
        return True

    def key(self) -> tuple:
        lvl = self.alpha_l.level if self.alpha_l.is_finite else None
        ulvl = self.alpha_u.level if self.alpha_u.is_finite else None
        c = self.center if lvl is None else truncate(self.center, self.p, lvl)
        return (self.alpha_l.rank, lvl, c, self.alpha_u.rank, ulvl, self.removed)

    def t_val(self, x: Fraction) -> Gamma:
        return valuation(x - self.center, self.p)


def arrangement(balls: Sequence[UltrametricBall]) -> tuple[BallForest, list[tuple[int, Subinterval]]]:
    """Forest plus atoms tagged by forest node (the outer atom carries the
    virtual node index len(balls)).  A node exactly tiled by its p children
    contributes no atom."""
    forest = ball_forest(balls)
    if not forest.balls:
        return forest, [(0, Subinterval(Fraction(0), NEG_INF, POS_INF, (), 3))]
    p = forest.balls[0].p

    def removal(outer_radius: Gamma, inner: list[UltrametricBall]) -> Optional[Subinterval]:
        radii = {b.radius for b in inner}
        if len(radii) > 1:
            raise ArrangementError("sibling balls at unequal radii")
        a_u = next(iter(radii))
        centers = sorted(b.center for b in inner)
        if len(inner) > p:
            raise ArrangementError("more than p sibling balls")
        if len(inner) == p:
            if not a_u.is_finite:
                raise ArrangementError("p point siblings cannot tile a ball")
            for i in range(len(centers)):
                for j in range(i + 1, len(centers)):
                    if valuation(centers[i] - centers[j], p) != a_u:
                        raise ArrangementError("p siblings not at a common sphere")
            if not (outer_radius < a_u - 1):
                return None  # the children tile the node exactly
            return Subinterval(centers[0], outer_radius, a_u - 1, (centers[0],), p)
        return Subinterval(centers[0], outer_radius, a_u, tuple(centers), p)

    atoms: list[tuple[int, Subinterval]] = []
    for i, ball in enumerate(forest.balls):
        kids = [forest.balls[j] for j in forest.children[i]]
        if ball.radius == POS_INF:
            atoms.append((i, Subinterval(ball.center, POS_INF, POS_INF, (), p)))
        elif not kids:
            atoms.append((i, Subinterval(ball.center, ball.radius, POS_INF, (), p)))
        else:
            sub = removal(ball.radius, kids)
            if sub is not None:
                atoms.append((i, sub))
    root_balls = [forest.balls[i] for i in forest.roots]
    if not any(b.radius == NEG_INF for b in root_balls):
        sub = removal(NEG_INF, root_balls)
        if sub is not None:
            atoms.append((len(forest.balls), sub))
    return forest, atoms


def subinterval_atoms(balls: Sequence[UltrametricBall]) -> list[Subinterval]:
    return [sub for _, sub in arrangement(balls)[1]]


def t_val(a, atoms: list[Subinterval]) -> Gamma:
    """Displacement valuation of a point from its atom's center."""
    x = a[0] if isinstance(a, tuple) else Fraction(a)
    for sub in atoms:
        if sub.member(x):
            return sub.t_val(x)
    raise ValueError("atoms do not cover the point")


def t_val_candidate_centers(sub: Subinterval, T: Sequence[Fraction]) -> list[Fraction]:
    """All centers in T that can recenter the atom: those at or beyond the
    removal radius (for the point atom, the point itself)."""
    if sub.alpha_l == POS_INF:
        return [t for t in T if t == sub.center]
    out = []
    for t in T:
        if sub.alpha_u == POS_INF:
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
        vpn = _vp(n, p)
        if not valuation(y - x, p) > valuation(y - a, p) + 2 * vpn:
            raise ValueError("precondition unmet")
    return in_pn((x - a) / (y - a), n, p)


# ---------------------------------------------------------------------------
# Subinterval types
# ---------------------------------------------------------------------------


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _units(p: int, prec: int) -> list[int]:
    return [u for u in range(1, p ** prec) if u % p != 0]


def _level_in_window(lo: Gamma, hi: Gamma, residue: int, period: int) -> bool:
    """Is there an integer level in [lo, hi] congruent to residue mod period?
    Infinite ends make the window unbounded."""
    if not lo.is_finite or not hi.is_finite:
        return True
    first, last = lo.level, hi.level
    if last - first + 1 >= period:
        return last >= first
    return any((r - residue) % period == 0 for r in range(first, last + 1))


def _edge_levels(sub: Subinterval, lo_width: int, hi_width: int) -> list[int]:
    """Finite levels in (alpha_l, alpha_u] within lo_width above alpha_l or
    hi_width below alpha_u (inclusive of alpha_u itself)."""
    levels: set[int] = set()
    if sub.alpha_l.is_finite:
        for i in range(1, lo_width + 1):
            levels.add(sub.alpha_l.level + i)
    if sub.alpha_u.is_finite:
        for i in range(0, hi_width + 1):
            levels.add(sub.alpha_u.level - i)
    return [r for r in sorted(levels) if sub.alpha_l < Gamma.of(r) <= sub.alpha_u]


class Region(NamedTuple):
    """Where a p-adic cell lies: the instance's ball forest, the forest node
    its subinterval is tagged with, and the subinterval itself."""

    forest: BallForest
    node: int
    sub: Subinterval


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
    marg = 2 * _vp(n, p)
    prec = marg + 1
    reps = pn_coset_representatives(n, p)

    def inst(B: list) -> list[CellInstance]:
        B = [as_param(b, family.param_dim) for b in B]
        forest, tagged = arrangement(special_balls(F, C, B, p))
        bcache: dict = {}
        vcache: dict = {}

        def at_param(b: tuple):
            """The centres c(b) and the radii v(f(b)) of one parameter."""
            got = bcache.get(b)
            if got is None:
                got = bcache[b] = ([c(b) for c in C], [valuation(f(b), p) for f in F])
            return got

        def vals_at(t: Fraction, b: tuple):
            key = (t, b)
            got = vcache.get(key)
            if got is None:
                cbs, vf = at_param(b)
                got = vcache[key] = ([valuation(t - cb, p) for cb in cbs], vf)
            return got

        def make_excluded(sub: Subinterval, swallow_q: Optional[Fraction]):
            a_l, a_u, t = sub.alpha_l, sub.alpha_u, sub.center

            def excluded(b) -> bool:
                b = as_param(b, family.param_dim)
                vtc, vf = vals_at(t, b)
                for ci in range(len(C)):
                    if a_l < vtc[ci] < a_u:
                        return True
                    for fi in range(len(F)):
                        if a_l < vf[fi] < a_u and vf[fi] < vtc[ci]:
                            return True
                if swallow_q is not None:
                    for cb in at_param(b)[0]:
                        if valuation(swallow_q - cb, p) > a_u:
                            return True
                return False

            return excluded

        cells: list[CellInstance] = []
        for ai, sub in tagged:
            t = sub.center
            if sub.alpha_l == POS_INF:
                cells.append(
                    CellInstance(
                        template="sub(pt)", params=(),
                        member=lambda a, t=t: a[0] == t,
                        excluded=lambda b: False,
                        extent_key=(sub.key(), ("pt",)),
                        region=Region(forest, ai, sub),
                    )
                )
                continue
            excl_plain = make_excluded(sub, None)
            # every cell's exclusion test starts with excl_plain's
            if any(excl_plain(b) for b in B):
                continue
            emitted: list[tuple] = []
            for lam in reps:
                res = valuation_int(lam, p) % n
                if not _level_in_window(sub.alpha_l + (marg + 1), sub.alpha_u - (marg + 1), res, n):
                    continue

                def mem(x, t=t, lam=lam, sub=sub, marg=marg):
                    tv = valuation(x - t, p)
                    if not (sub.alpha_l + marg < tv and tv < sub.alpha_u - marg):
                        return False
                    return in_pn((x - t) / lam, n, p)

                emitted.append((mem, ("coset", lam), excl_plain))
            for r in _edge_levels(sub, marg, marg):
                at_removal = sub.alpha_u.is_finite and r == sub.alpha_u.level
                for u in _units(p, prec):
                    q = t + Fraction(p) ** r * u

                    def mem(x, q=q, r=r, marg=marg):
                        return valuation(x - q, p) > Gamma.of(r + marg)

                    excl = make_excluded(sub, q) if at_removal else excl_plain
                    if excl is excl_plain or not any(excl(b) for b in B):
                        emitted.append((mem, ("edge", r, u), excl))
            for mem, desc, excl in emitted:
                cells.append(
                    CellInstance(
                        template=f"sub{desc[0]}",
                        params=(),
                        member=lambda a, mem=mem: mem(a[0]),
                        excluded=excl,
                        extent_key=(sub.key(), desc),
                        region=Region(forest, ai, sub),
                    )
                )
        return cells

    return Decomposition(
        name="padic-macintyre",
        instantiate_fn=inst,
        probe_fn=lambda B: family_probes(family, B),
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
    marg = n
    prec = n
    reps = qmn_coset_representatives(m, n, p)

    def make_excluded(sub: Subinterval):
        a_l, a_u, t = sub.alpha_l, sub.alpha_u, sub.center

        def excluded(b) -> bool:
            b = as_param(b, family.param_dim)
            ts = [c(b) for c in C]
            if a_u.is_finite:
                # missed sibling: a center on the removal sphere but not
                # inside any removed representative's ball
                for tb in ts:
                    if valuation(tb - t, p) == a_u and not any(
                        valuation(tb - rep, p) > a_u for rep in sub.removed
                    ):
                        return True
            for tj in ts:
                for tk in ts:
                    if a_l < valuation(tj - tk, p) < a_u:
                        for ti in ts:
                            if a_l < valuation(ti - t, p):
                                return True
            for ti in ts:
                if a_l < valuation(t - ti, p) < a_u:
                    return True
            return False

        return excluded

    def inst(B: list) -> list[CellInstance]:
        B = [as_param(b, family.param_dim) for b in B]
        forest, tagged = arrangement(laff_balls(C, B, p))
        cells: list[CellInstance] = []
        for ai, sub in tagged:
            t = sub.center
            if sub.alpha_l == POS_INF:
                cells.append(
                    CellInstance(
                        template="sub(pt)", params=(),
                        member=lambda a, t=t: a[0] == t,
                        excluded=lambda b: False,
                        extent_key=(sub.key(), ("pt",)),
                        region=Region(forest, ai, sub),
                    )
                )
                continue
            excl = make_excluded(sub)
            if any(excl(b) for b in B):
                continue  # excl is every cell's test for this subinterval
            emitted: list[tuple] = []
            for lam in reps:
                res = valuation_int(lam, p) % m
                if not _level_in_window(sub.alpha_l + marg, sub.alpha_u - marg, res, m):
                    continue

                def mem(x, t=t, lam=lam, sub=sub, marg=marg):
                    tv = valuation(x - t, p)
                    if not (sub.alpha_l + marg <= tv and tv <= sub.alpha_u - marg):
                        return False
                    return in_qmn(x - t, lam, m, n, p)

                emitted.append((mem, ("coset", lam)))
            for r in _edge_levels(sub, marg - 1, marg - 1):
                for u in _units(p, prec):
                    q = t + Fraction(p) ** r * u

                    def mem(x, q=q, r=r, marg=marg, sub=sub):
                        if not valuation(x - q, p) >= Gamma.of(r + marg):
                            return False
                        return sub.member(x)

                    emitted.append((mem, ("edge", r, u)))
            for mem, desc in emitted:
                cells.append(
                    CellInstance(
                        template=f"sub{desc[0]}",
                        params=(),
                        member=lambda a, mem=mem: mem(a[0]),
                        excluded=excl,
                        extent_key=(sub.key(), desc),
                        region=Region(forest, ai, sub),
                    )
                )
        return cells

    return Decomposition(
        name="padic-laff",
        instantiate_fn=inst,
        probe_fn=lambda B: family_probes(family, B),
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
        marg = 2 * _vp(meta["n"], meta["p"])
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
    W = marg + period + 1
    units = _units(p, prec)
    probes: list[tuple] = []
    seen = set()

    def emit(x: Fraction):
        if x not in seen:
            seen.add(x)
            probes.append((x,))

    for sub in atoms:
        if sub.alpha_l == POS_INF:
            emit(sub.center)
            continue
        levels: set[int] = set()
        lo, hi = sub.alpha_l, sub.alpha_u
        if lo.is_finite:
            levels.update(range(lo.level + 1, lo.level + W + 1))
            if not hi.is_finite:
                levels.update(range(lo.level + W + 1, lo.level + W + 1 + period))
        if hi.is_finite:
            levels.update(range(hi.level - W, hi.level + 1))
            if not lo.is_finite:
                levels.update(range(hi.level - W - period, hi.level - W))
        if not lo.is_finite and not hi.is_finite:
            levels.update(range(-W, W + 1))
        for r in sorted(levels):
            if not (lo < Gamma.of(r) <= hi):
                continue
            scale = Fraction(p) ** r
            for u in units:
                x = sub.center + scale * u
                if sub.member(x):
                    emit(x)
    return probes
