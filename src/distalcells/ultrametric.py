"""Ultrametric balls over Q_p on Python ints: the special-ball families of a
parameter set, their containment forest and the subinterval atoms.

Open balls B_r(c) = {x : v(x-c) > r} are kept with exact rational centers and
radii that are levels (`scalars`: an int, or +-INF); radius INF denotes the
degenerate point ball {c} and -INF the whole line.  The special-ball family
of a parameter set is closed under pairwise-distance recentering, which
forces all children of a node in the containment forest to share one radius;
the boolean-algebra atoms then normalize to "outer ball minus at most p-1
same-radius subballs" and carry a well-defined displacement valuation from
their center.

The arithmetic runs on ints.  Each instance scales its centres once by the
lcm D of their denominators, D = p^vD * uD with uD prime to p (`_Scale`): a
centre c becomes the int X = D c, so v(c1 - c2) is v_p(X1 - X2) - vD, and a
rational a/d lies in B_r(c) iff p^(r + v_p(d) + vD + 1) divides a D - X d.
The ball B_r(c) is keyed (0, r, X uD^-1 mod p^(r + vD + 1)), which is p^vD
times the p-adic truncation of c below digit r, so the keys sort as the
truncations do.  `UltrametricBall` and `Subinterval` keep Fraction centres
and level radii for callers, and their own methods decide on those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .scalars import INF, Level, split_p, valuation


class ArrangementError(ValueError):
    """The ball family is not closed enough for the subinterval normal form."""


@dataclass(frozen=True)
class UltrametricBall:
    center: Fraction
    radius: Level
    p: int

    def member(self, x: Fraction) -> bool:
        if self.radius == INF:
            return x == self.center
        return valuation(x - self.center, self.p) > self.radius


# ---------------------------------------------------------------------------
# The integer kernel
# ---------------------------------------------------------------------------


class _Scale:
    """Rationals on ints over one denominator D, the lcm of theirs, with
    D = p^vD * uD and uD prime to p.  A number N / (u p^e D) with ints N and
    u prime to p has valuation v_p(N) - e - vD whatever u is, so the tests
    below take N and e alone.  Powers of p and inverses of uD are cached for
    the life of the scale."""

    __slots__ = ("p", "D", "vD", "uD", "_pw", "_inv")

    def __init__(self, values, p: int):
        D = 1
        for den in {v.denominator for v in values}:
            D = math.lcm(D, den)
        self.p, self.D = p, D
        self.vD, self.uD = split_p(D, p)
        self._pw = [1]
        self._inv: dict[int, int] = {}

    def pw(self, e: int) -> int:
        pw = self._pw
        while len(pw) <= e:
            pw.append(pw[-1] * self.p)
        return pw[e]

    def x(self, c: Fraction) -> int:
        """D c, for a c whose denominator divides D."""
        return c.numerator * (self.D // c.denominator)

    def level(self, N: int):
        """v(N / D); INF for N = 0."""
        if N == 0:
            return INF
        return split_p(N, self.p)[0] - self.vD

    def inside(self, N: int, e: int, r) -> bool:
        """Is N / (u p^e D) in B_r(0): valuation > r, or N = 0 for r = INF?"""
        if r == INF:
            return N == 0
        k = r + e + self.vD + 1
        return k <= 0 or N % self.pw(k) == 0

    def shift(self, N: int, e: int, w: int, r: int, u: int) -> tuple[int, int]:
        """(M, f) with N / (w p^e D) + p^r u = M / (w p^f D), for an int u
        and w prime to p."""
        s = max(0, -(r + e + self.vD))
        return N * self.pw(s) + u * w * self.uD * self.pw(r + e + self.vD + s), e + s

    def offset(self, x: Fraction, X: int) -> tuple[int, int, int]:
        """x - X / D as (N, e, w) with N / (w p^e D), w = the p-free part of
        x's denominator."""
        e, w = split_p(x.denominator, self.p)
        return x.numerator * self.D - X * x.denominator, e, w

    def unit_split(self, x: Fraction, X: int) -> Optional[tuple[int, int, int]]:
        """x - X / D as (v, u, w) with p^v u / w and u, w prime to p; None
        for x = X / D."""
        N, e, w = self.offset(x, X)
        if N == 0:
            return None
        v, u = split_p(N, self.p)
        return v - e - self.vD, u, w * self.uD

    def key(self, X: int, r) -> tuple:
        """Key of the ball B_r(X / D)."""
        if r == INF:
            return (1, 0, X)
        if r == -INF:
            return (-1, 0, 0)
        k = r + self.vD + 1
        if k <= 0:
            return (0, r, 0)
        mod = self.pw(k)
        inv = self._inv.get(k)
        if inv is None:
            inv = self._inv[k] = pow(self.uD, -1, mod)
        return (0, r, X * inv % mod)


def _scale_of(balls: Sequence[UltrametricBall]) -> _Scale:
    return _Scale([b.center for b in balls], balls[0].p if balls else 3)


class _Centres:
    """The centres c(b), c in C, of a parameter set B on one scale.  `fracs`
    and `xs` hold the distinct centres in order of first appearance (b
    outer, c inner), `ids[j]` the indices of B[j]'s centres, one per map in
    C, `at` maps a scaled centre to its index, and `dist[i][k]` is
    v(c_i - c_k) as a level."""

    def __init__(self, C, B: Sequence, p: int):
        vals = [[c(b) for c in C] for b in B]
        self.scale = scale = _Scale([v for row in vals for v in row], p)
        self.fracs: list[Fraction] = []
        self.xs: list[int] = []
        self.at: dict[int, int] = {}
        self.ids: list[list[int]] = []
        for row in vals:
            ids = []
            for v in row:
                X = scale.x(v)
                k = self.at.get(X)
                if k is None:
                    k = self.at[X] = len(self.xs)
                    self.xs.append(X)
                    self.fracs.append(v)
                ids.append(k)
            self.ids.append(ids)
        xs, n = self.xs, len(self.xs)
        self.dist = [[INF] * n for _ in range(n)]
        for i in range(n):
            for k in range(i):
                self.dist[i][k] = self.dist[k][i] = scale.level(xs[i] - xs[k])


def _balls(cen: _Centres, cands) -> list[UltrametricBall]:
    """The balls (centre index, radius level) of `cands` with distinct keys,
    each the first one seen, in key order."""
    scale, xs = cen.scale, cen.xs
    seen: dict[tuple, tuple] = {}
    for k, r in cands:
        seen.setdefault(scale.key(xs[k], r), (k, r))
    return [
        UltrametricBall(cen.fracs[k], r, scale.p)
        for k, r in (seen[key] for key in sorted(seen))
    ]


def _special(cen: _Centres, vf: list[list]) -> list[UltrametricBall]:
    """Special balls from the centres and the levels vf[j] of v(f(B[j]))."""
    cands = [(k, r) for ids, rs in zip(cen.ids, vf) for k in ids for r in rs]
    # the distance balls around one centre differ by radius only, so any
    # order among them keeps the first-seen centre of every key
    cands += [(k, r) for k, row in enumerate(cen.dist) for r in set(row)]
    return _balls(cen, cands)


def _laff(cen: _Centres) -> list[UltrametricBall]:
    cands = [(k, r) for k, row in enumerate(cen.dist) for r in set(row)]
    for ids in cen.ids:
        radii = {cen.dist[i][k] for i in ids for k in ids}
        cands += [(k, r) for k in ids for r in radii]
    return _balls(cen, cands)


def _f_levels(F, B: Sequence, p: int) -> list[list]:
    return [[valuation(f(b), p) for f in F] for b in B]


def dedupe_balls(balls: Sequence[UltrametricBall]) -> list[UltrametricBall]:
    """One ball per extent, the first seen, in key order."""
    scale = _scale_of(balls)
    seen: dict[tuple, UltrametricBall] = {}
    for b in balls:
        seen.setdefault(scale.key(scale.x(b.center), b.radius), b)
    return [seen[k] for k in sorted(seen)]


def special_balls(F, C, B: Sequence, p: int) -> list[UltrametricBall]:
    """Deduplicated special balls of a parameter set: around each center
    c(b) a ball of radius v(f(b)) for every f in F, plus balls reaching from
    every center to every other center."""
    return _special(_Centres(C, B, p), _f_levels(F, B, p))


def laff_balls(C, B: Sequence, p: int) -> list[UltrametricBall]:
    """Ball family for the affine reduct: pairwise-distance balls plus, per
    parameter, balls of every same-parameter distance radius around each of
    its centers."""
    return _laff(_Centres(C, B, p))


@dataclass
class BallForest:
    """Containment forest of a ball family; `scale`, `xs` and `rs` are the
    balls' scale, scaled centres and radius levels."""

    balls: list[UltrametricBall]
    parent: list[Optional[int]]
    children: list[list[int]]
    roots: list[int]
    scale: _Scale
    xs: list[int]
    rs: list

    def locate(self, x: Fraction) -> int:
        """Index of the deepest ball containing x; len(balls) for the outer
        region."""
        scale, xs, rs, children = self.scale, self.xs, self.rs, self.children
        aD, d = x.numerator * scale.D, x.denominator
        e = split_p(d, scale.p)[0]
        cur = len(self.balls)
        frontier = self.roots
        while True:
            for j in frontier:
                if scale.inside(aD - xs[j] * d, e, rs[j]):
                    cur = j
                    frontier = children[j]
                    break
            else:
                return cur


def ball_forest(balls: Sequence[UltrametricBall]) -> BallForest:
    """Containment forest of a deduplicated ball family; by the ultrametric
    property comparability coincides with intersection.  A ball's parent is
    the deepest strictly larger ball around its centre: the first key present
    at the levels below its radius, deepest first, else the whole line when
    the family has it."""
    balls = dedupe_balls(balls)
    scale = _scale_of(balls)
    xs = [scale.x(b.center) for b in balls]
    rs = [b.radius for b in balls]
    index = {scale.key(X, r): i for i, (X, r) in enumerate(zip(xs, rs))}
    levels = sorted({r for r in rs if -INF < r < INF}, reverse=True)
    whole = index.get((-1, 0, 0))
    parent: list[Optional[int]] = []
    for X, r in zip(xs, rs):
        best = None
        if r != -INF:
            for lv in levels:
                if lv >= r:
                    continue
                best = index.get(scale.key(X, lv))
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
    return BallForest(balls, parent, children, roots, scale, xs, rs)


@dataclass(frozen=True)
class Subinterval:
    """Atom of the ball boolean algebra: an outer ball around `center` minus
    at most p-1 removed balls at the single radius `alpha_u`.

    alpha_l = INF encodes the point atom {center}; alpha_l = -INF encodes
    the complement of the root balls.
    """

    center: Fraction
    alpha_l: Level
    alpha_u: Level
    removed: tuple[Fraction, ...]
    p: int

    def member(self, x: Fraction) -> bool:
        if self.alpha_l == INF:
            return x == self.center
        if not valuation(x - self.center, self.p) > self.alpha_l:
            return False
        for rep in self.removed:
            if self.alpha_u == INF:
                if x == rep:
                    return False
            elif valuation(x - rep, self.p) > self.alpha_u:
                return False
        return True

    def t_val(self, x: Fraction) -> Level:
        return valuation(x - self.center, self.p)


def arrangement(balls: Sequence[UltrametricBall]) -> tuple[BallForest, list[tuple[int, Subinterval]]]:
    """Forest plus atoms tagged by forest node (the outer atom carries the
    virtual node index len(balls)).  A node exactly tiled by its p children
    contributes no atom."""
    forest = ball_forest(balls)
    if not forest.balls:
        return forest, [(0, Subinterval(Fraction(0), -INF, INF, (), 3))]
    p, scale, xs, rs, fballs = forest.balls[0].p, forest.scale, forest.xs, forest.rs, forest.balls

    def removal(outer: Level, kids: list[int]) -> Optional[Subinterval]:
        if len({rs[j] for j in kids}) > 1:
            raise ArrangementError("sibling balls at unequal radii")
        a_u = rs[kids[0]]
        kids = sorted(kids, key=xs.__getitem__)
        centers = tuple(fballs[j].center for j in kids)
        if len(kids) > p:
            raise ArrangementError("more than p sibling balls")
        if len(kids) == p:
            if not -INF < a_u < INF:
                raise ArrangementError("p point siblings cannot tile a ball")
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    if scale.level(xs[kids[i]] - xs[kids[j]]) != a_u:
                        raise ArrangementError("p siblings not at a common sphere")
            if not outer < a_u - 1:
                return None  # the children tile the node exactly
            return Subinterval(centers[0], outer, a_u - 1, centers[:1], p)
        return Subinterval(centers[0], outer, fballs[kids[0]].radius, centers, p)

    atoms: list[tuple[int, Subinterval]] = []
    for i, ball in enumerate(fballs):
        kids = forest.children[i]
        if rs[i] == INF:
            atoms.append((i, Subinterval(ball.center, INF, INF, (), p)))
        elif not kids:
            atoms.append((i, Subinterval(ball.center, ball.radius, INF, (), p)))
        else:
            sub = removal(ball.radius, kids)
            if sub is not None:
                atoms.append((i, sub))
    if not any(rs[i] == -INF for i in forest.roots):
        sub = removal(-INF, forest.roots)
        if sub is not None:
            atoms.append((len(fballs), sub))
    return forest, atoms


def subinterval_atoms(balls: Sequence[UltrametricBall]) -> list[Subinterval]:
    return [sub for _, sub in arrangement(balls)[1]]
