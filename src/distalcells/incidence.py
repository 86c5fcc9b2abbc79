"""Incidence combinatorics at desk scale: complete-bipartite-freeness
certificates, Zarankiewicz ratio sweeps on grid point-line systems, and the
two sum-product incidence identities.

Counting is exact over Q; the p-adic runs use rational representatives with
exact equality, which counts the same sets.  The counters scale each
instance once by the lcm of its denominators and then compare and sum
Python ints: they test only equality, order and integrality, which the
scaling preserves.

The K_{s,u} search reads the neighborhoods of the point-line relation
`line_edge` from lookups: a line meets each vertical x1 = c in one point, so
each line costs one exact evaluation per distinct x1 of the points.  Any
other relation keeps the pairwise test over P x Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

MAX_KSU_POINTS = 2000  # exhaustive search guard


def _common_denominator(values) -> int:
    """The lcm of the denominators: times it, every value is an int."""
    return math.lcm(*(v.denominator for v in values))


@dataclass
class BipartiteInstance:
    P: list
    Q: list
    edge: Callable[[object, object], bool]


@dataclass(frozen=True)
class BoundProfile:
    """Exponents of the polynomial incidence bound for K_{s,u}-free relations
    with a decomposition of exponent t: |E| <= alpha (m^q n^r + m + n)."""

    s: int
    u: int
    t: Fraction

    @property
    def q(self) -> Fraction:
        return (self.t - 1) * self.s / (self.t * self.s - 1)

    @property
    def r(self) -> Fraction:
        return self.t * (self.s - 1) / (self.t * self.s - 1)


def _line_masks(P: Sequence, lines: Sequence[Line]) -> list[int]:
    """Bit j of entry i is set iff P[i] lies on lines[j], as `line_edge`
    decides it.  A line meets the vertical x1 = c in the one point
    (c, y2 (c - y1)), so each line costs one exact evaluation and one dict
    lookup per distinct x1 of P, not one test per point."""
    columns: dict = {}
    for i, p in enumerate(P):
        columns.setdefault(p[0], {}).setdefault(p[1], []).append(i)
    nbhd = [0] * len(P)
    for j, ln in enumerate(lines):
        bit = 1 << j
        for x1, column in columns.items():
            for i in column.get(ln.y2 * (x1 - ln.y1), ()):
                nbhd[i] |= bit
    return nbhd


def contains_ksu(instance: BipartiteInstance, s: int, u: int):
    """Exhaustive search for K_{s,u}: an s-subset of P whose common
    neighborhood in Q has size >= u.  Returns (found, witness).

    The neighborhoods of the point-line relation `line_edge` come from
    `_line_masks` lookups; any other relation is tested on every pair of
    P x Q.  Both give the same masks, so the search and its witness do not
    depend on the path."""
    if len(instance.P) > MAX_KSU_POINTS:
        raise ValueError(f"exhaustive search capped at {MAX_KSU_POINTS} points")
    if s > len(instance.P) or u > len(instance.Q):
        return False, None
    if instance.edge is line_edge:
        nbhd = _line_masks(instance.P, instance.Q)
    else:
        nbhd = []
        for p in instance.P:
            mask = 0
            for j, q in enumerate(instance.Q):
                if instance.edge(p, q):
                    mask |= 1 << j
            nbhd.append(mask)
    order = sorted(range(len(instance.P)), key=lambda i: -nbhd[i].bit_count())

    def extend(start: int, chosen: list[int], common: int):
        if common.bit_count() < u:
            return None
        if len(chosen) == s:
            qs = [instance.Q[j] for j in range(len(instance.Q)) if common >> j & 1]
            return ([instance.P[i] for i in chosen], qs[:u])
        for k in range(start, len(order)):
            i = order[k]
            got = extend(k + 1, chosen + [i], common & nbhd[i])
            if got is not None:
                return got
        return None

    witness = extend(0, [], (1 << len(instance.Q)) - 1)
    return witness is not None, witness


@dataclass(frozen=True)
class Line:
    """The incidence relation y2 (x1 - y1) = x2: a line of slope y2 through
    (y1, 0)."""

    y1: Fraction
    y2: Fraction

    def through(self, x1: Fraction, x2: Fraction) -> bool:
        # y2 (x1 - y1) = x2 with every (nonzero) denominator multiplied out
        y1, y2 = self.y1, self.y2
        diff = x1.numerator * y1.denominator - y1.numerator * x1.denominator
        return (y2.numerator * diff * x2.denominator
                == x2.numerator * y2.denominator * x1.denominator * y1.denominator)

    @property
    def slope_intercept(self) -> tuple[Fraction, Fraction]:
        return (self.y2, -self.y2 * self.y1)


def line_edge(p, line: Line) -> bool:
    return line.through(p[0], p[1])


def certify_lines_pairwise_distinct(lines: Sequence[Line]) -> bool:
    """Distinct (slope, intercept) pairs: over a domain two distinct lines
    meet in at most one point, so the incidence relation omits K_{2,2}."""
    seen = set()
    for ln in lines:
        key = ln.slope_intercept
        if key in seen:
            return False
        seen.add(key)
    return True


@dataclass
class GridInstance:
    """Slope-bounded line family through an integer grid.

    For a requested line count n (divisible by 16): slopes 1..4, intercepts
    1..n/4, grid [1..n/16] x [1..n/4 + n/16*4]; every line meets the grid in
    exactly n/16 points, all incidences counted exactly."""

    n_lines: int
    width: int
    height: int
    lines: list[Line]

    @property
    def n_points(self) -> int:
        return self.width * self.height

    def count_incidences(self) -> int:
        total = 0
        for ln in self.lines:
            s, t = ln.slope_intercept
            # y = s x + t is a grid height iff L y = S x + T is a multiple of L
            L = _common_denominator((s, t))
            S, T = int(s * L), int(t * L)
            top = self.height * L
            for x in range(1, self.width + 1):
                num = S * x + T
                if L <= num <= top and num % L == 0:
                    total += 1
        return total


def elekes_grid_instance(n_lines: int) -> GridInstance:
    if n_lines % 16 != 0:
        raise ValueError("line count must be divisible by 16")
    k = n_lines // 16
    height = 4 * k + n_lines // 4
    lines = []
    for s in range(1, 5):
        for t in range(1, n_lines // 4 + 1):
            # x2 = s*(x1) + t as an instance of y2 (x1 - y1) = x2
            lines.append(Line(Fraction(-t, s), Fraction(s)))
    return GridInstance(n_lines, k, height, lines)


@dataclass
class ZarankiewiczRow:
    n_lines: int
    m: int
    n: int
    edges: int
    q: Fraction
    r: Fraction
    ratio: float


def zarankiewicz_check(instance: GridInstance, profile: BoundProfile) -> ZarankiewiczRow:
    """Exact incidence count against the bound envelope m^q n^r + m + n; the
    instance must be certified K_{s,u}-free first."""
    if not certify_lines_pairwise_distinct(instance.lines):
        raise ValueError("instance is not certified K_{2,2}-free")
    m, n = instance.n_points, instance.n_lines
    edges = instance.count_incidences()
    envelope = float(m) ** float(profile.q) * float(n) ** float(profile.r) + m + n
    return ZarankiewiczRow(
        n_lines=n, m=m, n=n, edges=edges,
        q=profile.q, r=profile.r, ratio=edges / envelope,
    )


def zarankiewicz_sweep(sizes: Sequence[int], profile: Optional[BoundProfile] = None):
    profile = profile or BoundProfile(2, 2, Fraction(2))
    rows = [zarankiewicz_check(elekes_grid_instance(n), profile) for n in sizes]
    ratios = [r.ratio for r in rows]
    bounded = all(
        ratios[i + 1] <= ratios[i] * 1.05 for i in range(len(ratios) - 3, len(ratios) - 1)
    ) if len(ratios) >= 3 else True
    return rows, bounded


# ---------------------------------------------------------------------------
# Sum-product experiments
# ---------------------------------------------------------------------------


@dataclass
class SumProductReport:
    size: int
    sumset: int
    productset: int
    incidences: int
    lower_bound: int
    max_size: int
    exponent: float  # log_|A| of max(|A+A|, |A.A|)


def sum_product_experiment(A: Sequence[Fraction]) -> SumProductReport:
    """Points (A+A) x (A.A) against the lines through Q = A x A; every line
    picks up at least |A| points, so the incidence count is at least |A|^3.

    Counted on ints: A is scaled by the lcm D of its denominators, so the
    sums are scaled by D and the products by D^2."""
    A = sorted(set(Fraction(a) for a in A))
    if not A:
        raise ValueError("A must be nonempty")
    D = _common_denominator(A)
    Ai = [int(a * D) for a in A]
    sums = {a + b for a in Ai for b in Ai}
    prods = {a * b for a in Ai for b in Ai}
    count = 0
    for a in Ai:
        # line y2 = b through (a, 0): points (x1, b*(x1 - a))
        diffs = [x1 - a for x1 in sums]
        for b in Ai:
            count += sum(1 for d in diffs if b * d in prods)
    lower = len(A) ** 3
    mx = max(len(sums), len(prods))
    expo = math.log(mx) / math.log(len(A)) if len(A) > 1 else 0.0
    return SumProductReport(
        size=len(A), sumset=len(sums), productset=len(prods),
        incidences=count, lower_bound=lower, max_size=mx, exponent=expo,
    )


@dataclass
class SumBBReport:
    a_size: int
    b_size: int
    sum_bb: int
    incidences: int
    expected: int


def sum_bb_experiment(A: Sequence[Fraction], B: Sequence[Fraction]) -> SumBBReport:
    """Points B x (A + B.B) against lines y1 + y2 x1 = x2 through A x B: each
    line meets exactly one point per first coordinate, so |E| = |A||B|^2.

    Counted on ints: with one lcm D over A and B, A is scaled by D^2 and B
    by D, so A + B.B is scaled by D^2."""
    A = sorted(set(Fraction(a) for a in A))
    B = sorted(set(Fraction(b) for b in B))
    if not A or not B:
        raise ValueError("A, B must be nonempty")
    if set(A) == {Fraction(0)} and set(B) == {Fraction(0)}:
        raise ValueError("degenerate input: both sets are {0}")
    D = _common_denominator(A + B)
    Ai = [int(a * D * D) for a in A]
    Bi = [int(b * D) for b in B]
    bb = {b1 * b2 for b1 in Bi for b2 in Bi}
    target = {a + c for a in Ai for c in bb}
    count = 0
    for a in Ai:
        for b in Bi:
            count += sum(1 for x1 in Bi if a + b * x1 in target)
    return SumBBReport(
        a_size=len(A), b_size=len(B), sum_bb=len(target),
        incidences=count, expected=len(A) * len(B) ** 2,
    )
