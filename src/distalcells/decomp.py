"""Distal cell decompositions: instantiation, the coverage / non-crossing
verifier, and shatter-function estimation.

A decomposition is a map B -> list of cells.  A cell is data: its template,
its parameters from B, a canonical extent key (distinct within an instance)
and the engine's record of where it lies.  Membership is asked of the whole
instance and all probes at once, by columns: the engine's locator returns
one probe bitmask per cell, bit i set exactly when the cell holds the i-th
probe.  An emitted cell is, by the definition of T(B), excluded by no
parameter of B, so a cell carries no exclusion test: I(Delta) at a
parameter b outside B is read by heredity, b being in I(Delta) exactly when
Delta is gone from T(B + [b]), and each engine applies I(Delta) only where
its construction drops potential cells.  Verification is exact in one
dimension (`census_probes_1d` is exhaustive) and probe-based in higher
dimensions: failures are always genuine, and a success covers only the
cells that hold a probe.

`verify` sorts and deduplicates its probes with `families.distinct_points`,
which compares them as int tuples on one denominator, never as Fractions.
A `Column` ranks the probes once by an int key and keeps the cumulative
prefix masks of that order, so the probes in a range of keys are one
bitmask found by two bisections.  A locator scales the probes to ints on
one denominator once (`families.probe_ints`).  One locator,
`interval_locator`, serves the 1-D engines whose cells are intervals
(omin1d and 1-D vector-linear): the probes' ints are the column, and each
cell's `Iv` is a range of it.  Vector-linear cells at |x| >= 2 AND such
ranges across their directions, and dimension induction's cylinders read
their fiber rows and bottom intervals off columns of the same kind.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence

from .families import (
    ParamFamily, as_point, census_probes_1d, distinct_points, fast_truth_masks, probe_ints,
)
from .linear import Iv
from .rng import SplitMix64

Point = tuple[Fraction, ...]


@dataclass
class CellInstance:
    """One cell of a decomposition instance, as data.  Each field, and what
    reads it:

    - template: the template's name; verify's crossing witness, induction.
    - params: the parameters from B that define the cell; induction.
    - extent_key: canonical extent, distinct within an instance; the
      heredity reading of I(Delta) matches cells across instances by it.
    - region: the engine's own record of where the cell lies, opaque here:
      the `Iv` of an omin1d or 1-D vector-linear cell, the (direction,
      `Iv`) pairs of a vector-linear cell at |x| >= 2, the Presburger run,
      the p-adic `Region`, or a cylinder's `induction._Region`.  It is
      read by the engine's locator and by induction's cylinders above.
    """

    template: str
    params: tuple
    extent_key: object
    region: object = None


@dataclass
class Decomposition:
    """A map B -> cells.  `locator_fn(cells)` returns `members(pts)`: given
    a list of distinct points, one int bitmask per cell, with bit i set
    exactly when the cell holds pts[i].  A single point is a list of one."""

    name: str
    instantiate_fn: Callable[[list], list[CellInstance]]
    locator_fn: Callable[[list], Callable[[Sequence[Point]], list[int]]]

    def instantiate(self, B: Sequence) -> list[CellInstance]:
        # a scalar is the 1-tuple the engines make of it, so 0 and (0,) collide
        B = [b if isinstance(b, tuple) else (b,) for b in B]
        if len(set(B)) != len(B):
            raise ValueError("parameter set contains duplicates")
        if not B:
            # no parameter crosses anything: the whole space is one cell
            return [CellInstance(template="full", params=(), extent_key=("full",))]
        return self.instantiate_fn(B)


@dataclass
class VerificationReport:
    covered: bool
    first_uncovered: Optional[Point]
    uncrossed: bool
    crossing_witness: Optional[tuple]  # (template, pred_idx, b, point1, point2)
    cell_count_raw: int
    cell_count_deduped: int
    census_lower_bound: int
    probe_count: int

    @property
    def count_ok(self) -> bool:
        return self.cell_count_deduped >= self.census_lower_bound

    @property
    def passed(self) -> bool:
        return self.covered and self.uncrossed and self.count_ok

    def to_dict(self) -> dict:
        return {
            "covered": self.covered,
            "first_uncovered": _fmt_point(self.first_uncovered),
            "uncrossed": self.uncrossed,
            "crossing_witness": _fmt_witness(self.crossing_witness),
            "cell_count_raw": self.cell_count_raw,
            "cell_count_deduped": self.cell_count_deduped,
            "census_lower_bound": self.census_lower_bound,
            "probe_count": self.probe_count,
            "passed": self.passed,
        }


def _fmt_point(pt):
    return None if pt is None else [str(v) for v in pt]


def _fmt_witness(w):
    if w is None:
        return None
    template, pred, b, p1, p2 = w
    return {
        "template": template,
        "pred": pred,
        "b": [str(v) for v in b],
        "points": [_fmt_point(p1), _fmt_point(p2)],
    }


def verify(
    decomp: Decomposition,
    family: ParamFamily,
    B: Sequence,
    probes: Optional[Sequence] = None,
) -> VerificationReport:
    """Check the defining properties of a decomposition instance against an
    independent probe census.

    For |x| = 1 `census_probes_1d` supplies all exact atom representatives,
    so coverage and crossing checks are exact; for |x| >= 2 caller probes are
    required.  The probes, given in any order and with repeats, are sorted
    and deduplicated by `distinct_points`, on their ints over one
    denominator, so the report depends only on the set of probes.  Every
    probe's truth mask comes from one `fast_truth_masks` call over them,
    for every family kind and dimension; the census is the number of
    distinct masks.

    The membership table is one probe bitmask per cell, from one call of
    the engine's locator.  Coverage is the OR of the masks, and the first
    uncovered probe its lowest zero bit.  The deduplicated count is the
    number of distinct nonempty masks.  The probes are grouped into one
    bitmask per truth mask, and a cell is crossed when it holds a probe
    outside the class of its first probe: the witness is the first such
    probe, with the lowest predicate bit where the two masks differ.
    """
    B = [as_point(b, family.param_dim) for b in B]
    cells = decomp.instantiate(B)
    raw = len(cells)

    own = census_probes_1d(family, B) if family.point_dim == 1 else []
    pts = distinct_points(chain(own, probes or ()), family.point_dim)
    if not pts:
        raise ValueError("probes are required for this verification")

    # the membership table; the empty-B cell comes from Decomposition.
    # instantiate, not the engine, and holds every point
    full = (1 << len(pts)) - 1
    members = decomp.locator_fn(cells)(pts) if B else [full]

    held = 0
    for m in members:
        held |= m
    gaps = full ^ held
    first_uncovered = pts[(gaps & -gaps).bit_length() - 1] if gaps else None

    # extensionally equal cells collapse; probe-empty cells are not counted
    deduped = len(set(members) - {0})

    masks = fast_truth_masks(family, B, pts)
    classes: dict[int, int] = {}  # truth mask -> the probes that have it
    for pi, t in enumerate(masks):
        classes[t] = classes.get(t, 0) | 1 << pi

    witness = None
    for ci, m in enumerate(members):
        if not m:
            continue
        first = (m & -m).bit_length() - 1
        rest = m & ~classes[masks[first]]
        if rest:
            pi = (rest & -rest).bit_length() - 1
            diff = masks[pi] ^ masks[first]
            bit = (diff & -diff).bit_length() - 1
            pred_idx, b_idx = divmod(bit, len(B))
            witness = (cells[ci].template, pred_idx, B[b_idx], pts[first], pts[pi])
            break

    return VerificationReport(
        covered=not gaps,
        first_uncovered=first_uncovered,
        uncrossed=witness is None,
        crossing_witness=witness,
        cell_count_raw=raw,
        cell_count_deduped=deduped,
        census_lower_bound=len(classes),
        probe_count=len(pts),
    )


class Column:
    """Probes ranked once by an int key each: `keys` in ascending order, and
    `prefix[r]` the bitmask of the probes of the r lowest keys, so a range
    of ranks is one XOR of two prefixes."""

    __slots__ = ("keys", "prefix")

    def __init__(self, keys: Sequence[int]):
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.keys = [keys[i] for i in order]
        self.prefix = prefix = [0]
        m = 0
        for i in order:
            m |= 1 << i
            prefix.append(m)

    def span(self, lo: int, hi: int) -> int:
        """The probes of ranks lo..hi - 1."""
        return self.prefix[hi] ^ self.prefix[lo] if hi > lo else 0

    def within(self, iv: Iv, scale: int) -> int:
        """The probes whose key / scale lies in iv.  An end v is compared as
        the int floor or ceiling of v scale, which decides key < v scale and
        key <= v scale exactly for int keys."""
        keys = self.keys
        lo, hi = 0, len(keys)
        if iv.lo is not None:
            n, d = iv.lo.numerator * scale, iv.lo.denominator
            lo = bisect_right(keys, n // d) if iv.lo_open else bisect_left(keys, -(-n // d))
        if iv.hi is not None:
            n, d = iv.hi.numerator * scale, iv.hi.denominator
            hi = bisect_left(keys, -(-n // d)) if iv.hi_open else bisect_right(keys, n // d)
        return self.span(lo, hi)


def interval_locator(ivs: Sequence[Iv]) -> Callable[[Sequence[Point]], list[int]]:
    """`members(pts)` over the cells of a 1-D instance whose extents are
    `ivs`: the probes, scaled to ints on one denominator, are ranked once,
    and each interval is a range of that column."""

    def members(pts: Sequence[Point]) -> list[int]:
        ints, q = probe_ints(pts)
        column = Column([n[0] for n in ints])
        return [column.within(iv, q) for iv in ivs]

    return members


@dataclass
class ShatterRow:
    n: int
    trial: int
    cells_raw: int
    cells_deduped: int


@dataclass
class ShatterTable:
    rows: list[ShatterRow]
    sizes: list[int]
    max_counts: list[int]
    slope: float
    degenerate: bool


def fit_loglog_slope(sizes: Sequence[int], counts: Sequence[int]) -> tuple[float, bool]:
    """Least-squares slope of log(count) against log(n).  Degenerate tables
    (all counts 0 or 1) report slope 0 with a flag."""
    pairs = [(n, c) for n, c in zip(sizes, counts) if c >= 1]
    if len(pairs) < 2 or all(c <= 1 for _, c in pairs):
        return 0.0, True
    xs = [math.log(n) for n, _ in pairs]
    ys = [math.log(c) for _, c in pairs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0:
        return 0.0, True
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / var, False


def shatter_estimate(
    decomp: Decomposition,
    generator: Callable[[SplitMix64, int], list],
    sizes: Sequence[int],
    trials: int,
    seed: int,
) -> ShatterTable:
    """Max cell count per size over seeded trials, plus the fitted log-log
    slope.  Each trial draws from its own split PRNG stream.  A row's raw
    and deduplicated counts agree, since every engine's extent keys are
    distinct within an instance."""
    master = SplitMix64(seed)
    rows = []
    for n in sizes:
        for t in range(trials):
            cells = decomp.instantiate(generator(master.split(n, t), n))
            rows.append(ShatterRow(n, t, len(cells), len(cells)))

    max_counts = []
    for n in sizes:
        max_counts.append(max(r.cells_deduped for r in rows if r.n == n))
    slope, degenerate = fit_loglog_slope(list(sizes), max_counts)
    return ShatterTable(rows, list(sizes), max_counts, slope, degenerate)
