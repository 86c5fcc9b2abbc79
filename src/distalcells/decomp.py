"""Distal cell decompositions: instantiation, the coverage / non-crossing
verifier, and shatter-function estimation.

A decomposition is a map B -> list of cells, where each cell carries an exact
membership predicate and a canonical extent key for deduplication.  An
emitted cell is, by the definition of T(B), excluded by no parameter of B,
so a cell carries no exclusion test: I(Delta) at a parameter b outside B is
read by heredity, b being in I(Delta) exactly when Delta is gone from
T(B + [b]), and each engine applies I(Delta) only where its construction
drops potential cells.  Verification is exact in one dimension
(`census_probes_1d` is exhaustive) and probe-based in higher dimensions:
failures are always genuine, and a success covers only the cells that hold
a probe.

One locator, `interval_locator`, serves every engine whose cells have an
interval extent along one axis (omin1d and 1-D vector-linear on x1, planar
induction's base intervals on x2): the intervals' endpoints give the rank
positions of `linear.position`, and each position lists the cells whose
interval spans it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Optional, Sequence

from .families import ParamFamily, as_point, census_probes_1d, fast_truth_masks
from .linear import Iv, position
from .rng import SplitMix64

Point = tuple[Fraction, ...]


@dataclass
class CellInstance:
    """One cell of a decomposition instance.  Each field, and what reads it:

    - template: the template's name; verify's crossing witness, induction.
    - params: the parameters from B that define the cell; induction.
    - member: point membership; verify, induction.
    - extent_key: canonical extent; dedupe_cells.
    - region: the engine's own record of where the cell lies, opaque here:
      the `Iv` of an omin1d or 1-D vector-linear cell, the Presburger run,
      the p-adic `Region`, or a cylinder's `induction._Region`.  It is
      read by the engine's locator and by induction's cylinders above.
    """

    template: str
    params: tuple
    member: Callable[[Point], bool]
    extent_key: object
    region: object = None


@dataclass
class Decomposition:
    """A map B -> cells.  `locator_fn(cells)`, when given, returns
    `locate(a)`: the indices of the cells that can contain the point a."""

    name: str
    instantiate_fn: Callable[[list], list[CellInstance]]
    locator_fn: Optional[Callable[[list], Callable[[Point], Iterable[int]]]] = None

    def instantiate(self, B: Sequence) -> list[CellInstance]:
        # a scalar is the 1-tuple the engines make of it, so 0 and (0,) collide
        B = [b if isinstance(b, tuple) else (b,) for b in B]
        if len(set(B)) != len(B):
            raise ValueError("parameter set contains duplicates")
        if not B:
            # no parameter crosses anything: the whole space is one cell
            return [
                CellInstance(
                    template="full", params=(),
                    member=lambda a: True, extent_key=("full",),
                )
            ]
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


def dedupe_cells(cells: list[CellInstance]) -> list[CellInstance]:
    """One representative per extent key (extensional keys are the engines'
    responsibility)."""
    seen = set()
    out = []
    for c in cells:
        if c.extent_key not in seen:
            seen.add(c.extent_key)
            out.append(c)
    return out


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
    required.  Every probe's truth mask comes from one `fast_truth_masks`
    call over the sorted, deduplicated probes, for every family kind and
    dimension; the census is the number of distinct masks.
    """
    B = [as_point(b, family.param_dim) for b in B]
    cells = decomp.instantiate(B)
    raw = len(cells)

    # dedupe in first-seen order: sorting the probes' own runs is cheaper
    own = census_probes_1d(family, B) if family.point_dim == 1 else []
    pts = sorted(dict.fromkeys(as_point(a, family.point_dim) for a in chain(own, probes or ())))
    if not pts:
        raise ValueError("probes are required for this verification")

    cells = dedupe_cells(cells)

    # membership table over the locator's candidates; the empty-B cell comes
    # from Decomposition.instantiate, not the engine, so its locator is skipped
    if decomp.locator_fn is not None and B:
        locate = decomp.locator_fn(cells)
    else:
        every = range(len(cells))
        locate = lambda a: every  # noqa: E731
    mems = [c.member for c in cells]
    members: list[list[int]] = [[] for _ in cells]
    covered_flags = []
    for pi, a in enumerate(pts):
        hit = False
        for ci in locate(a):
            if mems[ci](a):
                members[ci].append(pi)
                hit = True
        covered_flags.append(hit)

    covered = all(covered_flags)
    first_uncovered = None
    if not covered:
        first_uncovered = pts[covered_flags.index(False)]

    # drop probe-empty duplicates for the deduped count (extensionally equal
    # cells collapse; engines with canonical keys are already distinct)
    nonempty = [ci for ci in range(len(cells)) if members[ci]]
    ext_seen = set()
    deduped = 0
    for ci in nonempty:
        key = frozenset(members[ci])
        if key not in ext_seen:
            ext_seen.add(key)
            deduped += 1

    masks = fast_truth_masks(family, B, pts)

    uncrossed = True
    witness = None
    for ci in nonempty:
        idxs = members[ci]
        m0 = masks[idxs[0]]
        for pi in idxs[1:]:
            if masks[pi] != m0:
                uncrossed = False
                diff = masks[pi] ^ m0
                bit = (diff & -diff).bit_length() - 1
                pred_idx, b_idx = divmod(bit, len(B)) if B else (0, 0)
                witness = (
                    cells[ci].template,
                    pred_idx,
                    B[b_idx] if B else (),
                    pts[idxs[0]],
                    pts[pi],
                )
                break
        if not uncrossed:
            break

    census = len({m for m in masks})
    return VerificationReport(
        covered=covered,
        first_uncovered=first_uncovered,
        uncrossed=uncrossed,
        crossing_witness=witness,
        cell_count_raw=raw,
        cell_count_deduped=deduped,
        census_lower_bound=census,
        probe_count=len(pts),
    )


def _span(cuts: list, iv: Iv) -> tuple[int, int]:
    """(lo, hi): iv holds exactly the positions lo..hi.  Each finite end of
    iv is in `cuts`, so it is a cut at an odd position, never a value inside
    a gap."""
    lo = 0 if iv.lo is None else position(cuts, iv.lo) + iv.lo_open
    hi = 2 * len(cuts) if iv.hi is None else position(cuts, iv.hi) - iv.hi_open
    return lo, hi


def interval_locator(ivs: Sequence[Iv], axis: int) -> Callable[[Point], list[int]]:
    """`locate(a)` over cells whose extents along `axis` are `ivs` (cell i
    lies inside ivs[i] there): the intervals' endpoints, sorted, give the
    positions of `linear.position`, and slot p lists the cells whose
    interval spans p, so a[axis] picks the cells that can contain a."""
    cuts = sorted({v for iv in ivs for v in (iv.lo, iv.hi) if v is not None})
    slots: list[list[int]] = [[] for _ in range(2 * len(cuts) + 1)]
    for ci, iv in enumerate(ivs):
        lo, hi = _span(cuts, iv)
        for p in range(lo, hi + 1):
            slots[p].append(ci)
    return lambda a: slots[position(cuts, a[axis])]


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
    """Max deduped cell count per size over seeded trials, plus the fitted
    log-log slope.  Each trial draws from its own split PRNG stream."""
    master = SplitMix64(seed)
    rows = []
    for n in sizes:
        for t in range(trials):
            cells = decomp.instantiate(generator(master.split(n, t), n))
            rows.append(ShatterRow(n, t, len(cells), len(dedupe_cells(cells))))

    max_counts = []
    for n in sizes:
        max_counts.append(max(r.cells_deduped for r in rows if r.n == n))
    slope, degenerate = fit_loglog_slope(list(sizes), max_counts)
    return ShatterTable(rows, list(sizes), max_counts, slope, degenerate)
