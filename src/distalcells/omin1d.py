"""One-dimensional distal cell decomposition over a dense order.

Each predicate of an interval-capable family splits into at most N ordered
convex components per parameter.  Taking downward closures (inclusive and
strict) of every component yields a family of downward-closed sets that is a
chain under inclusion; its boolean-algebra atoms are the cells.  Every cell is
a difference of two chain members, so it is described by at most two
parameters, and there are at most |F(B)| + 1 = 2 N |Phi| |B| + 1 cells.

Instantiated over Q on rank positions (`linear.position`): the k distinct
component endpoints over B give positions 0..2k, an odd one for each
endpoint and an even one for each open gap.  A downward closure is the set
of positions below an int threshold (0 is empty, 2k + 1 the whole line),
and a cell is a closed range of positions.  The chain ranks its endpoints
as int keys on one scale per instance, M (`ComponentTable.scale`): the
endpoint v is the int v M.  Fractions appear only in the decoded cells,
one key / M per endpoint.

No parameter of B excludes a cell, so T(B) is every atom: a component C
at b in B is the difference of its two closures, both chain members, so C
and each predicate at b are unions of atoms and cross none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .decomp import CellInstance, Decomposition, interval_locator
from .families import ParamFamily, as_point
from .linear import Compiled, Iv, _to_ints, decode, position


@dataclass(frozen=True)
class DownwardSet:
    pred: int
    comp: int
    flavor: str  # "<=" or "<"
    b_index: int
    threshold: int  # the positions below it


def _span(cuts: list, iv: Iv) -> tuple[int, int]:
    """(lo, hi): iv, with int key ends, holds exactly the positions lo..hi.
    Each finite end of iv is in `cuts`, so it is a cut at an odd position,
    never a value inside a gap."""
    lo = 0 if iv.lo is None else position(cuts, iv.lo) + iv.lo_open
    hi = 2 * len(cuts) if iv.hi is None else position(cuts, iv.hi) - iv.hi_open
    return lo, hi


class ComponentTable:
    """The spans of every predicate's components at each parameter of B,
    over the positions of the component ends at B: `rows[j]` at B[j],
    computed once per decomposition instance.  Each end v is the int key
    v * scale, on one scale per instance: the lcm of every row's x
    coefficient at every b of a semilinear family (`Compiled.pieces` ranks
    its roots on it), or of an interval family's end denominators.  `cuts`
    are the distinct keys, sorted."""

    def __init__(self, family: ParamFamily, B: Sequence):
        self.family = family
        self.B = [as_point(b, family.param_dim) for b in B]
        if family.kind == "semilinear":
            at = [self._rows(b) for b in self.B]
            self.scale = lcm(*(c for per_b in at for r in per_b for (c,), _, _ in r.rows if c))
            comps = [[r.pieces(self.scale) for r in per_b] for per_b in at]
        else:
            ivs = [[family.components(pi, b) for pi in range(len(family.preds))] for b in self.B]
            ends = [v for per_b in ivs for cs in per_b for c in cs for v in (c.lo, c.hi)
                    if v is not None]
            keys, self.scale = _to_ints(ends)
            key = dict(zip(ends, keys))
            comps = [[[Iv(key.get(c.lo), c.lo_open, key.get(c.hi), c.hi_open) for c in cs]
                      for cs in per_b] for per_b in ivs]
        self.cuts = sorted({
            v for per_b in comps for cs in per_b for c in cs
            for v in (c.lo, c.hi) if v is not None
        })
        self.rows = [[[_span(self.cuts, c) for c in cs] for cs in per_b] for per_b in comps]

    def _rows(self, b: tuple) -> list[Compiled]:
        """Every predicate's rows in x at b, b scaled once for all of them."""
        vals, den = _to_ints(b)
        vals.insert(0, 0)
        return [c.at(vals, den, (0,)) for c in self.family.compiled]

    def values(self) -> list[Fraction]:
        """The cuts as the rationals key / scale."""
        return [Fraction(key, self.scale) for key in self.cuts]


def downward_family(table: ComponentTable) -> list[DownwardSet]:
    """All component closures over Phi x B, sorted by inclusion (ties keep
    predicate / component / flavor / parameter order)."""
    family = table.family
    full = 2 * len(table.cuts) + 1
    sets: list[DownwardSet] = []
    for pi in range(len(family.preds)):
        bound = family.component_bound(pi)
        for bi, row in enumerate(table.rows):
            spans = row[pi]
            if len(spans) > bound:
                raise ValueError(f"predicate {pi} exceeds its component bound")
            # index 0 of an empty predicate still gives phi^0_<= = {} and
            # phi^0_< = M, so both stay in the family
            if not spans:
                sets.append(DownwardSet(pi, 0, "<=", bi, 0))
                sets.append(DownwardSet(pi, 0, "<", bi, full))
            for ci, (lo, hi) in enumerate(spans):
                # up to some point of the component, and below all of it
                sets.append(DownwardSet(pi, ci, "<=", bi, hi + 1))
                sets.append(DownwardSet(pi, ci, "<", bi, lo))
    sets.sort(key=lambda d: (d.threshold, d.pred, d.comp, d.flavor, d.b_index))
    return sets


def chain_atoms(
    sets: list[DownwardSet], full: int
) -> list[tuple[tuple[int, int], Optional[DownwardSet], Optional[DownwardSet]]]:
    """Atoms of the boolean algebra generated by a chain of downward sets,
    sorted by threshold, where `full` is the threshold of the whole line:
    successive differences plus the complement of the maximal element.

    Returns (positions lo..hi, lower source, upper source); the first set of
    each threshold is its source, and the empty set bounds no atom.
    """
    atoms = []
    prev: Optional[DownwardSet] = None
    below = 0
    for d in sets:
        if d.threshold > below:
            atoms.append(((below, d.threshold - 1), prev, d))
            prev, below = d, d.threshold
    if below < full:
        atoms.append(((below, full - 1), prev, None))
    return atoms


def _source_label(d: Optional[DownwardSet]) -> str:
    if d is None:
        return "-"
    return f"phi{d.pred}^{d.comp}_{d.flavor}"


def build_decomposition(family: ParamFamily) -> Decomposition:
    """The 2-parameter chain decomposition for an interval-capable family."""
    if family.point_dim != 1:
        raise ValueError("omin1d requires |x| = 1")

    def inst(B: list) -> list[CellInstance]:
        table = ComponentTable(family, B)
        B, values = table.B, table.values()
        cells = []
        for (lo, hi), lo_src, hi_src in chain_atoms(downward_family(table), 2 * len(table.cuts) + 1):
            iv = decode(values, (lo, hi))
            params = tuple(
                B[d.b_index] for d in (lo_src, hi_src) if d is not None
            )
            cells.append(
                CellInstance(
                    template=f"{_source_label(hi_src)}\\{_source_label(lo_src)}",
                    params=params,
                    extent_key=(iv.lo, iv.lo_open, iv.hi, iv.hi_open),
                    region=iv,
                )
            )
        return cells

    return Decomposition(
        name="omin1d",
        instantiate_fn=inst,
        locator_fn=lambda cells: interval_locator([c.region for c in cells]),
    )
