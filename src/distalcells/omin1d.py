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
of positions below an int threshold (0 is empty, 2k + 1 the whole line), a
cell is a closed range of positions, and the exclusion test compares that
range with the position spans of a parameter's components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .decomp import CellInstance, Decomposition, interval_locator, param_index
from .families import ParamFamily, as_point
from .linear import Iv, _to_ints, decode, position


@dataclass(frozen=True)
class DownwardSet:
    pred: int
    comp: int
    flavor: str  # "<=" or "<"
    param_index: int
    threshold: int  # the positions below it


def _span(cuts: list, comp: Iv) -> tuple[int, int, int, int]:
    """(lo, lo_in, hi_in, hi): the component meets the positions lo..hi and
    holds all of lo_in..hi_in.  The two differ only at an endpoint strictly
    inside a gap, which splits that gap."""
    lo = lo_in = 0
    if comp.lo is not None:
        p = position(cuts, comp.lo)
        if p % 2 == 0:
            lo, lo_in = p, p + 1
        else:
            lo = lo_in = p + comp.lo_open
    hi = hi_in = 2 * len(cuts)
    if comp.hi is not None:
        p = position(cuts, comp.hi)
        if p % 2 == 0:
            hi, hi_in = p, p - 1
        else:
            hi = hi_in = p - comp.hi_open
    return lo, lo_in, hi_in, hi


def _crossed(spans: list, lo: int, hi: int) -> bool:
    """Do the components with these spans cross the positions lo..hi: does
    one meet them while none holds them all?"""
    meets = False
    for c_lo, c_lo_in, c_hi_in, c_hi in spans:
        if c_lo_in <= lo and hi <= c_hi_in:
            return False
        meets = meets or (c_lo <= hi and lo <= c_hi)
    return meets


class ComponentTable:
    """The spans of every predicate's components, over the positions of the
    component endpoints at B: `rows[j]` at B[j], computed once per
    decomposition instance, and `spans(b)` afresh at any parameter b."""

    def __init__(self, family: ParamFamily, B: Sequence):
        self.family = family
        self.B = [as_point(b, family.param_dim) for b in B]
        comps = [self._components(b) for b in self.B]
        self.cuts = sorted({
            v for per_b in comps for cs in per_b for c in cs
            for v in (c.lo, c.hi) if v is not None
        })
        self.rows = [self._spans(cs) for cs in comps]

    def _components(self, b: tuple) -> list[list[Iv]]:
        fam = self.family
        if fam.kind == "semilinear":  # b scaled once for every predicate
            vals, den = _to_ints(b)
            vals.insert(0, 0)
            return [c.at(vals, den, (0,)).pieces() for c in fam.compiled]
        return [fam.components(pi, b) for pi in range(len(fam.preds))]

    def _spans(self, comps: list[list[Iv]]) -> list[list[tuple]]:
        return [[_span(self.cuts, c) for c in cs] for cs in comps]

    def spans(self, b: tuple) -> list[list[tuple]]:
        return self._spans(self._components(b))


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
            for ci, (lo, _, _, hi) in enumerate(spans):
                # up to some point of the component, and below all of it
                sets.append(DownwardSet(pi, ci, "<=", bi, hi + 1))
                sets.append(DownwardSet(pi, ci, "<", bi, lo))
    sets.sort(key=lambda d: (d.threshold, d.pred, d.comp, d.flavor, d.param_index))
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
        B, index = table.B, param_index(table.B)

        def excluded(b, lo: int, hi: int) -> bool:
            j = index(b)
            at_b = table.rows[j] if j is not None else table.spans(b)
            return any(_crossed(spans, lo, hi) for spans in at_b)

        cells = []
        for (lo, hi), lo_src, hi_src in chain_atoms(downward_family(table), 2 * len(table.cuts) + 1):
            iv = decode(table.cuts, (lo, hi))
            params = tuple(
                B[d.param_index] for d in (lo_src, hi_src) if d is not None
            )
            cells.append(
                CellInstance(
                    template=f"{_source_label(hi_src)}\\{_source_label(lo_src)}",
                    params=params,
                    member=lambda a, iv=iv: iv.member(a[0]),
                    excluded=lambda b, lo=lo, hi=hi: excluded(b, lo, hi),
                    extent_key=(iv.lo, iv.lo_open, iv.hi, iv.hi_open),
                    interval=iv,
                )
            )
        return cells

    return Decomposition(
        name="omin1d",
        instantiate_fn=inst,
        locator_fn=interval_locator,
    )
