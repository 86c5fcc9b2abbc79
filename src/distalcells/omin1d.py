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
and a cell is a closed range of positions.

No parameter of B excludes a cell, so T(B) is every atom: a component C
at b in B is the difference of its two closures, both chain members, so C
and each predicate at b are unions of atoms and cross none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .decomp import CellInstance, Decomposition, _span, interval_locator
from .families import ParamFamily, as_point
from .linear import Iv, _to_ints, decode


@dataclass(frozen=True)
class DownwardSet:
    pred: int
    comp: int
    flavor: str  # "<=" or "<"
    b_index: int
    threshold: int  # the positions below it


class ComponentTable:
    """The spans of every predicate's components at each parameter of B,
    over the positions of the component endpoints at B: `rows[j]` at B[j],
    computed once per decomposition instance."""

    def __init__(self, family: ParamFamily, B: Sequence):
        self.family = family
        self.B = [as_point(b, family.param_dim) for b in B]
        comps = [self._components(b) for b in self.B]
        self.cuts = sorted({
            v for per_b in comps for cs in per_b for c in cs
            for v in (c.lo, c.hi) if v is not None
        })
        self.rows = [[[_span(self.cuts, c) for c in cs] for cs in per_b] for per_b in comps]

    def _components(self, b: tuple) -> list[list[Iv]]:
        fam = self.family
        if fam.kind == "semilinear":  # b scaled once for every predicate
            vals, den = _to_ints(b)
            vals.insert(0, 0)
            return [c.at(vals, den, (0,)).pieces() for c in fam.compiled]
        return [fam.components(pi, b) for pi in range(len(fam.preds))]


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
        B = table.B
        cells = []
        for (lo, hi), lo_src, hi_src in chain_atoms(downward_family(table), 2 * len(table.cuts) + 1):
            iv = decode(table.cuts, (lo, hi))
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
        locator_fn=lambda cells: interval_locator([c.region for c in cells], 0),
    )
