"""One-dimensional distal cell decomposition over a dense order.

Each predicate of an interval-capable family splits into at most N ordered
convex components per parameter.  Taking downward closures (inclusive and
strict) of every component yields a family of downward-closed sets that is a
chain under inclusion; its boolean-algebra atoms are the cells.  Every cell is
a difference of two chain members, so it is described by at most two
parameters, and there are at most |F(B)| + 1 = 2 N |Phi| |B| + 1 cells.

Instantiated over Q: downward sets are represented by exact rational cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .decomp import CellInstance, Decomposition, interval_locator
from .families import ParamFamily, as_param
from .linear import Iv, crosses

# extent of a downward-closed subset of the line: empty, full, or a cut
EMPTY = ("empty",)
FULL = ("full",)


@dataclass(frozen=True)
class Cut:
    value: Fraction
    closed: bool  # (-inf, value] when closed, (-inf, value) otherwise


def cut_key(extent) -> tuple:
    if extent == EMPTY:
        return (0,)
    if extent == FULL:
        return (2,)
    return (1, extent.value, extent.closed)


@dataclass(frozen=True)
class DownwardSet:
    pred: int
    comp: int
    flavor: str  # "<=" or "<"
    param_index: int
    extent: tuple | Cut


def _closure_leq(comp: Optional[Iv]):
    # downward closure including the component: exists x0 in comp with x <= x0
    if comp is None:
        return EMPTY
    if comp.hi is None:
        return FULL
    return Cut(comp.hi, closed=not comp.hi_open)


def _closure_lt(comp: Optional[Iv]):
    # strictly below the whole component: forall x0 in comp, x < x0
    if comp is None:
        return FULL  # vacuous
    if comp.lo is None:
        return EMPTY
    return Cut(comp.lo, closed=comp.lo_open)


class ComponentTable:
    """family.components of every predicate at each parameter, computed once
    per decomposition instance.  Lookups go by the parameter's identity, so
    a hit hashes no Fraction."""

    def __init__(self, family: ParamFamily):
        self.family = family
        self._by_id: dict[int, tuple] = {}  # id(b) -> (b, comps); holds b alive

    def __call__(self, b: tuple) -> list[list[Iv]]:
        hit = self._by_id.get(id(b))
        if hit is None or hit[0] is not b:
            fam = self.family
            comps = [fam.components(pi, b) for pi in range(len(fam.preds))]
            hit = self._by_id[id(b)] = (b, comps)
        return hit[1]


def downward_family(
    family: ParamFamily, B: Sequence, table: Optional[ComponentTable] = None
) -> list[DownwardSet]:
    """All component closures over Phi x B, sorted by inclusion (ties keep
    predicate / component / flavor / parameter order).  An instance passes
    its own `table`, which keeps the components for its exclusion tests."""
    B = [as_param(b, family.param_dim) for b in B]
    if table is None:
        table = ComponentTable(family)
    sets: list[DownwardSet] = []
    per_b = [table(b) for b in B]
    for pi in range(len(family.preds)):
        bound = family.component_bound(pi)
        for bi in range(len(B)):
            comps = per_b[bi][pi]
            if len(comps) > bound:
                raise ValueError(f"predicate {pi} exceeds its component bound")
            # realized components only; index 0 is kept for the empty set so
            # that phi^1_<= = {} and phi^1_< = M still appear in the family
            for ci in range(max(1, len(comps))):
                comp = comps[ci] if ci < len(comps) else None
                sets.append(DownwardSet(pi, ci, "<=", bi, _closure_leq(comp)))
                sets.append(DownwardSet(pi, ci, "<", bi, _closure_lt(comp)))
    sets.sort(key=lambda d: (cut_key(d.extent), d.pred, d.comp, d.flavor, d.param_index))
    return sets


def _atom_between(lo_extent, hi_extent) -> Iv:
    """hi_extent minus lo_extent for nested downward sets lo < hi."""
    if lo_extent == EMPTY:
        lo, lo_open = None, True
    else:
        lo, lo_open = lo_extent.value, lo_extent.closed
    if hi_extent == FULL:
        hi, hi_open = None, True
    else:
        hi, hi_open = hi_extent.value, not hi_extent.closed
    return Iv(lo, lo_open, hi, hi_open)


def chain_atoms(sets: list[DownwardSet]) -> list[tuple[Iv, Optional[DownwardSet], Optional[DownwardSet]]]:
    """Atoms of the boolean algebra generated by a chain of downward sets:
    successive differences plus the complement of the maximal element.

    Returns (interval, lower source, upper source); at most (#distinct
    extents)+1 atoms.  Rejects non-chain input.
    """
    # the cut representation only expresses downward-closed sets, so any
    # input is a chain once sorted; dedupe equal extents
    keyed = sorted(sets, key=lambda d: cut_key(d.extent))
    distinct: list[DownwardSet] = []
    for d in keyed:
        if not distinct or cut_key(distinct[-1].extent) != cut_key(d.extent):
            distinct.append(d)
    atoms = []
    prev: Optional[DownwardSet] = None
    prev_extent = EMPTY
    for d in distinct:
        if d.extent == EMPTY:
            continue  # generates no atom; X \ {} is X itself
        iv = _atom_between(prev_extent, d.extent)
        if not iv.is_empty():
            atoms.append((iv, prev, d))
        prev, prev_extent = d, d.extent
    if prev_extent != FULL:
        iv = _atom_between(prev_extent, FULL)
        if not iv.is_empty():
            atoms.append((iv, prev, None))
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
        B = [as_param(b, family.param_dim) for b in B]
        table = ComponentTable(family)
        sets = downward_family(family, B, table)

        def make_excluded(iv: Iv):
            def excluded(b) -> bool:
                return any(crosses(comps, iv) for comps in table(as_param(b, family.param_dim)))

            return excluded

        cells = []
        for iv, lo_src, hi_src in chain_atoms(sets):
            params = tuple(
                B[d.param_index] for d in (lo_src, hi_src) if d is not None
            )
            cells.append(
                CellInstance(
                    template=f"{_source_label(hi_src)}\\{_source_label(lo_src)}",
                    params=params,
                    member=lambda a, iv=iv: iv.member(a[0]),
                    excluded=make_excluded(iv),
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
