"""Dimension induction for semilinear families over Q: a d-dimensional
decomposition is assembled from the 1-dimensional chain engine applied along
the first coordinate and a (d-1)-dimensional decomposition of a derived
family on the remaining coordinates.

Cells are cylinders: the base coordinates run over a cell of the derived
decomposition, and the first coordinate runs over a fixed 1-dim template
instantiated with the base point and two parameters from B.  The derived
predicates say, for a fiber template psi and a predicate phi, whether phi
holds on all of the fiber / on none of it, plus whether the fiber template is
crossed at this base point; all are produced by exact linear quantifier
elimination, so the recursion stays inside semilinear families.

The base cell is a cell of T(B_der) with B_der = [b1 + b2 + b for b in B],
so no extended parameter excludes it, and one rule at every |x| decides
which cylinders are kept.  Each group (template, b1, b2) has one keep set
over the base coordinates (`_keep_set`): the fiber is inhabited there, and
theta*, the fiber template crossed by some phi at some B[j], does not hold
there.  A cylinder is kept exactly when its base's sample lies in the keep
set.  This is exact, since the crossing predicate and the all-phi and
all-not-phi predicates, whose conjunction at some b in B is the fiber's
emptiness, are in the derived family, so constant on a base cell.  Fiber
components are counted exactly (`fiber_sources`), with no cap.

At |x| = 2 the keep set is a union of intervals on x2, and a group whose
keep set is empty is skipped before its base decomposition is
instantiated; above, every group's base is instantiated.

A cylinder's region is its fiber, its base's region and a sample point, so
the base chain of a cell at |x| = d ends in the chain engine's interval on
x_d.  The locator picks, with `decomp.interval_locator`, the cylinders whose
bottom interval holds a point's last coordinate, and keeps those whose
fibers hold the point all along the chain, on the point scaled to ints once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import NamedTuple, Optional, Sequence

from . import omin1d
from .decomp import CellInstance, Decomposition, interval_locator
from .families import ParamFamily, as_point, semilinear_family
from .linear import (
    TRUE,
    Atom,
    Compiled,
    _dnf_conjuncts,
    _to_ints,
    conj_satisfiable,
    dnf_simplify,
    eliminate_exists,
    f_and,
    f_atom,
    f_not,
    f_or,
    fold_atom,
    formula_atoms,
    map_atoms,
)


def _remap(f, mapping):
    """Rebuild a formula with variable indices remapped."""

    def rule(a: Atom):
        new: dict[int, int] = {}
        for i, c in enumerate(a.coeffs):
            if c:
                new[mapping(i)] = new.get(mapping(i), 0) + c
        size = max(new) + 1 if new else 0
        coeffs = tuple(new.get(i, 0) for i in range(size))
        return fold_atom(Atom(coeffs, a.const, a.rel))

    return map_atoms(f, rule)


def _subst_var(f, var: int, target: int):
    """vars[var] := vars[target] (a plain variable swap-in)."""
    return _remap(f, lambda i: target if i == var else i)


def _shift_y_block(f, d: int, e: int, block: int):
    """Move the parameter block [d, d+e) to [d + block*e, d + (block+1)*e)."""

    def mapping(i: int) -> int:
        return i if i < d else i + block * e

    return _remap(f, mapping)


def _drop_first_var(f):
    """Reindex away variable 0, which must no longer occur."""

    def mapping(i: int) -> int:
        if i == 0:
            raise ValueError("variable 0 still occurs")
        return i - 1

    return _remap(f, mapping)


@dataclass(frozen=True)
class FiberSource:
    """A downward-closed fiber set: the inclusive or strict closure of one
    convex component of one predicate, as a formula over [x (d), y (e)]."""

    pred: int
    comp: int
    flavor: str  # "<=" or "<"
    formula: tuple


class _QE:
    """`dnf_simplify` and `eliminate_exists` for one `derive_family` call,
    each answer kept for the rest of the call: its fiber sources and
    templates ask many times for the same formulas."""

    def __init__(self):
        self.simplified: dict = {}
        self.eliminated: dict = {}

    def simplify(self, f):
        out = self.simplified.get(f)
        if out is None:
            out = self.simplified[f] = dnf_simplify(f)
        return out

    def exists(self, f, var: int):
        out = self.eliminated.get((f, var))
        if out is None:
            out = self.eliminated[f, var] = eliminate_exists(f, var)
        return out


def fiber_sources(family: ParamFamily, qe: Optional[_QE] = None) -> list[FiberSource]:
    """Closure formulas of the fiber components along the first coordinate.

    A predicate's components are counted up to the first i for which "some
    fiber has a component of index i" is empty, decided exactly (`_empty`),
    also where `dnf_simplify` gives up.  Fibers have uniformly finitely many
    components, so the count stops, and no bound is taken from the syntax.
    `qe` is the caller's memo, a fresh one by default.
    """
    if family.kind != "semilinear":
        raise ValueError("dimension induction handles semilinear families")
    qe = qe or _QE()
    d, e = family.point_dim, family.param_dim
    fresh = d + e
    out: list[FiberSource] = []
    for pi, f in enumerate(family.preds):
        # comp_ge[i]: x is in a component of index i or more, for every i up
        # to the first that is empty
        comp_ge: list = []
        for i in count():
            g = f
            if i > 0:
                v = fresh
                order_chain = []
                prev = None
                for _ in range(i):
                    u, w = v, v + 1
                    v += 2
                    g = f_and(g, _subst_var(f, 0, u), f_not(_subst_var(f, 0, w)))
                    if prev is not None:
                        order_chain.append((prev, u))
                    order_chain.append((u, w))
                    prev = w
                order_chain.append((prev, 0))
                for lo, hi in order_chain:
                    coeffs = [0] * (max(lo, hi) + 1)
                    coeffs[lo] += 1
                    if hi == 0:
                        coeffs[0] -= 1
                    else:
                        coeffs[hi] -= 1
                    g = f_and(g, f_atom(coeffs, 0, "<"))
                for t in range(v - 1, fresh - 1, -1):
                    g = qe.exists(g, t)
                g = qe.simplify(g)
            if _empty(g):
                break
            comp_ge.append(g)
        for i, g in enumerate(comp_ge):
            # component i is comp_ge[i] minus comp_ge[i + 1] (the last one is
            # all of comp_ge[i]); a point of comp_ge[i] has component i in its
            # fiber, and that component misses comp_ge[i + 1], so it is
            # inhabited
            if i + 1 < len(comp_ge):
                g = f_and(g, f_not(comp_ge[i + 1]))
            comp = qe.simplify(g)
            t = fresh
            comp_t = _subst_var(comp, 0, t)
            le_t = f_atom([1] + [0] * (t - 1) + [-1], 0, "<=")
            ge_t = f_atom([1] + [0] * (t - 1) + [-1], 0, ">=")
            leq = qe.simplify(qe.exists(f_and(comp_t, le_t), t))
            lt = qe.simplify(f_not(qe.exists(f_and(comp_t, ge_t), t)))
            out.append(FiberSource(pi, i, "<=", leq))
            out.append(FiberSource(pi, i, "<", lt))
    return out


_EMPTY_LIMIT = 1 << 17  # DNF conjuncts, about 100 MB of them


def _empty(f) -> bool:
    """f holds nowhere over Q: no conjunct of its DNF is satisfiable.  Exact
    past `dnf_simplify`'s limit, where that leaves f as it is; a DNF past
    `_EMPTY_LIMIT` conjuncts raises."""
    conj = _dnf_conjuncts(f, False, _EMPTY_LIMIT)
    if conj is None:
        raise ValueError(f"emptiness undecided: the DNF passes {_EMPTY_LIMIT} conjuncts")
    return not any(map(conj_satisfiable, conj))


@dataclass(frozen=True)
class FiberTemplate:
    """psi(x1; x', yA, yB): an upper closure minus a lower closure (either
    side may be absent).  Formula ambient: [x (d), yA (e), yB (e)]; `psi`
    is the formula compiled, and `nonempty`, over the same variables, is
    exists x1 . formula compiled."""

    ident: str
    up: Optional[FiberSource]
    dn: Optional[FiberSource]
    formula: tuple
    arity: int  # parameters actually used (0, 1 or 2)
    psi: Compiled
    nonempty: Compiled


@dataclass
class DerivedFamily:
    """The derived predicates of one fiber template: index 0 is the crossing
    predicate theta*, then for each phi the all-true and all-false forms."""

    template: FiberTemplate
    family: ParamFamily  # semilinear, point_dim d-1, param_dim 3e


def derive_family(family: ParamFamily) -> list[DerivedFamily]:
    d, e = family.point_dim, family.param_dim
    qe = _QE()
    sources = fiber_sources(family, qe)
    # each fiber source as an upper closure over yA and a lower one over yB,
    # and each phi over yC, shifted once
    ups = [_shift_y_block(s.formula, d, e, 0) for s in sources]
    dns = [_shift_y_block(s.formula, d, e, 1) for s in sources]
    phis = [_shift_y_block(f, d, e, 2) for f in family.preds]
    templates: list[FiberTemplate] = []

    def make(ident, up, dn, formula, arity) -> FiberTemplate:
        ne = qe.simplify(qe.exists(formula, 0))
        return FiberTemplate(ident, up, dn, formula, arity, Compiled.of(formula), Compiled.of(ne))

    for s, up_a in zip(sources, ups):
        templates.append(make(f"[{_lbl(s)}]", s, None, up_a, 1))
    for s, dn_b in zip(sources, dns):
        templates.append(make(f"[~{_lbl(s)}]", None, s, f_not(dn_b), 1))
    for s1, up_a in zip(sources, ups):
        for s2, dn_b in zip(sources, dns):
            templates.append(
                make(f"[{_lbl(s1)}\\{_lbl(s2)}]", s1, s2, f_and(up_a, f_not(dn_b)), 2)
            )
    templates.append(make("[line]", None, None, TRUE, 0))

    out: list[DerivedFamily] = []
    for tpl in templates:
        preds = []
        theta_parts = []
        per_phi = []
        for phi_c in phis:
            pos = qe.simplify(qe.exists(f_and(tpl.formula, phi_c), 0))
            neg = qe.simplify(qe.exists(f_and(tpl.formula, f_not(phi_c)), 0))
            theta_parts.append(qe.simplify(f_and(pos, neg)))
            per_phi.append((f_not(neg), f_not(pos)))  # (all-phi, all-not-phi)
        preds.append(_drop_first_var(qe.simplify(f_or(*theta_parts))))
        for allpos, allneg in per_phi:
            preds.append(_drop_first_var(qe.simplify(allpos)))
            preds.append(_drop_first_var(qe.simplify(allneg)))
        out.append(
            DerivedFamily(tpl, semilinear_family(preds, d - 1, 3 * e))
        )
    return out


def _lbl(s: FiberSource) -> str:
    return f"p{s.pred}c{s.comp}{s.flavor}"


def induct(family: ParamFamily) -> Decomposition:
    """Distal cell decomposition for a semilinear family of any point
    dimension; 1-dimensional input goes straight to the chain engine.  Every
    level counts fiber components exactly (`fiber_sources`), and every level
    keeps a cylinder exactly when its group's keep set (`_keep_set`) holds
    at its base's sample."""
    if family.kind != "semilinear":
        raise ValueError("dimension induction handles semilinear families")
    if family.point_dim == 1:
        return omin1d.build_decomposition(family)
    d, e = family.point_dim, family.param_dim
    derived = derive_family(family)
    bases = [induct(df.family) for df in derived]
    keep_trees: dict = {}  # (template index, |B|) -> `_keep_tree`

    def inst(B: list) -> list[CellInstance]:
        """Per group (template, b1, b2), the keep set (`_keep_set`) at
        (b1, b2, B); at |x| = 2 a group whose keep set is empty is skipped
        before its base decomposition is instantiated, and at every |x| a
        base cell is kept exactly when the keep set holds at its sample."""
        B = [as_point(b, e) for b in B]
        js = range(len(B))
        # B on one denominator, so a group's parameters are slices of ints
        nums, den = _to_ints([v for b in B for v in b])
        B_ints = [nums[j * e:(j + 1) * e] for j in js]
        cells: list[CellInstance] = []
        for ti, df in enumerate(derived):
            tpl = df.template
            tree = keep_trees.get((ti, len(B)))
            if tree is None:
                tree = keep_trees[ti, len(B)] = _keep_tree(df, len(B))
            if tpl.arity == 2:
                tuples = [(j1, j2) for j1 in js for j2 in js]
            elif tpl.arity == 1:
                tuples = [(j, j) for j in js]
            else:
                tuples = [(0, 0)]
            for j1, j2 in tuples:
                b1, b2, ys = B[j1], B[j2], B_ints[j1] + B_ints[j2]
                keep = _keep_set(df, ys, den, B_ints, tree)
                if d == 2 and not keep.pieces():
                    continue
                fiber = tpl.psi.at([0] * d + ys, den, range(d))
                for base_cell in bases[ti].instantiate([b1 + b2 + b for b in B]):
                    base = base_cell.region
                    base_pt = base.sample if isinstance(base, _Region) else (base.sample(),)
                    pt = _point_ints(base_pt)
                    if keep.holds(pt):
                        cells.append(_cyl_cell(df, ti, b1, b2, base_cell, base_pt, pt, fiber))
        return cells

    return Decomposition(
        name=f"dim-induction-{d}d",
        instantiate_fn=inst,
        locator_fn=lambda cells: _cylinder_locator(cells, d - 1),
    )


class _Region(NamedTuple):
    """A cylinder's region: `fiber`, the template's formula at (b1, b2) as
    int rows over x; `base`, the base cell's region (the chain engine's `Iv`
    over x2 at |x| = 2, a `_Region` above); and `sample`, a point of the
    cylinder, read by the cylinder above."""

    fiber: Compiled
    base: object
    sample: tuple


def _cylinder_locator(cells: list[CellInstance], axis: int):
    """The cylinders that hold a point: those whose bottom interval, the `Iv`
    at the end of the base chain, holds its last coordinate `axis`, and
    whose fibers hold it at every level of the chain."""
    regions = [c.region for c in cells]
    bottoms = []
    for r in regions:
        while isinstance(r, _Region):
            r = r.base
        bottoms.append(r)
    slots = interval_locator(bottoms, axis)

    def locate(a) -> list[int]:
        pt = _point_ints(a)
        return [ci for ci in slots(a) if _fibers_hold(regions[ci], pt)]

    return locate


def _fibers_hold(region: _Region, pt: tuple) -> bool:
    """Does every fiber along the base chain hold the point, given as ints
    (`_point_ints`)?  The fiber k levels down is over pt's last d - k
    coordinates."""
    k = 0
    while isinstance(region, _Region):
        if not region.fiber.holds(pt[k:]):
            return False
        region, k = region.base, k + 1
    return True


def _keep_set(df: DerivedFamily, ys: list, den: int, B_ints: list, tree: tuple) -> Compiled:
    """Where over x' the group (template, b1, b2) keeps a cylinder, as one
    formula: the fiber is inhabited (the template's `nonempty` at (b1, b2))
    and theta*, the fiber template crossed by some phi, holds at no B[j]
    (`df.family`'s predicate 0 at (b1, b2, B[j])).  (b1, b2) is given as the
    ints ys and B[j] as the ints B_ints[j], all over `den`.  The rows are
    those of `nonempty`, then theta*'s at each B[j]; the tree,
    `_keep_tree(df, len(B))`, depends on nothing else, so the caller builds
    it once.

    Both are exact at a base cell's sample, since each is a derived predicate
    or a Boolean combination of them, so constant on a base cell of T(B_der):
    theta*, and the fiber's emptiness, which holds exactly where all-phi and
    all-not-phi both hold at some b of B.  T(B) keeps only potential cells
    missed by every I(Delta), and the base cell, a cell of T(B_der), is
    excluded at no extended parameter."""
    d = df.family.point_dim + 1
    rows = df.template.nonempty.at([0] * d + ys, den, range(1, d)).rows
    theta = df.family.compiled[0]
    if theta.rows:  # else theta* is constant, and its tree alone decides
        for nb in B_ints:
            rows += theta.at([0] * (d - 1) + ys + nb, den, range(d - 1)).rows
    return Compiled(rows, tree)


def _keep_tree(df: DerivedFamily, n: int) -> tuple:
    """The tree of `_keep_set` at |B| = n: and(nonempty, not theta*_1, ...,
    not theta*_n), theta*_j reading the j-th block of theta*'s rows."""
    k0, k1 = len(df.template.nonempty.rows), len(df.family.compiled[0].rows)
    theta = df.family.compiled[0].tree
    return f_and(df.template.nonempty.tree, *(
        f_not(map_atoms(theta, lambda i: ("atom", k0 + j * k1 + i))) for j in range(n)
    ))


def _cyl_cell(
    df: DerivedFamily,
    ti: int,
    b1,
    b2,
    base_cell: CellInstance,
    base_pt: tuple,
    pt: tuple,
    fiber: Compiled,
) -> CellInstance:
    """The cylinder of template df over base_cell, whose fiber is inhabited
    at the base's sample `base_pt` (the `Iv.sample()` of the chain engine's
    interval at |x| = 2 and the `_Region.sample` above), given also as ints
    `pt` (`_point_ints`).  `fiber` is the template's formula at (b1, b2), as
    int rows over x, and its first piece at the sample gives the cylinder's
    own sample."""
    comps = fiber.at([0, *pt[:-1]], pt[-1], (0,)).pieces()
    return CellInstance(
        template=f"{df.template.ident}x{base_cell.template}",
        params=(b1, b2) + base_cell.params,
        extent_key=(ti, b1, b2, base_cell.extent_key),
        region=_Region(fiber, base_cell.region, (comps[0].sample(),) + base_pt),
    )


def _point_ints(a: tuple) -> tuple:
    """A point as ints (n_1, ..., n_d, q) with x_i = n_i / q."""
    nums, q = _to_ints(a)
    return (*nums, q)


# ---------------------------------------------------------------------------
# Probe construction for planar verification
# ---------------------------------------------------------------------------


def plane_probes(family: ParamFamily, B: Sequence, steps: int = 40) -> list[tuple]:
    """A steps x steps rational grid over the parameter bounding box, padded
    by 2 on each side, plus all pairwise intersection points of the
    predicates' zero lines (with small perturbed neighbors), for planar
    coverage and crossing checks."""
    if family.point_dim != 2:
        raise ValueError("plane probes are for |x| = 2")
    B = [as_point(b, family.param_dim) for b in B]
    lines: list[tuple[int, int, Fraction]] = []  # a*x1 + b*x2 + c = 0
    vals: list[Fraction] = [Fraction(0)]
    for f in family.preds:
        for atom in formula_atoms(f):
            for b in B:
                cs = list(atom.coeffs) + [0] * (2 + len(b) - len(atom.coeffs))
                a1, a2 = cs[0], cs[1]
                # a Fraction even with no parameter, so the divisions below
                # by the int coefficients stay exact
                c = sum((ci * bi for ci, bi in zip(cs[2:], b)), Fraction(atom.const))
                if a1 or a2:
                    lines.append((a1, a2, c))
    for b in B:
        vals.extend(b)
    delta = Fraction(1, 101)
    pts: set[tuple] = set()
    for i in range(len(lines)):
        a1, a2, c = lines[i]
        # axis-aligned fallbacks so single lines contribute probes too
        if a2 != 0:
            for x1 in (Fraction(0), Fraction(1)):
                pts.add((x1, (-c - a1 * x1) / a2))
        if a1 != 0:
            for x2 in (Fraction(0), Fraction(1)):
                pts.add(((-c - a2 * x2) / a1, x2))
        for j in range(i + 1, len(lines)):
            b1, b2, cc = lines[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x1 = (-c * b2 + cc * a2) / det
            x2 = (-a1 * cc + b1 * c) / det
            for dx in (-delta, Fraction(0), delta):
                for dy in (-delta, Fraction(0), delta):
                    pts.add((x1 + dx, x2 + dy))
    lo = min(vals) - 2
    hi = max(vals) + 2
    for i in range(steps + 1):
        x1 = lo + (hi - lo) * Fraction(i, steps)
        for j in range(steps + 1):
            pts.add((x1, lo + (hi - lo) * Fraction(j, steps)))
    return sorted(pts)
