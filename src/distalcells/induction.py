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
so no extended parameter excludes it, and theta* alone drops cylinders: a
cylinder is dropped when the fiber template is crossed somewhere over its
base at some B[j] (decided at a base sample point; valid cells have this
constant over the base, since the crossing predicate itself belongs to the
derived family).

At |x| = 2 the cylinders of one group (template, b1, b2) share a fiber, and
its shadow, the x2 over which that fiber is inhabited, is read once from the
template's `nonempty`: an empty shadow skips the group's base decomposition,
and a base interval that meets no shadow piece is dropped before theta*.
The planar decomposition locates a point by its x2 with
`decomp.interval_locator` over every group's base intervals, so it is asked
only of the cylinders above it; |x| >= 3 scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import omin1d
from .decomp import CellInstance, Decomposition, interval_locator
from .families import ParamFamily, as_point, semilinear_family
from .linear import (
    FALSE,
    TRUE,
    Atom,
    Compiled,
    Iv,
    _dnf_conjuncts,
    _subst_affine,
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
    iv_intersect,
    map_atoms,
)


def _subst_var(f, var: int, target: int):
    """vars[var] := vars[target] (a plain variable swap-in)."""
    return _subst_affine(f, var, (0,) * target + (1,), 0)


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


def fiber_sources(family: ParamFamily, component_cap: Optional[int] = None) -> list[FiberSource]:
    """Closure formulas of the fiber components along the first coordinate.

    `component_cap` lowers the per-predicate component count; it is used on
    recursive levels where the syntactic bound of QE outputs is far above the
    realized count.  A predicate whose fibers can have more components than
    the cap raises ValueError.  Whether some fiber has a component of index
    i is decided exactly (`_empty`), also where `dnf_simplify` gives up.
    """
    if family.kind != "semilinear":
        raise ValueError("dimension induction handles semilinear families")
    d, e = family.point_dim, family.param_dim
    fresh = d + e
    out: list[FiberSource] = []
    for pi, f in enumerate(family.preds):
        bound = family.component_bound(pi)
        if component_cap is not None:
            bound = min(bound, component_cap)
        # comp_ge[i]: x is in a component of index i or more.  Each is
        # decided exactly, and the first empty one and all after it are FALSE
        comp_ge: list = []
        for i in range(bound + 1):
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
                    g = eliminate_exists(g, t)
                g = dnf_simplify(g)
            if _empty(g):
                break
            comp_ge.append(g)
        while len(comp_ge) <= bound:
            comp_ge.append(FALSE)
        if bound < family.component_bound(pi) and comp_ge[bound] != FALSE:
            # comp_ge[bound]: x in a component of index bound or more
            raise ValueError(f"predicate {pi} has fibers with more than {bound} components")
        for i in range(bound):
            # a point of comp_ge[i] has component i in its fiber, and that
            # component misses comp_ge[i + 1]: comp is empty exactly when
            # comp_ge[i] is, so when comp_ge[i] is FALSE
            comp = dnf_simplify(f_and(comp_ge[i], f_not(comp_ge[i + 1])))
            if comp == FALSE:
                continue
            t = fresh
            comp_t = _subst_var(comp, 0, t)
            le_t = f_atom([1] + [0] * (t - 1) + [-1], 0, "<=")
            ge_t = f_atom([1] + [0] * (t - 1) + [-1], 0, ">=")
            leq = dnf_simplify(eliminate_exists(f_and(comp_t, le_t), t))
            lt = dnf_simplify(f_not(eliminate_exists(f_and(comp_t, ge_t), t)))
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


def derive_family(family: ParamFamily, component_cap: Optional[int] = None) -> list[DerivedFamily]:
    d, e = family.point_dim, family.param_dim
    sources = fiber_sources(family, component_cap)
    templates: list[FiberTemplate] = []

    def make(ident, up, dn, formula, arity) -> FiberTemplate:
        ne = dnf_simplify(eliminate_exists(formula, 0))
        return FiberTemplate(ident, up, dn, formula, arity, Compiled.of(formula), Compiled.of(ne))

    for s in sources:
        up_a = _shift_y_block(s.formula, d, e, 0)
        templates.append(make(f"[{_lbl(s)}]", s, None, up_a, 1))
    for s in sources:
        dn_b = _shift_y_block(s.formula, d, e, 1)
        templates.append(make(f"[~{_lbl(s)}]", None, s, f_not(dn_b), 1))
    for s1 in sources:
        up_a = _shift_y_block(s1.formula, d, e, 0)
        for s2 in sources:
            dn_b = _shift_y_block(s2.formula, d, e, 1)
            templates.append(
                make(f"[{_lbl(s1)}\\{_lbl(s2)}]", s1, s2, f_and(up_a, f_not(dn_b)), 2)
            )
    templates.append(make("[line]", None, None, TRUE, 0))

    out: list[DerivedFamily] = []
    for tpl in templates:
        preds = []
        theta_parts = []
        per_phi = []
        for f in family.preds:
            phi_c = _shift_y_block(f, d, e, 2)
            pos = dnf_simplify(eliminate_exists(f_and(tpl.formula, phi_c), 0))
            neg = dnf_simplify(eliminate_exists(f_and(tpl.formula, f_not(phi_c)), 0))
            theta_parts.append(dnf_simplify(f_and(pos, neg)))
            per_phi.append((f_not(neg), f_not(pos)))  # (all-phi, all-not-phi)
        preds.append(_drop_first_var(dnf_simplify(f_or(*theta_parts))))
        for allpos, allneg in per_phi:
            preds.append(_drop_first_var(dnf_simplify(allpos)))
            preds.append(_drop_first_var(dnf_simplify(allneg)))
        out.append(
            DerivedFamily(tpl, semilinear_family(preds, d - 1, 3 * e))
        )
    return out


def _lbl(s: FiberSource) -> str:
    return f"p{s.pred}c{s.comp}{s.flavor}"


def induct(family: ParamFamily, _recursive_cap: Optional[int] = None) -> Decomposition:
    """Distal cell decomposition for a semilinear family of any point
    dimension; 1-dimensional input goes straight to the chain engine.

    Recursive levels cap the fiber component count at 3 (QE outputs carry a
    syntactic bound far above the realized count); `fiber_sources` raises
    when a derived predicate can exceed it.
    """
    if family.kind != "semilinear":
        raise ValueError("dimension induction handles semilinear families")
    if family.point_dim == 1:
        return omin1d.build_decomposition(family)
    d, e = family.point_dim, family.param_dim
    derived = derive_family(family, component_cap=_recursive_cap)
    bases = [induct(df.family, _recursive_cap=3) for df in derived]

    def inst(B: list) -> list[CellInstance]:
        B = [as_point(b, e) for b in B]
        B_ints, scale = [_point_ints(b) for b in B], _PointInts()
        cells: list[CellInstance] = []
        for ti, df in enumerate(derived):
            tpl = df.template
            if tpl.arity == 2:
                tuples = [(b1, b2) for b1 in B for b2 in B]
            elif tpl.arity == 1:
                tuples = [(b, b) for b in B]
            else:
                tuples = [(B[0], B[0])]
            for b1, b2 in tuples:
                ys, den = _to_ints(b1 + b2)
                # planar: the x2 over which the group's fiber is inhabited;
                # no cylinder of an empty shadow is inhabited
                shadow = tpl.nonempty.at([0, 0, *ys], den, (1,)).pieces() if d == 2 else None
                if shadow == []:
                    continue
                B_der = [b1 + b2 + b for b in B]
                fiber = tpl.psi.at([0] * d + ys, den, range(d))
                for base_cell in bases[ti].instantiate(B_der):
                    cell = _cyl_cell(df, ti, b1, b2, base_cell, B_ints, fiber, scale, shadow)
                    if cell is not None:
                        cells.append(cell)
        return cells

    return Decomposition(
        name=f"dim-induction-{d}d",
        instantiate_fn=inst,
        locator_fn=_planar_locator if d == 2 else None,
    )


def _planar_locator(cells: list[CellInstance]):
    """A point is asked only of the cylinders whose base interval holds its x2."""
    return interval_locator([c.region.base for c in cells], 1)


class _Region(NamedTuple):
    """A cylinder's region: its membership test on scaled points and a
    point of it, read by the cylinder above (the sample is None when the
    fiber is empty at the base's sample, above |x| = 2), and at |x| = 2
    its base interval over x2, read by the planar locator (None above)."""

    test: Callable[[tuple], bool]
    base: Optional[Iv]
    sample: Optional[tuple]


def _cyl_cell(
    df: DerivedFamily,
    ti: int,
    b1,
    b2,
    base_cell: CellInstance,
    B_ints: list,
    fiber,
    scale,
    shadow: Optional[list[Iv]],
) -> Optional[CellInstance]:
    """The cylinder of template df over base_cell, or None when it is empty
    or theta* holds at a parameter of the instance (T(B) keeps only
    potential cells missed by every I(Delta); the base cell, a cell of
    T(B_der), is excluded at no extended parameter).  `B_ints[j]` is B[j] as
    ints (`_point_ints`), `fiber` is the template's formula at (b1, b2), as
    int rows over x, and `shadow`, at |x| = 2, is the pieces of x2 over
    which that fiber is inhabited (None above)."""
    tpl = df.template
    if shadow is None:
        # above |x| = 2 the base is a cylinder of the level below
        iv = None
        base_test, base_pt = base_cell.region.test, base_cell.region.sample
        if base_pt is None:
            raise ValueError("base cell carries no sample point")
    else:
        # at |x| = 2 the base is a chain-engine cell, whose region is its x2
        # interval
        iv = base_cell.region
        base_test, base_pt = _interval_test(iv), (iv.sample(),)
        # the cylinder is inhabited exactly when its base meets the shadow
        met = [m for m in (iv_intersect(piece, iv) for piece in shadow) if not m.is_empty()]
        if not met:
            return None
    # theta*: the fiber template is crossed somewhere over the base; the
    # crossing predicate is part of the derived family, so on a valid base
    # cell its value at the sample decides it everywhere.  Fixed once at
    # (sample, b1, b2), its rows are over the last block, B[j]
    nums, den = _to_ints(base_pt + b1 + b2)
    last = range(len(nums), len(nums) + len(b1))
    theta = df.family.compiled[0].at(nums + [0] * len(b1), den, last)
    if any(map(theta.holds, B_ints)):
        return None

    # membership on points scaled to ints
    def member_ints(pt: tuple) -> bool:
        return base_test(pt[1:]) and fiber.holds(pt)

    def fiber_at(base: tuple) -> list[Iv]:
        nums, q = _to_ints(base)
        return fiber.at([0, *nums], q, (0,)).pieces()

    sample = None
    comps = fiber_at(base_pt)
    if comps:
        sample = (comps[0].sample(),) + tuple(base_pt)
    elif shadow is not None:
        # fiber empty at the sample: the shadow's first piece in the base
        alt = met[0].sample()
        sample = (fiber_at((alt,))[0].sample(), alt)
    return CellInstance(
        template=f"{tpl.ident}x{base_cell.template}",
        params=(b1, b2) + base_cell.params,
        member=lambda a: member_ints(scale(a)),
        extent_key=(ti, b1, b2, base_cell.extent_key),
        region=_Region(member_ints, iv, sample),
    )


def _point_ints(a: tuple) -> tuple:
    """A point as ints (n_1, ..., n_d, q) with x_i = n_i / q."""
    nums, q = _to_ints(a)
    return (*nums, q)


class _PointInts:
    """`_point_ints` keeping the last point, since verify asks every cell
    about one probe before the next."""

    def __init__(self):
        self.last = None
        self.ints = None

    def __call__(self, a: tuple) -> tuple:
        if a is not self.last:
            self.ints = _point_ints(a)
            self.last = a
        return self.ints


def _interval_test(iv: Iv):
    """iv.member on a scaled value (n, q), x = n / q, by int cross-multiplication."""
    lo, lo_open, hi, hi_open = iv.lo, iv.lo_open, iv.hi, iv.hi_open
    lo_n, lo_d = (lo.numerator, lo.denominator) if lo is not None else (0, 0)
    hi_n, hi_d = (hi.numerator, hi.denominator) if hi is not None else (0, 0)

    def test(pt: tuple) -> bool:
        n, q = pt
        if lo is not None:
            c = n * lo_d - lo_n * q
            if c < 0 or (c == 0 and lo_open):
                return False
        if hi is not None:
            c = n * hi_d - hi_n * q
            if c > 0 or (c == 0 and hi_open):
                return False
        return True

    return test


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
