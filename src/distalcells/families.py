"""Finite parametrized families Phi(x;y) in evaluable normal forms, plus the
brute-force type-census oracles used to cross-check every decomposition.

Supported kinds:
  semilinear       boolean combinations of affine (in)equalities over Q
  interval         per-predicate map b -> bounded list of disjoint intervals
  vector-linear    atomic f(x) + g(y) + c  REL  0 over Q
  congruence       order atoms f(x) REL g(y) + c over Z plus K | (f(x)+g(y)+c)
  valuation-macintyre   v(f(y)) < v(x - c(y)) and P_n(lam * (x - c(y)))
  valuation-laff        v(x - c_i(y)) < v(x - c_j(y)) and (x - c_i(y)) in lam * Q_{m,n}

Families are immutable after construction and all evaluation is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

from .linear import (
    AffineMap, Compiled, Iv, _mask_of, _to_ints, eval_formula, formula_atoms, merge_adjacent,
)
from .scalars import in_pn, in_qmn, valuation

Point = tuple[Fraction, ...]


def as_point(v, dim: int) -> Point:
    """v as a tuple of dim Fractions, the normal form of points and
    parameters; such a tuple comes back as the very same object."""
    if isinstance(v, tuple):
        if len(v) != dim:
            raise ValueError(f"point of dim {len(v)} where {dim} expected")
        if all(type(x) is Fraction for x in v):
            return v
        return tuple(Fraction(x) for x in v)
    if dim != 1:
        raise ValueError("scalar given for multi-dimensional point")
    return (Fraction(v),)


@dataclass(frozen=True)
class VLAtom:
    """f(x) + g(y) + c REL 0 with REL in {<, =, >}; c is folded into g."""

    f: AffineMap
    g: AffineMap
    rel: str


@dataclass(frozen=True)
class CongAtom:
    """Order atom f(x) REL g(y) (+c folded into g), or K | (f(x) + g(y))."""

    f: AffineMap
    g: AffineMap
    rel: str  # "<", "=", ">", or "mod"


@dataclass
class ParamFamily:
    kind: str
    point_dim: int
    param_dim: int
    preds: list
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.preds)

    # -- evaluation -----------------------------------------------------

    def evaluate(self, idx: int, a, b) -> bool:
        a = as_point(a, self.point_dim)
        b = as_point(b, self.param_dim)
        pred = self.preds[idx]
        k = self.kind
        if k == "semilinear":
            return eval_formula(pred, list(a) + list(b))
        if k == "interval":
            comps_fn, _ = pred
            return any(iv.member(a[0]) for iv in comps_fn(b))
        if k == "vector-linear":
            v = pred.f(a) + pred.g(b)
            return v < 0 if pred.rel == "<" else (v == 0 if pred.rel == "=" else v > 0)
        if k == "congruence":
            fa, gb = pred.f(a), pred.g(b)
            if pred.rel == "mod":
                val = fa + gb
                if val.denominator != 1:
                    raise ValueError("congruence atoms need integer values")
                return val.numerator % self.meta["K"] == 0
            return fa < gb if pred.rel == "<" else (fa == gb if pred.rel == "=" else fa > gb)
        if k == "valuation-macintyre":
            p, n = self.meta["p"], self.meta["n"]
            tag = pred[0]
            if tag == "vless":
                _, fi, ci = pred
                fb = self.meta["F"][fi](b)
                cb = self.meta["C"][ci](b)
                return valuation(fb, p) < valuation(a[0] - cb, p)
            _, ci, lam = pred
            cb = self.meta["C"][ci](b)
            return in_pn(lam * (a[0] - cb), n, p)
        if k == "valuation-laff":
            p, m, n = self.meta["p"], self.meta["m"], self.meta["n"]
            tag = pred[0]
            if tag == "vcmp":
                _, i, j = pred
                ci = self.meta["C"][i](b)
                cj = self.meta["C"][j](b)
                return valuation(a[0] - ci, p) < valuation(a[0] - cj, p)
            _, i, lam = pred
            ci = self.meta["C"][i](b)
            return in_qmn(a[0] - ci, lam, m, n, p)
        raise ValueError(f"unknown kind {k!r}")

    def truth_mask(self, a, B: Sequence) -> int:
        """Packed truth values of every (predicate, b) pair at the point a.
        Bit index = pred_index * len(B) + b_index."""
        mask = 0
        bit = 0
        for i in range(len(self.preds)):
            for b in B:
                if self.evaluate(i, a, b):
                    mask |= 1 << bit
                bit += 1
        return mask

    # -- 1-dim component view (ordered kinds) ---------------------------

    def components(self, idx: int, b) -> list[Iv]:
        """Maximal convex components of pred(M; b); semilinear and interval
        kinds, |x| = 1."""
        if self.point_dim != 1:
            raise ValueError("components are one-dimensional")
        b = as_point(b, self.param_dim)
        pred = self.preds[idx]
        if self.kind == "interval":
            comps_fn, n_bound = pred
            comps = merge_adjacent(list(comps_fn(b)))
            if n_bound is not None and len(comps) > n_bound:
                raise ValueError(
                    f"predicate {idx} produced {len(comps)} components, bound {n_bound}"
                )
            return comps
        if self.kind == "semilinear":
            vals, den = _to_ints(b)
            return self.compiled[idx].at([0, *vals], den, (0,)).pieces()
        raise ValueError(f"kind {self.kind!r} has no interval components")

    @cached_property
    def compiled(self) -> list[Compiled]:
        """Every predicate of a semilinear family compiled once, read at each
        parameter by `components` and the engines."""
        return [Compiled.of(f) for f in self.preds]

    def component_bound(self, idx: int) -> int:
        if self.kind == "interval":
            return self.preds[idx][1] or 1
        if self.kind == "semilinear":
            f = self.preds[idx]
            if _is_convex_shape(f):
                return 1
            # truth along the point variable changes only at roots of atoms
            # that mention it: k roots give at most k+1 maximal components
            k = sum(1 for a in formula_atoms(f) if a.coeffs and a.coeffs[0] != 0)
            return k + 1
        raise ValueError(self.kind)


def _is_convex_shape(f) -> bool:
    """Atoms and conjunctions of non-'!=' atoms define convex sets in any
    single variable, so one component suffices."""
    if f[0] == "atom":
        return f[1].rel != "!="
    if f[0] == "and":
        return all(_is_convex_shape(g) for g in f[1])
    if f[0] in ("true", "false"):
        return True
    return False


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def semilinear_family(formulas: list, point_dim: int, param_dim: int) -> ParamFamily:
    return ParamFamily("semilinear", point_dim, param_dim, list(formulas))


def interval_family(preds: list[tuple[Callable, Optional[int]]], param_dim: int) -> ParamFamily:
    """preds: list of (b -> ordered disjoint interval list, N bound or None)."""
    return ParamFamily("interval", 1, param_dim, list(preds))


def vector_linear_family(atoms: list[VLAtom], point_dim: int, param_dim: int) -> ParamFamily:
    return ParamFamily("vector-linear", point_dim, param_dim, list(atoms))


def vl_trichotomy(f: AffineMap, g: AffineMap) -> list[VLAtom]:
    """The three comparisons of f(x) + g(y); negation-closed by construction."""
    return [VLAtom(f, g, "<"), VLAtom(f, g, "="), VLAtom(f, g, ">")]


def congruence_family(atoms: list[CongAtom], K: int, point_dim: int, param_dim: int) -> ParamFamily:
    if K < 1:
        raise ValueError("modulus must be positive")
    return ParamFamily("congruence", point_dim, param_dim, list(atoms), {"K": K})


def macintyre_family(
    F: list[AffineMap], C: list[AffineMap], Lambda: list, n: int, p: int, param_dim: int
) -> ParamFamily:
    """Phi_{F,C,Lambda}: {v(f(y)) < v(x - c(y))} and {P_n(lam (x - c(y)))}.
    The zero function is prepended to F when missing."""
    F = list(F)
    if not any(f.is_zero() for f in F):
        F = [AffineMap.of([0] * param_dim, 0)] + F
    preds: list = []
    for fi in range(len(F)):
        for ci in range(len(C)):
            preds.append(("vless", fi, ci))
    lams = [Fraction(l) for l in Lambda]
    for ci in range(len(C)):
        for lam in lams:
            preds.append(("pn", ci, lam))
    return ParamFamily(
        "valuation-macintyre", 1, param_dim, preds,
        {"F": F, "C": list(C), "Lambda": lams, "n": n, "p": p},
    )


def laff_family(
    C: list[AffineMap], m: int, n: int, Lambda: list, p: int, param_dim: int
) -> ParamFamily:
    preds: list = []
    for i in range(len(C)):
        for j in range(len(C)):
            if i != j:
                preds.append(("vcmp", i, j))
    lams = [Fraction(l) for l in Lambda]
    for i in range(len(C)):
        for lam in lams:
            preds.append(("qmn", i, lam))
    return ParamFamily(
        "valuation-laff", 1, param_dim, preds,
        {"C": list(C), "m": m, "n": n, "Lambda": lams, "p": p},
    )


# ---------------------------------------------------------------------------
# Type census
# ---------------------------------------------------------------------------


@dataclass
class TypeCensus:
    """The number of distinct truth masks over a probe set."""

    count: int


def fast_truth_masks(family: ParamFamily, B: Sequence, xs: list) -> list[int]:
    """Packed truth masks of the probes xs, bit pred_index * len(B) + b_index
    as in `ParamFamily.truth_mask`, built per (predicate, parameter) column.

    The valuation kinds run `_valuation_masks`.  The others scale the probes
    and the parameters once to ints over their common denominators, so a
    linear atom at b is one int row over x, and its column is an int bit mask
    of the probes on its side.  At point_dim 1 the probes must be SORTED and
    the sides are runs found by bisection; at higher dimension they come from
    one scan.  Formulas, interval components and congruence atoms combine
    those columns, and one pass turns the columns into per-probe masks."""
    if family.kind in ("valuation-macintyre", "valuation-laff"):
        return _valuation_masks(family, B, xs)
    cols = _linear_columns(family, B, xs)
    if not cols:
        return [0] * len(xs)
    # transpose: column strings have probe 0 last, so zip yields the probes in
    # reverse, each as its mask's binary digits with the last column first
    top = 1 << len(xs)
    probes = zip(*(bin(c | top)[3:] for c in reversed(cols)))
    return [int("".join(digits), 2) for digits in probes][::-1]


def _scaled_row(cx: Sequence, cy: Sequence, k) -> tuple[tuple, int]:
    """The affine row cx . x + cy . b + k scaled to ints by the lcm L of its
    denominators: ((cx, cy, k), L)."""
    ints, L = _to_ints((*cx, *cy, k))
    return (tuple(ints[:len(cx)]), tuple(ints[len(cx):-1]), ints[-1]), L


def _side(rel: str, neg: int, zero: int, full: int) -> int:
    """The probes where a row REL 0 holds, from those where it is < 0 and = 0."""
    if rel == "<":
        return neg
    if rel == "<=":
        return neg | zero
    if rel == "=":
        return zero
    if rel == "!=":
        return full ^ zero
    if rel == ">=":
        return full ^ neg
    return full ^ neg ^ zero  # ">"


def _linear_columns(family: ParamFamily, B: Sequence, xs: list) -> list[int]:
    """Every (predicate, parameter) column, in bit order, of the kinds whose
    atoms are linear in x: a probe is x = X / D and a parameter b = Y / E,
    so a row (cx, cy, k) times D * E is E * cx . X - t with t = -D * (E * k
    + cy . Y), an int comparison per probe."""
    d, e, n = family.point_dim, family.param_dim, len(xs)
    full = (1 << n) - 1
    flat, D = _to_ints([v for a in xs for v in a])
    X = [flat[i * d:(i + 1) * d] for i in range(n)]
    flat_b, E = _to_ints([v for b in B for v in b])
    Y = [flat_b[j * e:(j + 1) * e] for j in range(len(B))]
    dots: dict = {}  # cx -> E * cx . X for every probe

    def threshold(cy: tuple, k: int, j: int) -> int:
        return -D * (E * k + sum(c * y for c, y in zip(cy, Y[j])))

    def projections(cx: tuple) -> list[int]:
        P = dots.get(cx)
        if P is None:
            P = dots[cx] = [E * sum(c * v for c, v in zip(cx, x)) for x in X]
        return P

    def signs(row: tuple, j: int) -> tuple[int, int]:
        """The probes where row at B[j] is < 0, and where it is = 0."""
        cx, cy, k = row
        t = threshold(cy, k, j)
        if d == 1 and cx and cx[0]:  # runs below, on and above t / C in the sorted X
            C = E * cx[0]
            if C < 0:
                C, t = -C, -t
            lo, hi = bisect_left(flat, -(-t // C)), bisect_right(flat, t // C)
            below = (1 << lo) - 1
            zero = (1 << hi) - 1 - below
            return (full ^ below ^ zero if cx[0] < 0 else below), zero
        neg = zero = 0
        bit = 1
        for p in projections(cx):
            if p < t:
                neg |= bit
            elif p == t:
                zero |= bit
            bit <<= 1
        return neg, zero

    def residues(row: tuple, L: int, j: int) -> int:
        """The probes where L * row at B[j] is an integer multiple of K."""
        cx, cy, k = row
        t = threshold(cy, k, j)
        N = L * D * E
        NK = N * family.meta["K"]
        col = 0
        bit = 1
        for p in projections(cx):
            if (p - t) % N:
                raise ValueError("congruence atoms need integer values")
            if not (p - t) % NK:
                col |= bit
            bit <<= 1
        return col

    cols = []
    kind = family.kind
    for pred in family.preds:
        if kind == "semilinear":
            rows = {
                a: (_scaled_row(a.coeffs[:d], a.coeffs[d:], a.const)[0], a.rel)
                for a in formula_atoms(pred)
            }
            for j in range(len(B)):
                at = {a: _side(rel, *signs(row, j), full) for a, (row, rel) in rows.items()}
                cols.append(_mask_of(pred, at, full))
        elif kind == "interval":
            # a component is the AND of the half-lines x - lo > 0 and x - hi < 0
            for j, b in enumerate(B):
                col = 0
                for iv in pred[0](b):
                    part = full
                    for v, rel in ((iv.lo, ">" if iv.lo_open else ">="),
                                   (iv.hi, "<" if iv.hi_open else "<=")):
                        if v is not None:
                            part &= _side(rel, *signs(_scaled_row((1,), (), -v)[0], j), full)
                    col |= part
                cols.append(col)
        elif kind in ("vector-linear", "congruence"):
            f, g = pred.f, pred.g
            if kind == "vector-linear" or pred.rel == "mod":  # f(x) + g(b)
                row, L = _scaled_row(f.coeffs, g.coeffs, f.const + g.const)
            else:  # f(x) - g(b)
                row, L = _scaled_row(f.coeffs, [-c for c in g.coeffs], f.const - g.const)
            for j in range(len(B)):
                if pred.rel == "mod":
                    cols.append(residues(row, L, j))
                else:
                    cols.append(_side(pred.rel, *signs(row, j), full))
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return cols


# The valuation census keeps its own integer helpers: it checks the p-adic
# engines, so it shares no code with `scalars` or `padic`.


def _split_p(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n / p^v_p(n)) of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _val_unit(r: Fraction, p: int, mod: int) -> tuple[int, int]:
    """v_p(r) and the unit part of r mod `mod`, for a nonzero rational r."""
    vn, un = _split_p(r.numerator, p)
    vd, ud = _split_p(r.denominator, p)
    return vn - vd, un * pow(ud, -1, mod) % mod


@lru_cache(maxsize=None)
def _nth_power_units(n: int, p: int) -> tuple[int, frozenset]:
    """p^k with k = 2 v_p(n) + 1, and the units mod p^k that are n-th powers;
    by Hensel's lemma a unit is an n-th power in Q_p iff its residue is one."""
    mod = p ** (2 * _split_p(n, p)[0] + 1)
    return mod, frozenset(pow(x, n, mod) for x in range(1, mod) if x % p != 0)


def _valuation_masks(family: ParamFamily, B: Sequence, xs: list) -> list[int]:
    """Column masks of the Macintyre and affine-reduct kinds.  Probes and
    centres are scaled by the lcm D of their denominators, so x - c(b) is
    (X - C) / D with ints X, C; each distinct C gives every probe's
    valuation and unit residue of X - C once, and each column reads them."""
    meta = family.meta
    p = meta["p"]
    macintyre = family.kind == "valuation-macintyre"
    if macintyre:
        n = meta["n"]
        mod, powers = _nth_power_units(n, p)
    else:
        m = meta["m"]
        mod = p ** meta["n"]
    centres = [[c(b) for b in B] for c in meta["C"]]
    D = 1
    for v in [a[0] for a in xs] + [c for row in centres for c in row]:
        D = math.lcm(D, v.denominator)
    X = [a[0].numerator * (D // a[0].denominator) for a in xs]
    vD, uD = _split_p(D, p)
    inv_uD = pow(uD, -1, mod)

    # per scaled centre: each probe's (v(X - C), unit residue), None at X = C
    split_cache: dict[int, list] = {}

    def split_at(c: Fraction) -> list:
        C = c.numerator * (D // c.denominator)
        got = split_cache.get(C)
        if got is None:
            got = split_cache[C] = []
            for x in X:
                if x == C:
                    got.append(None)
                else:
                    v, u = _split_p(x - C, p)
                    got.append((v, u % mod))
        return got

    masks = [0] * len(xs)
    nb = len(B)
    for i, pred in enumerate(family.preds):
        tag = pred[0]
        for j, b in enumerate(B):
            bit = 1 << (i * nb + j)
            if tag == "vless":  # v(f(b)) < v(x - c(b))
                fb = meta["F"][pred[1]](b)
                if fb == 0:
                    continue
                t = _val_unit(fb, p, mod)[0] + vD
                for k, s in enumerate(split_at(centres[pred[2]][j])):
                    if s is None or s[0] > t:
                        masks[k] |= bit
            elif tag == "pn":  # lam * (x - c(b)) is an n-th power
                lam = pred[2]
                if lam == 0:
                    for k in range(len(xs)):
                        masks[k] |= bit
                    continue
                cols = split_at(centres[pred[1]][j])
                vl, ul = _val_unit(lam, p, mod)
                shift, scale = vl - vD, ul * inv_uD % mod
                for k, s in enumerate(cols):
                    if s is None or ((s[0] + shift) % n == 0 and s[1] * scale % mod in powers):
                        masks[k] |= bit
            elif tag == "vcmp":  # v(x - c_i(b)) < v(x - c_j(b))
                left = split_at(centres[pred[1]][j])
                right = split_at(centres[pred[2]][j])
                for k, (s, r) in enumerate(zip(left, right)):
                    if s is not None and (r is None or s[0] < r[0]):
                        masks[k] |= bit
            else:  # "qmn": x - c_i(b) in lam * Q_{m,n}
                lam = pred[2]
                cols = split_at(centres[pred[1]][j])
                if lam == 0:
                    for k, s in enumerate(cols):
                        if s is None:
                            masks[k] |= bit
                    continue
                vl, ul = _val_unit(lam, p, mod)
                shift, scale = vl + vD, pow(ul * uD, -1, mod)
                for k, s in enumerate(cols):
                    if s is not None and (s[0] - shift) % m == 0 and s[1] * scale % mod == 1:
                        masks[k] |= bit
    return masks


def type_census_probe(family: ParamFamily, B: Sequence, probes: Sequence) -> TypeCensus:
    """The distinct `fast_truth_masks` over the sorted, deduplicated probe
    points: a certified lower bound on the number of realized Phi-types
    over B."""
    B = [as_point(b, family.param_dim) for b in B]
    pts = sorted({as_point(a, family.point_dim) for a in probes})
    return TypeCensus(len(set(fast_truth_masks(family, B, pts))))


def census_probes_1d(family: ParamFamily, B: Sequence) -> list[Point]:
    """Exact atom-representative probe set for |x| = 1 families.

    For ordered kinds this is the endpoint sweep (all component endpoints,
    gap midpoints, and far representatives); for the congruence kind a full
    residue window of width K around every order threshold; for the valuation
    kinds one representative per (subinterval x residue class).
    """
    if family.point_dim != 1:
        raise ValueError("1-dim probe construction")
    B = [as_point(b, family.param_dim) for b in B]
    if family.kind in ("semilinear", "interval", "vector-linear"):
        endpoints: set[Fraction] = set()
        for i, pred in enumerate(family.preds):
            for b in B:
                if family.kind == "vector-linear":
                    # the one root of f(x) + g(b), where the atom changes
                    c = pred.f.coeffs[0]
                    if c:
                        endpoints.add(-(pred.g(b) + pred.f.const) / c)
                    continue
                for iv in family.components(i, b):
                    endpoints.update(v for v in (iv.lo, iv.hi) if v is not None)
        return [(v,) for v in _endpoint_sweep(sorted(endpoints))]
    if family.kind == "congruence":
        K = family.meta["K"]
        thresholds: set[int] = set()
        for pred in family.preds:
            if pred.rel == "mod":
                continue
            for b in B:
                coeff = pred.f.coeffs[0]
                if coeff == 0:
                    continue
                cut = (pred.g(b) - pred.f.const) / coeff
                thresholds.add(math.floor(cut))
                thresholds.add(math.ceil(cut))
        pts: set[int] = set()
        if not thresholds:
            pts.update(range(0, K))
            pts.update(range(-K, 0))
        else:
            ts = sorted(thresholds)
            for t in ts:
                pts.update(range(t - K, t + K + 1))
            pts.update(range(ts[0] - 2 * K, ts[0] - K))
            pts.update(range(ts[-1] + K + 1, ts[-1] + 2 * K + 1))
            for lo, hi in zip(ts, ts[1:]):
                if hi - lo > 2 * K:
                    mid = (lo + hi) // 2
                    pts.update(range(mid, mid + K))
        return [(Fraction(v),) for v in sorted(pts)]
    if family.kind in ("valuation-macintyre", "valuation-laff"):
        from .padic import family_probes

        return family_probes(family, B)
    raise ValueError(f"unsupported kind {family.kind!r}")


def _endpoint_sweep(values: list[Fraction]) -> list[Fraction]:
    if not values:
        return [Fraction(0)]
    out = [values[0] - 1]
    for i, v in enumerate(values):
        out.append(v)
        if i + 1 < len(values):
            out.append((v + values[i + 1]) / 2)
    out.append(values[-1] + 1)
    return out


def type_census_1d(family: ParamFamily, B: Sequence) -> TypeCensus:
    """Exact count of realized Phi-types over B for |x| = 1 families."""
    probes = census_probes_1d(family, B)
    return type_census_probe(family, B, probes)
