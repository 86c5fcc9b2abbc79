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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .linear import AffineMap, Iv, components_1d, eval_formula, formula_atoms, merge_adjacent
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
        """Maximal convex components of pred(M; b); ordered kinds, |x| = 1."""
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
            return components_1d(pred, 0, [Fraction(0)] + list(b))
        if self.kind == "vector-linear":
            a = pred  # VLAtom
            coeff = a.f.coeffs[0]
            rhs = -(a.g(b) + a.f.const)
            if coeff == 0:
                val = Fraction(0)
                ok = val < rhs if a.rel == "<" else (val == rhs if a.rel == "=" else val > rhs)
                return [Iv.full()] if ok else []
            cut = rhs / coeff
            flip = coeff < 0
            rel = a.rel if not flip else {"<": ">", ">": "<", "=": "="}[a.rel]
            if rel == "=":
                return [Iv.point(cut)]
            if rel == "<":
                return [Iv(None, True, cut, True)]
            return [Iv(cut, True, None, True)]
        raise ValueError(f"kind {self.kind!r} has no interval components")

    def component_bound(self, idx: int) -> int:
        if self.kind == "interval":
            return self.preds[idx][1] or 1
        if self.kind == "vector-linear":
            return 1
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
    count: int
    witnesses: list[tuple[Point, int]]  # (point, packed truth mask), distinct masks


def fast_truth_masks(family: ParamFamily, B: Sequence, xs: list) -> Optional[list[int]]:
    """Packed truth masks for every probe of a 1-dim probe list, built per
    (predicate, parameter) column.  Ordered kinds read the component
    intervals by bisection (the list must be SORTED); the valuation kinds run
    on ints scaled once per instance.  Returns None for the other kinds."""
    from bisect import bisect_left, bisect_right

    if family.point_dim != 1:
        return None
    if family.kind in ("valuation-macintyre", "valuation-laff"):
        return _valuation_masks(family, B, xs)
    if family.kind not in ("semilinear", "interval", "vector-linear"):
        return None
    vals = [a[0] for a in xs]
    masks = [0] * len(xs)
    bit = 0
    for i in range(len(family.preds)):
        for b in B:
            mask_bit = 1 << bit
            for iv in family.components(i, b):
                if iv.lo is None:
                    lo = 0
                else:
                    lo = bisect_right(vals, iv.lo) if iv.lo_open else bisect_left(vals, iv.lo)
                if iv.hi is None:
                    hi = len(vals)
                else:
                    hi = bisect_left(vals, iv.hi) if iv.hi_open else bisect_right(vals, iv.hi)
                for k in range(lo, hi):
                    masks[k] |= mask_bit
            bit += 1
    return masks


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
    """Distinct truth masks over the probe points: a certified lower bound on
    the number of realized Phi-types over B."""
    B = [as_point(b, family.param_dim) for b in B]
    seen: dict[int, Point] = {}
    for prb in probes:
        a = as_point(prb, family.point_dim)
        mask = family.truth_mask(a, B)
        if mask not in seen:
            seen[mask] = a
    return TypeCensus(len(seen), [(pt, m) for m, pt in seen.items()])


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
        for i in range(len(family.preds)):
            for b in B:
                for iv in family.components(i, b):
                    if iv.lo is not None:
                        endpoints.add(iv.lo)
                    if iv.hi is not None:
                        endpoints.add(iv.hi)
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
