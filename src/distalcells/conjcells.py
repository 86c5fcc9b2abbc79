"""Cells for conjunction-closed families: every realizable conjunction of
instances collapses to a single instance per predicate, so the cells are
conjunctions with one chosen parameter per predicate and they biject with the
realized types.

Two instantiations: vector-linear atoms f(x) + g(y) + c REL 0 over Q (any
point dimension, predicates grouped by the direction of f), and Presburger
atoms over Z (order atoms plus K | (f(x) + g(y) + c) with one modulus K,
point dimension 1).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .decomp import CellInstance, Decomposition
from .families import ParamFamily, as_param, census_probes_1d
from .linear import Iv, iv_intersect, iv_subset

# ---------------------------------------------------------------------------
# Conjunction property and negation closure
# ---------------------------------------------------------------------------


@dataclass
class ConjCheck:
    ok: bool
    witnesses: dict  # pred index -> parameter b0 (the single surviving instance)
    certificates: dict  # pred index -> (b1, b2) witnessing unrealizability
    failure: Optional[str] = None


def check_conjunction_property(family: ParamFamily, B: Sequence) -> ConjCheck:
    """For each predicate, the conjunction over all b in B is equivalent to a
    single instance (extremal g for inequalities, any representative for
    equalities and congruences) or is unrealizable; returns the witness or an
    unrealizability certificate per predicate."""
    B = [as_param(b, family.param_dim) for b in B]
    if not B:
        raise ValueError("nonempty B required")
    witnesses: dict = {}
    certificates: dict = {}
    for i, pred in enumerate(family.preds):
        if family.kind == "vector-linear":
            vals = [-(pred.g(b)) - pred.f.const for b in B]
            if pred.rel == "<":
                witnesses[i] = B[min(range(len(B)), key=lambda j: vals[j])]
            elif pred.rel == ">":
                witnesses[i] = B[max(range(len(B)), key=lambda j: vals[j])]
            else:
                j = _first_difference(vals)
                if j is None:
                    witnesses[i] = B[0]
                else:
                    certificates[i] = (B[0], B[j])
        elif family.kind == "congruence":
            if pred.rel == "mod":
                K = family.meta["K"]
                vals = [int(pred.g(b)) % K for b in B]
                j = _first_difference(vals)
                if j is None:
                    witnesses[i] = B[0]
                else:
                    certificates[i] = (B[0], B[j])
            else:
                vals = [pred.g(b) for b in B]
                if pred.rel == "<":
                    witnesses[i] = B[min(range(len(B)), key=lambda j: vals[j])]
                elif pred.rel == ">":
                    witnesses[i] = B[max(range(len(B)), key=lambda j: vals[j])]
                else:
                    j = _first_difference(vals)
                    if j is None:
                        witnesses[i] = B[0]
                    else:
                        certificates[i] = (B[0], B[j])
        else:
            return ConjCheck(False, {}, {}, failure=f"unsupported kind {family.kind!r}")
    return ConjCheck(True, witnesses, certificates)


def _first_difference(vals) -> Optional[int]:
    for j in range(1, len(vals)):
        if vals[j] != vals[0]:
            return j
    return None


def negation_closure_check(family: ParamFamily, rng, samples: int = 1000) -> bool:
    """Empirical check that each negated predicate equals its designated
    disjunction of family members (trichotomy / residue complement)."""
    partners = _negation_partners(family)
    for _ in range(samples):
        a = tuple(rng.fraction() for _ in range(family.point_dim))
        b = tuple(rng.fraction() for _ in range(family.param_dim))
        if family.kind == "congruence":
            a = tuple(Fraction(rng.randint(-50, 50)) for _ in range(family.point_dim))
            b = tuple(Fraction(rng.randint(-50, 50)) for _ in range(family.param_dim))
        for i, js in partners.items():
            neg = not family.evaluate(i, a, b)
            disj = any(family.evaluate(j, a, b) for j in js)
            if neg != disj:
                return False
    return True


def _negation_partners(family: ParamFamily) -> dict:
    partners: dict = {}
    if family.kind == "vector-linear":
        groups: dict = {}
        for i, p in enumerate(family.preds):
            groups.setdefault((p.f, p.g), {})[p.rel] = i
        for i, p in enumerate(family.preds):
            trio = groups[(p.f, p.g)]
            if set(trio) != {"<", "=", ">"}:
                raise ValueError("vector-linear family is not negation-closed "
                                 "(trichotomy triple missing)")
            partners[i] = [trio[r] for r in ("<", "=", ">") if r != p.rel]
        return partners
    if family.kind == "congruence":
        K = family.meta["K"]
        order_groups: dict = {}
        mod_groups: dict = {}
        for i, p in enumerate(family.preds):
            if p.rel == "mod":
                mod_groups.setdefault((p.f, p.g.coeffs), {})[int(p.g.const) % K] = i
            else:
                order_groups.setdefault((p.f, p.g), {})[p.rel] = i
        for i, p in enumerate(family.preds):
            if p.rel == "mod":
                grp = mod_groups[(p.f, p.g.coeffs)]
                if set(grp) != set(range(K)):
                    raise ValueError("congruence family must carry all K residues")
                me = int(p.g.const) % K
                partners[i] = [grp[c] for c in range(K) if c != me]
            else:
                trio = order_groups[(p.f, p.g)]
                if set(trio) != {"<", "=", ">"}:
                    raise ValueError("congruence order atoms need trichotomy triples")
                partners[i] = [trio[r] for r in ("<", "=", ">") if r != p.rel]
        return partners
    raise ValueError(family.kind)


# ---------------------------------------------------------------------------
# Direction decomposition for vector-linear families
# ---------------------------------------------------------------------------


def _normalize_direction(f) -> tuple[tuple[Fraction, ...], Fraction]:
    """Scale coefficients so the first nonzero is 1; returns (direction,
    scale) with f = scale * direction."""
    for c in f.coeffs:
        if c != 0:
            scale = c
            return tuple(ci / scale for ci in f.coeffs), scale
    raise ValueError("vector-linear atom with zero x-part")


def _rank(vectors: list[tuple[Fraction, ...]]) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                fac = rows[r][col] / rows[rank][col]
                rows[r] = [a - fac * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# per-direction one-dimensional pieces: a cut value with a relation
@dataclass(frozen=True)
class _DirPred:
    pred: int
    rel: str  # "<", "=", ">" acting on the direction coordinate


# ---------------------------------------------------------------------------
# Integer extents (interval + single merged congruence) for Presburger cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZSet:
    iv: Iv
    mod: int
    res: int

    def member(self, x: Fraction) -> bool:
        if x.denominator != 1:
            return False
        return self.iv.member(x) and x.numerator % self.mod == self.res

    def min_member(self) -> Optional[int]:
        if self.iv.lo is None:
            return None
        lo = self.iv.lo
        start = math.floor(lo)
        if not self.iv.member(Fraction(start)):
            start += 1
        k = (self.res - start) % self.mod
        cand = start + k
        if self.iv.hi is not None and not self.iv.member(Fraction(cand)):
            return None
        return cand

    def max_member(self) -> Optional[int]:
        if self.iv.hi is None:
            return None
        hi = math.ceil(self.iv.hi)
        if not self.iv.member(Fraction(hi)):
            hi -= 1
        k = (hi - self.res) % self.mod
        cand = hi - k
        if not self.iv.member(Fraction(cand)):
            return None
        return cand

    def is_empty(self) -> bool:
        if self.iv.is_empty():
            return True
        if self.iv.lo is not None:
            m = self.min_member()
            return m is None or not self.iv.member(Fraction(m))
        if self.iv.hi is not None:
            return self.max_member() is None
        return False

    def canonical(self):
        if self.is_empty():
            return ("empty",)
        lo = self.min_member() if self.iv.lo is not None else None
        hi = self.max_member() if self.iv.hi is not None else None
        if lo is not None and hi is not None and lo == hi:
            return ("pt", lo)
        return ("z", lo, hi, self.mod, self.res % self.mod)

    def sample(self) -> Optional[int]:
        m = self.min_member()
        if m is not None:
            return m
        m = self.max_member()
        if m is not None:
            return m
        return self.res  # doubly unbounded


def _crt(m1: int, r1: int, m2: int, r2: int) -> Optional[tuple[int, int]]:
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    lcm = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 // g > 1 else 0
    return lcm, (r1 + m1 * t) % lcm


def _solve_linear_mod(a: int, s: int, K: int) -> Optional[tuple[int, int]]:
    """x with a*x = s (mod K) as a progression (modulus, residue), or None."""
    a %= K
    s %= K
    if a == 0:
        return (1, 0) if s == 0 else None
    g = math.gcd(a, K)
    if s % g != 0:
        return None
    Kp = K // g
    x0 = (s // g * pow(a // g, -1, Kp)) % Kp if Kp > 1 else 0
    return Kp, x0


# ---------------------------------------------------------------------------
# The decomposition
# ---------------------------------------------------------------------------


def _conj_cell(chosen: tuple, extent_key, member, excluded, interval=None) -> CellInstance:
    """A conjunction cell; `chosen` is ((pred index, parameter), ...) over the
    chosen subset, and `excluded` is theta_psi: some phi(.; b) crosses."""
    return CellInstance(
        template="conj{" + ",".join(str(i) for i, _ in chosen) + "}",
        params=tuple(b for _, b in chosen),
        member=member,
        excluded=excluded,
        extent_key=extent_key,
        interval=interval,
    )


def conj_decomposition(family: ParamFamily, B: Sequence) -> list[CellInstance]:
    """T(B) for a conjunction-closed family: all conjunctions with one chosen
    instance per predicate that are nonempty and not crossed by any phi(.; b),
    deduplicated by extent.  Cells biject with the realized types."""
    _negation_partners(family)  # validates closure
    B = [as_param(b, family.param_dim) for b in B]
    if family.kind == "vector-linear":
        return _conj_cells_vl(family, B)
    if family.kind == "congruence":
        return _conj_cells_z(family, B)
    raise ValueError(f"unsupported kind {family.kind!r}")


def _conj_cells_vl(family: ParamFamily, B: list) -> list[CellInstance]:
    # group predicates by direction of f
    dirs: dict[tuple, list[_DirPred]] = {}
    scales: dict[int, Fraction] = {}
    for i, p in enumerate(family.preds):
        d, scale = _normalize_direction(p.f)
        scales[i] = scale
        rel = p.rel if scale > 0 else {"<": ">", ">": "<", "=": "="}[p.rel]
        dirs.setdefault(d, []).append(_DirPred(i, rel))
    dir_list = sorted(dirs.keys())
    if family.point_dim > 1:
        if _rank(dir_list) != len(dir_list):
            raise ValueError(
                "vector-linear conj cells with |x| >= 2 need independent directions"
            )
        if len(dir_list) > family.point_dim:
            raise ValueError("more directions than coordinates")

    def threshold(i: int, b) -> Fraction:
        p = family.preds[i]
        return (-(p.g(b)) - p.f.const) / scales[i]

    # per direction: enumerate realizable single-direction conjunction extents,
    # deduplicating by extent after every predicate (extensionally equal
    # prefixes refine identically, which keeps the enumeration quadratic)
    per_dir: list[list[tuple[Iv, tuple]]] = []
    for d in dir_list:
        options: dict[tuple, tuple[Iv, tuple]] = {_iv_key(Iv.full()): (Iv.full(), ())}
        for dp in dirs[d]:
            vals: dict[Fraction, object] = {}
            for b in B:
                vals.setdefault(threshold(dp.pred, b), b)
            new_options = dict(options)
            for iv, chosen in options.values():
                for v, b in sorted(vals.items()):
                    if dp.rel == "<":
                        piece = Iv(None, True, v, True)
                    elif dp.rel == ">":
                        piece = Iv(v, True, None, True)
                    else:
                        piece = Iv.point(v)
                    cut = iv_intersect(iv, piece)
                    if not cut.is_empty():
                        new_options.setdefault(_iv_key(cut), (cut, chosen + ((dp.pred, b),)))
            options = new_options
        cuts_by_pred = {
            dp.pred: sorted({threshold(dp.pred, b) for b in B}) for dp in dirs[d]
        }
        kept = [
            (iv, chosen)
            for iv, chosen in options.values()
            if not _dir_crossed(iv, dirs[d], cuts_by_pred)
        ]
        per_dir.append(kept)

    # cartesian product over independent directions
    cells: list[CellInstance] = []
    combos: list[tuple[list, tuple]] = [([], ())]
    for dpieces in per_dir:
        combos = [
            (ivs + [iv], chosen + ch)
            for ivs, chosen in combos
            for iv, ch in dpieces
        ]
    for ivs, chosen in combos:
        cells.append(_make_vl_cell(family, dir_list, ivs, chosen, dirs, scales))
    return cells


def _iv_key(iv: Iv) -> tuple:
    return (iv.lo, iv.lo_open, iv.hi, iv.hi_open)


def _dir_crossed(iv: Iv, dpreds: list[_DirPred], cuts_by_pred: dict) -> bool:
    """Is the nonempty direction-line extent crossed by some phi(.; b)?
    Along the direction every predicate instance is a half-line or a point at
    a known cut, so crossing reduces to a sorted range query on cut values."""
    lo, lo_open, hi, hi_open = iv.lo, iv.lo_open, iv.hi, iv.hi_open
    for dp in dpreds:
        cuts = cuts_by_pred[dp.pred]
        if not cuts:
            continue
        if dp.rel == "<":
            # (-inf, v) crosses iv iff some member < v and some member >= v
            i0 = 0 if lo is None else bisect_right(cuts, lo)
            i1 = len(cuts) if hi is None else (
                bisect_right(cuts, hi) if not hi_open else bisect_left(cuts, hi)
            )
        elif dp.rel == ">":
            # (v, inf) crosses iv iff some member > v and some member <= v
            i0 = 0 if lo is None else (
                bisect_left(cuts, lo) if not lo_open else bisect_right(cuts, lo)
            )
            i1 = len(cuts) if hi is None else bisect_left(cuts, hi)
        else:
            # {v} crosses iv iff v in iv and iv != {v}
            if lo is not None and lo == hi:
                continue
            i0 = 0 if lo is None else (
                bisect_left(cuts, lo) if not lo_open else bisect_right(cuts, lo)
            )
            i1 = len(cuts) if hi is None else (
                bisect_right(cuts, hi) if not hi_open else bisect_left(cuts, hi)
            )
        if i1 > i0:
            return True
    return False


def _make_vl_cell(family, dir_list, ivs, chosen, dirs, scales) -> CellInstance:
    dim = family.point_dim

    def coord(d: tuple, a: tuple) -> Fraction:
        return sum((c * x for c, x in zip(d, a)), Fraction(0))

    def member(a: tuple) -> bool:
        return all(iv.member(coord(d, a)) for d, iv in zip(dir_list, ivs))

    def excluded(b) -> bool:
        b = as_param(b, family.param_dim)
        for d, iv in zip(dir_list, ivs):
            for dp in dirs[d]:
                p = family.preds[dp.pred]
                v = (-(p.g(b)) - p.f.const) / scales[dp.pred]
                if dp.rel == "<":
                    piece = Iv(None, True, v, True)
                elif dp.rel == ">":
                    piece = Iv(v, True, None, True)
                else:
                    piece = Iv.point(v)
                if not iv_intersect(iv, piece).is_empty() and not iv_subset(iv, piece):
                    return True
        return False

    key = tuple((iv.lo, iv.lo_open, iv.hi, iv.hi_open) for iv in ivs)
    interval = None
    if dim == 1 and len(dir_list) == 1 and dir_list[0] == (Fraction(1),):
        interval = ivs[0]
    return _conj_cell(tuple(chosen), key, member, excluded, interval)


def _conj_cells_z(family: ParamFamily, B: list) -> list[CellInstance]:
    if family.point_dim != 1:
        raise ValueError("Presburger conj cells are implemented for |x| = 1")
    K = family.meta["K"]
    order_preds = [i for i, p in enumerate(family.preds) if p.rel != "mod"]
    mod_preds = [i for i, p in enumerate(family.preds) if p.rel == "mod"]

    # layered enumeration: order atoms pin an interval, congruence atoms pin
    # a progression; dedupe extensionally after every predicate
    options: dict[tuple, tuple[ZSet, tuple]] = {}
    start = ZSet(Iv.full(), 1, 0)
    options[start.canonical()] = (start, ())
    for i in order_preds:
        p = family.preds[i]
        a = p.f.coeffs[0]
        pieces: dict[object, tuple[Iv, object]] = {}
        for b in B:
            if a == 0:
                if _const_rel(p.f.const, p.g(b), p.rel):
                    pieces.setdefault("full", (Iv.full(), b))
                continue
            v = (p.g(b) - p.f.const) / a
            rel = p.rel if a > 0 else {"<": ">", ">": "<", "=": "="}[p.rel]
            if rel == "<":
                piece = Iv(None, True, v, True)
            elif rel == ">":
                piece = Iv(v, True, None, True)
            else:
                piece = Iv.point(v)
            pieces.setdefault(_iv_key(piece), (piece, b))
        new_options = dict(options)
        for z, chosen in options.values():
            for piece, b in pieces.values():
                cut = ZSet(iv_intersect(z.iv, piece), z.mod, z.res)
                if not cut.is_empty():
                    new_options.setdefault(cut.canonical(), (cut, chosen + ((i, b),)))
        options = new_options
    for i in mod_preds:
        p = family.preds[i]
        a = int(p.f.coeffs[0])
        progs: dict[int, tuple[tuple[int, int], object]] = {}
        for b in B:
            gb = int(p.g(b))
            if gb % K in progs:
                continue
            prog = _solve_linear_mod(a, (-gb - int(p.f.const)) % K, K)
            if prog is not None:
                progs[gb % K] = (prog, b)
        new_options = dict(options)
        for z, chosen in options.values():
            for (m, r), b in progs.values():
                merged = _crt(z.mod, z.res, m, r)
                if merged is None:
                    continue
                cut = ZSet(z.iv, merged[0], merged[1])
                if not cut.is_empty():
                    new_options.setdefault(cut.canonical(), (cut, chosen + ((i, b),)))
        options = new_options

    kept: dict = {}
    for z, chosen in options.values():
        key = z.canonical()
        if key in kept:
            continue
        if _z_crossed(family, z, B, K):
            continue
        kept[key] = _make_z_cell(family, z, chosen, K)
    return list(kept.values())


def _const_rel(lhs: Fraction, rhs: Fraction, rel: str) -> bool:
    return lhs < rhs if rel == "<" else (lhs == rhs if rel == "=" else lhs > rhs)


def _z_truth_set(family, i: int, b, K: int) -> tuple[str, object]:
    """The set where pred i holds at parameter b, as ("iv", Iv) for order
    atoms or ("prog", (mod, res) | None) for congruence atoms."""
    p = family.preds[i]
    if p.rel == "mod":
        a = int(p.f.coeffs[0])
        prog = _solve_linear_mod(a, (-int(p.g(b)) - int(p.f.const)) % K, K)
        return ("prog", prog)
    a = p.f.coeffs[0]
    if a == 0:
        return ("iv", Iv.full() if _const_rel(p.f.const, p.g(b), p.rel) else Iv(F1, False, F0, False))
    v = (p.g(b) - p.f.const) / a
    rel = p.rel if a > 0 else {"<": ">", ">": "<", "=": "="}[p.rel]
    if rel == "<":
        return ("iv", Iv(None, True, v, True))
    if rel == ">":
        return ("iv", Iv(v, True, None, True))
    return ("iv", Iv.point(v))


F0, F1 = Fraction(0), Fraction(1)


def _z_crossed(family, z: ZSet, B: list, K: int) -> bool:
    for i in range(len(family.preds)):
        for b in B:
            kind, obj = _z_truth_set(family, i, b, K)
            if kind == "iv":
                inside = ZSet(iv_intersect(z.iv, obj), z.mod, z.res)
                if inside.is_empty():
                    continue
                if not _zset_subset_iv(z, obj):
                    return True
            else:
                if obj is None:
                    continue  # predicate false everywhere: no crossing
                merged = _crt(z.mod, z.res, obj[0], obj[1])
                inside_nonempty = merged is not None and not ZSet(z.iv, merged[0], merged[1]).is_empty()
                if not inside_nonempty:
                    continue
                if not _zprog_covers(z, obj, K):
                    return True
    return False


def _zset_subset_iv(z: ZSet, iv: Iv) -> bool:
    """All members of a nonempty ZSet lie in iv; exact by convexity, since
    the realized extremes bracket every other member."""
    lo, hi = z.min_member(), z.max_member()
    if lo is None and iv.lo is not None:
        return False
    if hi is None and iv.hi is not None:
        return False
    if lo is not None and not iv.member(Fraction(lo)):
        return False
    if hi is not None and not iv.member(Fraction(hi)):
        return False
    return True


def _zprog_covers(z: ZSet, prog: tuple[int, int], K: int) -> bool:
    """Does the progression (mod, res) contain every member of the nonempty
    ZSet?  Members step by z.mod, so beyond a sample membership it reduces to
    divisibility of the step."""
    m, r = prog
    lo, hi = z.min_member(), z.max_member()
    sample = lo if lo is not None else (hi if hi is not None else z.res)
    if sample % m != r % m:
        return False
    single = lo is not None and hi is not None and lo == hi
    if not single and z.mod % m != 0:
        return False
    return True


def _make_z_cell(family, z: ZSet, chosen: tuple, K: int) -> CellInstance:
    def member(a: tuple) -> bool:
        return z.member(a[0])

    def excluded(b) -> bool:
        return _z_crossed(family, z, [as_param(b, family.param_dim)], K)

    return _conj_cell(tuple(chosen), z.canonical(), member, excluded)


# ---------------------------------------------------------------------------
# Decomposition wrapper
# ---------------------------------------------------------------------------


def build_decomposition(family: ParamFamily) -> Decomposition:
    probe_fn = None
    if family.point_dim == 1:
        probe_fn = lambda B: census_probes_1d(family, B)  # noqa: E731
    return Decomposition(
        name=f"conj-{family.kind}",
        point_dim=family.point_dim,
        param_count=len(family.preds),
        instantiate_fn=lambda B: conj_decomposition(family, B),
        probe_fn=probe_fn,
    )
