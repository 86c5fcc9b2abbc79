"""Cells for conjunction-closed families: every realizable conjunction of
instances collapses to a single instance per predicate, so the cells are
conjunctions with one chosen parameter per predicate and they biject with the
realized types.

Two instantiations: vector-linear atoms f(x) + g(y) + c REL 0 over Q (any
point dimension, predicates grouped by the direction of f), and Presburger
atoms over Z (order atoms plus K | (f(x) + g(y) + c) with one modulus K,
point dimension 1).  A Presburger cell is a residue class mod M (the lcm of
the progression moduli) times a run between consecutive cuts of the order
truth sets, so the cells are listed in O(M |B| log |B|) time after the
truth sets.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .decomp import CellInstance, Decomposition, interval_locator
from .families import ParamFamily, as_point
from .linear import Iv, _to_ints, decode

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
    B = [as_point(b, family.param_dim) for b in B]
    if not B:
        raise ValueError("nonempty B required")
    witnesses: dict = {}
    certificates: dict = {}
    for i, pred in enumerate(family.preds):
        if family.kind not in ("vector-linear", "congruence"):
            return ConjCheck(False, {}, {}, failure=f"unsupported kind {family.kind!r}")
        # what f(x) is compared with at each b: -g(b) - c for a vector-linear
        # atom, g(b) for an order atom, and g(b) + c mod K for a congruence
        vals = [
            -pred.g(b) - pred.f.const if family.kind == "vector-linear"
            else _integer(pred.g(b) + pred.f.const) % family.meta["K"] if pred.rel == "mod"
            else pred.g(b)
            for b in B
        ]
        if pred.rel == "<":
            witnesses[i] = B[min(range(len(B)), key=vals.__getitem__)]
        elif pred.rel == ">":
            witnesses[i] = B[max(range(len(B)), key=vals.__getitem__)]
        else:
            j = _first_difference(vals)
            if j is None:
                witnesses[i] = B[0]
            else:
                certificates[i] = (B[0], B[j])
    return ConjCheck(True, witnesses, certificates)


def _first_difference(vals) -> Optional[int]:
    for j in range(1, len(vals)):
        if vals[j] != vals[0]:
            return j
    return None


def check_negation_closed(family: ParamFamily) -> None:
    """Raise ValueError unless every negated predicate is a disjunction of
    family members: order atoms come in trichotomy triples (<, =, >) and the
    congruence atoms of one (f, g) shape carry all K residues."""
    if family.kind == "vector-linear":
        trios: dict = {}
        for p in family.preds:
            trios.setdefault((p.f, p.g), set()).add(p.rel)
        if any(rels != {"<", "=", ">"} for rels in trios.values()):
            raise ValueError("vector-linear family is not negation-closed "
                             "(trichotomy triple missing)")
        return
    if family.kind == "congruence":
        K = family.meta["K"]
        groups: dict = {}
        for p in family.preds:
            if p.rel == "mod":
                groups.setdefault(("mod", p.f, p.g.coeffs), set()).add(int(p.g.const) % K)
            else:
                groups.setdefault(("order", p.f, p.g), set()).add(p.rel)
        for p in family.preds:
            if p.rel == "mod":
                if groups[("mod", p.f, p.g.coeffs)] != set(range(K)):
                    raise ValueError("congruence family must carry all K residues")
            elif groups[("order", p.f, p.g)] != {"<", "=", ">"}:
                raise ValueError("congruence order atoms need trichotomy triples")
        return
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
# Integer extents (closed integer bounds + one merged congruence) for
# Presburger cells and for the truth sets of Presburger atoms
# ---------------------------------------------------------------------------


class ZSet(NamedTuple):
    """The integers x with lo <= x <= hi and x = res (mod mod); None is an
    unbounded end.  Kept normal: 0 <= res < mod, each bounded end is a
    member, and the set is nonempty (`_zset` normalizes loose bounds)."""

    lo: Optional[int]
    hi: Optional[int]
    mod: int
    res: int

    def canonical(self) -> tuple:
        if self.lo is not None and self.lo == self.hi:
            return ("pt", self.lo)
        return ("z", self.lo, self.hi, self.mod, self.res)


def _zset(lo: Optional[int], hi: Optional[int], mod: int, res: int) -> Optional[ZSet]:
    """The integers of [lo, hi] congruent to res mod `mod`, with both ends
    pulled in to members; None when there are none."""
    res %= mod
    if lo is not None:
        lo += (res - lo) % mod
    if hi is not None:
        hi -= (hi - res) % mod
    if lo is not None and hi is not None and lo > hi:
        return None
    return ZSet(lo, hi, mod, res)


_ZFULL = ZSet(None, None, 1, 0)


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


def _conj_cell(chosen: tuple, extent_key, region) -> CellInstance:
    """A conjunction cell; `chosen` is ((pred index, parameter), ...) over the
    chosen subset, and `region` is what its locator reads: the `Iv` at
    |x| = 1 over Q, the (direction, `Iv`) pairs at |x| >= 2, the `_ZRun`
    over Z.  Its theta_psi (some phi(.; b) crosses) holds at no b in B: each
    instantiation applies it where it drops conjunctions."""
    return CellInstance(
        template="conj{" + ",".join(str(i) for i, _ in chosen) + "}",
        params=tuple(b for _, b in chosen),
        extent_key=extent_key,
        region=region,
    )


def conj_decomposition(family: ParamFamily, B: Sequence) -> list[CellInstance]:
    """T(B) for a conjunction-closed family: all conjunctions with one chosen
    instance per predicate that are nonempty and not crossed by any phi(.; b),
    deduplicated by extent.  Cells biject with the realized types."""
    check_negation_closed(family)
    B = [as_point(b, family.param_dim) for b in B]
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

    thresholds = {
        i: [(-p.g(b) - p.f.const) / scales[i] for b in B] for i, p in enumerate(family.preds)
    }

    # per direction: rank the distinct thresholds, so cut k sits at position
    # 2k + 1 and the open gaps at the even positions, and every extent is a
    # closed range of positions; then enumerate the realizable
    # single-direction conjunction extents, deduplicating by extent after
    # every predicate (extensionally equal prefixes refine identically, which
    # keeps the enumeration quadratic)
    per_dir: list[list[tuple[tuple[int, int], tuple]]] = []
    axes: list[_Axis] = []
    for d in dir_list:
        dpreds = dirs[d]
        cuts = sorted({v for dp in dpreds for v in thresholds[dp.pred]})
        rank = {v: 2 * k + 1 for k, v in enumerate(cuts)}
        options: dict[tuple[int, int], tuple] = {(0, 2 * len(cuts)): ()}
        positions: dict[int, list[int]] = {}
        for dp in dpreds:
            first: dict[int, object] = {}
            for b, v in zip(B, thresholds[dp.pred]):
                first.setdefault(rank[v], b)
            pos = positions[dp.pred] = sorted(first)
            new_options = dict(options)
            for (lo, hi), chosen in options.items():
                for q in pos:
                    if dp.rel == "<":
                        ext = (lo, min(hi, q - 1))
                    elif dp.rel == ">":
                        ext = (max(lo, q + 1), hi)
                    else:
                        ext = (max(lo, q), min(hi, q))
                    if ext[0] <= ext[1]:
                        new_options.setdefault(ext, chosen + ((dp.pred, first[q]),))
            options = new_options
        per_dir.append([
            (ext, chosen)
            for ext, chosen in options.items()
            if not _dir_crossed(ext, dpreds, positions)
        ])
        axes.append(_Axis(d, cuts))

    # cartesian product over independent directions
    combos: list[tuple[list, tuple]] = [([], ())]
    for dpieces in per_dir:
        combos = [
            (exts + [ext], chosen + ch)
            for exts, chosen in combos
            for ext, ch in dpieces
        ]
    return [_make_vl_cell(family, axes, exts, chosen) for exts, chosen in combos]


class _Axis(NamedTuple):
    """One direction of a vector-linear instance and its sorted distinct
    thresholds over B."""

    direction: tuple
    cuts: list


def _dir_crossed(ext: tuple[int, int], dpreds: list[_DirPred], positions: dict) -> bool:
    """Is the nonempty direction-line extent crossed by some phi(.; b)?
    Along the direction every predicate instance is a half-line or a point at
    a cut, so crossing is a range query on the sorted cut positions."""
    lo, hi = ext
    for dp in dpreds:
        pos = positions[dp.pred]
        if dp.rel == "<":  # (-inf, cut) crosses iff lo < q <= hi
            hit = bisect_right(pos, hi) > bisect_right(pos, lo)
        elif dp.rel == ">":  # (cut, inf) crosses iff lo <= q < hi
            hit = bisect_left(pos, hi) > bisect_left(pos, lo)
        else:  # {cut} crosses iff lo <= q <= hi and the extent is more
            hit = lo < hi and bisect_right(pos, hi) > bisect_left(pos, lo)
        if hit:
            return True
    return False


def _make_vl_cell(family, axes, exts, chosen) -> CellInstance:
    """The product cell of one surviving extent per direction.  An instance
    phi(.; b) constrains only its own direction's coordinate, so it crosses
    the product exactly when it crosses that direction's extent, which
    `_dir_crossed` ruled out for every b in B."""
    ivs = [decode(ax.cuts, ext) for ax, ext in zip(axes, exts)]
    if family.point_dim == 1:
        region = ivs[0] if ivs else Iv.full()
    else:
        region = tuple((ax.direction, iv) for ax, iv in zip(axes, ivs))
    key = tuple((v.lo, v.lo_open, v.hi, v.hi_open) for v in ivs)
    return _conj_cell(tuple(chosen), key, region)


def _vl_locator(cells: list[CellInstance]):
    """The cells of a point at |x| >= 2: its projection on each direction
    picks, by `interval_locator`, the cells whose interval there holds it,
    and a cell holds the point when every direction picks it."""
    dirs = [d for d, _ in cells[0].region]
    per_dir = [interval_locator([c.region[k][1] for c in cells], k) for k in range(len(dirs))]
    every = range(len(cells))

    def locate(a) -> list[int]:
        proj = [sum((c * x for c, x in zip(d, a)), Fraction(0)) for d in dirs]
        first, *rest = [loc(proj) for loc in per_dir] or [every]
        return sorted(set(first).intersection(*rest))

    return locate


class _ZRun(NamedTuple):
    """Where a Presburger cell sits in its instance's partition of Z: the
    class `res` mod M inside run k, the integers of [cuts[k-1], cuts[k] - 1]
    (run 0 and run len(cuts) are unbounded)."""

    M: int
    cuts: list
    res: int
    k: int


def _conj_cells_z(family: ParamFamily, B: list) -> list[CellInstance]:
    """The realized types are the nonempty sets (class mod M) x (run between
    consecutive cuts), where M is the lcm of the progression moduli and the
    cuts are the ends of the order truth sets: each truth set is a union of
    runs or of classes, adjacent runs differ on the truth set that made
    their cut, and every residue of a mod shape occurs, so distinct classes
    differ on some progression.  Each truth set at a b in B is thus a union
    of types and crosses none: every type is a cell of T(B)."""
    if family.point_dim != 1:
        raise ValueError("Presburger conj cells are implemented for |x| = 1")
    truths = _z_truth_sets(family, B)
    # the first (pred, b) giving each lower bound x >= c, upper bound
    # x <= c, point x = c and progression (modulus, residue)
    lower, upper, point, prog = {}, {}, {}, {}
    for i, row in enumerate(truths):
        for b, t in zip(B, row):
            if t is None:
                continue
            if t.mod > 1:
                prog.setdefault((t.mod, t.res), (i, b))
            elif t.lo is None:
                if t.hi is not None:
                    upper.setdefault(t.hi, (i, b))
            elif t.hi is None:
                lower.setdefault(t.lo, (i, b))
            else:
                point.setdefault(t.lo, (i, b))
    moduli = sorted({m for m, _ in prog})
    M = math.lcm(*moduli)
    # cut c splits c - 1 from c
    cuts = sorted(set(lower) | {h + 1 for h in upper} | set(point) | {v + 1 for v in point})
    cells = []
    for k in range(len(cuts) + 1):
        lo = cuts[k - 1] if k > 0 else None
        hi = cuts[k] - 1 if k < len(cuts) else None
        if lo is not None and lo == hi:
            # one point: its "=" instance, or both bounds when there is none
            ends = [point[lo]] if lo in point else [_need(lower, lo), _need(upper, hi)]
            classes = [(lo % M, ends)]
        else:
            bounds = ([] if lo is None else [_need(lower, lo)]) + (
                [] if hi is None else [_need(upper, hi)])
            classes = [
                (res, bounds + [_need(prog, (m, res % m)) for m in moduli]) for res in range(M)
            ]
        for res, chosen in classes:
            z = _zset(lo, hi, M, res)
            if z is not None:
                cells.append(_conj_cell(tuple(sorted(chosen)), z.canonical(), _ZRun(M, cuts, res, k)))
    return cells


def _need(table: dict, key):
    """The instance a cell's conjunction needs; negation closure guarantees
    it, so a miss is a bug, never a reason to widen the conjunction."""
    try:
        return table[key]
    except KeyError:
        raise ValueError(f"no instance over B gives the truth set {key!r}") from None


def _integer(v: Fraction) -> int:
    if v.denominator != 1:
        raise ValueError("congruence atoms need integer values")
    return v.numerator


def _z_truth_sets(family: ParamFamily, B: list) -> list[list[Optional[ZSet]]]:
    """The integers where each atom holds at each b in B (None if there are
    none), indexed [pred][b].  B is scaled once to ints Y / E and each
    atom's row to ints over the lcm L of its denominators, so t = G . Y + k E
    is L E times g(b) + c_f (a congruence a x + g(b) + c_f = 0 mod K) or
    g(b) - c_f (an order atom a x REL g(b) - c_f, threshold t / (A E))."""
    K, e = family.meta["K"], family.param_dim
    flat, E = _to_ints([v for b in B for v in b])
    Y = [flat[j * e:(j + 1) * e] for j in range(len(B))]
    out = []
    for p in family.preds:
        a, rel = p.f.coeffs[0], p.rel
        c_f = p.f.const if rel == "mod" else -p.f.const
        ints, L = _to_ints((*p.g.coeffs, p.g.const + c_f, a))
        G, k, A = ints[:-2], ints[-2], ints[-1]
        if A < 0 and rel != "mod":
            G, k, A = [-c for c in G], -k, -A
            rel = {"<": ">", ">": "<", "=": "="}[rel]
        row = []
        for y in Y:
            t = sum(map(mul, G, y)) + k * E
            if rel == "mod":
                if t % (L * E):
                    raise ValueError("congruence atoms need integer values")
                prog = _solve_linear_mod(_integer(a), -(t // (L * E)), K)
                row.append(None if prog is None else ZSet(None, None, *prog))
            elif A == 0:
                holds = 0 < t if rel == "<" else (0 == t if rel == "=" else 0 > t)
                row.append(_ZFULL if holds else None)
            elif rel == "<":
                row.append(ZSet(None, -(-t // (A * E)) - 1, 1, 0))
            elif rel == ">":
                row.append(ZSet(t // (A * E) + 1, None, 1, 0))
            else:
                q, r = divmod(t, A * E)
                row.append(None if r else ZSet(q, q, 1, 0))
        out.append(row)
    return out


def _z_locator(cells: list[CellInstance]):
    """The cell of x: x mod M and one bisection over the cuts; a non-integer
    locates nothing."""
    M, cuts = cells[0].region.M, cells[0].region.cuts
    at = {(c.region.res, c.region.k): ci for ci, c in enumerate(cells)}

    def locate(a) -> tuple[int, ...]:
        x = a[0]
        if x.denominator != 1:
            return ()
        ci = at.get((x.numerator % M, bisect_right(cuts, x.numerator)))
        return () if ci is None else (ci,)

    return locate


# ---------------------------------------------------------------------------
# Decomposition wrapper
# ---------------------------------------------------------------------------


def build_decomposition(family: ParamFamily) -> Decomposition:
    if family.kind != "vector-linear":
        locator_fn = _z_locator
    elif family.point_dim == 1:
        locator_fn = lambda cells: interval_locator([c.region for c in cells], 0)  # noqa: E731
    else:
        locator_fn = _vl_locator
    return Decomposition(
        name=f"conj-{family.kind}",
        instantiate_fn=lambda B: conj_decomposition(family, B),
        locator_fn=locator_fn,
    )
