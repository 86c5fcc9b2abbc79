"""Exact linear algebra over Q: affine maps, semilinear formulas, interval
extraction in one variable, and quantifier elimination by virtual substitution.

Formulas are nested tuples over `Atom`s; an atom is an affine expression
compared to zero.  Atoms in formulas are kept in canonical form: coprime
`int` coefficients and constant, fixed up to a positive factor.  Quantifier
elimination and the Fourier-Motzkin satisfiability test work on those int
rows, scaling a substituted root by its coefficient instead of dividing by it.

The engines read a formula compiled once (`Compiled`): its distinct atoms as
int rows, and its tree naming each atom by row index.  `at` fixes variables
to values scaled to ints once, one dot product per row; `pieces` ranks the
roots of rows in one variable into the 1-D components, and `holds` tests a
point scaled to ints.  Each turns rows into bit masks that one walk of the
tree, `_mask_of`, combines.  `components_1d` is the one-shot path (compile,
then read the pieces), and `eval_formula` evaluates on Fractions.  Points,
parameters and interval endpoints are `fractions.Fraction`s.  Everything is
exact, which is what the decomposition engines rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

TRUE = ("true",)
FALSE = ("false",)


@dataclass(frozen=True)
class AffineMap:
    """x |-> sum(coeffs[i] * x[i]) + const."""

    coeffs: tuple[Fraction, ...]
    const: Fraction

    @staticmethod
    def of(coeffs: Sequence, const=0) -> "AffineMap":
        return AffineMap(tuple(map(Fraction, coeffs)), Fraction(const))

    def __call__(self, args: Sequence[Fraction]) -> Fraction:
        acc = self.const
        for c, a in zip(self.coeffs, args):
            if c:
                acc += c * a
        return acc

    def is_zero(self) -> bool:
        return self.const == 0 and not any(self.coeffs)


@dataclass(frozen=True)
class Atom:
    """coeffs . vars + const  REL  0, with REL canonicalized to <, <=, =, !=.
    `make` stores Fractions; the canonical form in formulas stores ints."""

    coeffs: tuple
    const: Fraction | int
    rel: str

    @staticmethod
    def make(coeffs: Sequence, const, rel: str) -> "Atom":
        coeffs = tuple(map(Fraction, coeffs))
        const = Fraction(const)
        if rel == ">":
            coeffs, const, rel = tuple(-c for c in coeffs), -const, "<"
        elif rel == ">=":
            coeffs, const, rel = tuple(-c for c in coeffs), -const, "<="
        if rel not in ("<", "<=", "=", "!="):
            raise ValueError(f"bad relation {rel!r}")
        return Atom(coeffs, const, rel)

    def eval(self, assignment: Sequence[Fraction]) -> bool:
        """The atom at Fraction values, summed as num / den in plain ints;
        den > 0, so the numerator carries the sign."""
        num, den = self.const.numerator, self.const.denominator
        for c, a in zip(self.coeffs, assignment):
            if c:
                d = c.denominator * a.denominator
                num = num * d + c.numerator * a.numerator * den
                den *= d
        return _cmp(num, self.rel)


def _cmp(v: Fraction, rel: str) -> bool:
    if rel == "<":
        return v < 0
    if rel == "<=":
        return v <= 0
    if rel == "=":
        return v == 0
    return v != 0


def _to_ints(values) -> tuple[list[int], int]:
    """Rationals (or ints) scaled by the lcm of their denominators: the
    scaled ints and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _int_row(a: Atom) -> tuple[tuple, int]:
    """a's coefficients and constant as ints: as they are when they are ints
    already (canonical atoms), else scaled by the lcm of their denominators."""
    coeffs, const = a.coeffs, a.const
    # a sum of ints is an int; one Fraction (or float) among them is not
    if type(const) is int and type(sum(coeffs)) is int:
        return coeffs, const
    ints, _ = _to_ints((*coeffs, const))
    return tuple(ints[:-1]), ints[-1]


def _canonical(coeffs: list[int], const: int, rel: str) -> Atom:
    """The atom coeffs . vars + const REL 0 divided by the gcd of its ints,
    with trailing zero coefficients trimmed (`coeffs` is consumed)."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    g = gcd(const, *coeffs)
    if g > 1:
        return Atom(tuple(c // g for c in coeffs), const // g, rel)
    return Atom(tuple(coeffs), const, rel)


def _fold_ints(coeffs: list[int], const: int, rel: str) -> tuple:
    """fold_atom for an int row."""
    if not any(coeffs):
        return TRUE if _cmp(const, rel) else FALSE
    return ("atom", _canonical(coeffs, const, rel))


def fold_atom(atom: Atom) -> tuple:
    """Wrap an atom as a formula, resolving variable-free atoms to TRUE/FALSE
    and scaling the rest to canonical integer form."""
    coeffs, const = _int_row(atom)
    return _fold_ints(list(coeffs), const, atom.rel)


def f_atom(coeffs, const, rel) -> tuple:
    return fold_atom(Atom.make(coeffs, const, rel))


def f_and(*fs) -> tuple:
    flat: dict = {}
    for f in fs:
        if f == FALSE:
            return FALSE
        if f == TRUE:
            continue
        if f[0] == "and":
            for g in f[1]:
                flat.setdefault(g)
        else:
            flat.setdefault(f)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return ("and", tuple(flat))


def f_or(*fs) -> tuple:
    flat: dict = {}
    for f in fs:
        if f == TRUE:
            return TRUE
        if f == FALSE:
            continue
        if f[0] == "or":
            for g in f[1]:
                flat.setdefault(g)
        else:
            flat.setdefault(f)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return next(iter(flat))
    return ("or", tuple(flat))


def f_not(f) -> tuple:
    if f == TRUE:
        return FALSE
    if f == FALSE:
        return TRUE
    if f[0] == "not":
        return f[1]
    return ("not", f)


def eval_formula(f, assignment: Sequence[Fraction]) -> bool:
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "atom":
        return f[1].eval(assignment)
    if tag == "and":
        return all(eval_formula(g, assignment) for g in f[1])
    if tag == "or":
        return any(eval_formula(g, assignment) for g in f[1])
    if tag == "not":
        return not eval_formula(f[1], assignment)
    raise ValueError(f"bad formula tag {tag!r}")


def formula_atoms(f) -> Iterable[Atom]:
    tag = f[0]
    if tag == "atom":
        yield f[1]
    elif tag in ("and", "or"):
        for g in f[1]:
            yield from formula_atoms(g)
    elif tag == "not":
        yield from formula_atoms(f[1])


def map_atoms(f, rule):
    """Rebuild f with each atom a replaced by the formula rule(a); the
    and/or/not structure is rebuilt with f_and, f_or and f_not."""
    tag = f[0]
    if tag in ("true", "false"):
        return f
    if tag == "atom":
        return rule(f[1])
    if tag == "and":
        return f_and(*(map_atoms(g, rule) for g in f[1]))
    if tag == "or":
        return f_or(*(map_atoms(g, rule) for g in f[1]))
    if tag == "not":
        return f_not(map_atoms(f[1], rule))
    raise ValueError(tag)


# ---------------------------------------------------------------------------
# Virtual substitution (Loos-Weispfenning style) over the dense order Q.
# ---------------------------------------------------------------------------


def _subst_affine(f, var: int, coeffs: Sequence, const):
    """Substitute vars[var] := affine expression (coeffs, const)."""
    ints, den = _to_ints((*coeffs, const))
    return _subst(f, var, ints[:-1], ints[-1], den, eps=False)


def _subst(f, var: int, num: list[int], k: int, den: int, eps: bool):
    """Substitute vars[var] := (num . vars + k) / den with den > 0, plus an
    infinitesimal epsilon > 0 when `eps`; the sign contribution of epsilon
    resolves statically.  Each rewritten atom is scaled by den, so the
    arithmetic stays on ints."""

    def rule(a: Atom):
        c = a.coeffs[var] if var < len(a.coeffs) else 0
        if c == 0:
            return ("atom", a)
        rel = a.rel
        if eps:
            if rel == "=":
                return FALSE  # v + c*eps is never exactly 0 when c != 0
            if rel == "!=":
                return TRUE
            # v + c*eps REL 0 for infinitesimal eps > 0: v < 0, or v = 0 and c < 0
            rel = "<=" if c < 0 else "<"
        coeffs, const = _int_row(a)
        c = coeffs[var]
        out = [den * ci for ci in coeffs] if den != 1 else list(coeffs)
        if len(num) > len(out):
            out.extend([0] * (len(num) - len(out)))
        out[var] = 0
        for i, ni in enumerate(num):
            if ni:
                out[i] += c * ni
        return _fold_ints(out, den * const + c * k, rel)

    return map_atoms(f, rule)


def _subst_neg_inf(f, var: int):
    def rule(a: Atom):
        c = a.coeffs[var] if var < len(a.coeffs) else 0
        if c == 0:
            return ("atom", a)
        if a.rel == "=":
            return FALSE
        if a.rel == "!=":
            return TRUE
        # c*(-inf) dominates: value -> -inf if c > 0 else +inf
        return TRUE if c > 0 else FALSE

    return map_atoms(f, rule)


def eliminate_exists(f, var: int) -> tuple:
    """Quantifier-free equivalent of  exists vars[var] . f  over Q.

    Test points: -infinity, every atom root, and every root plus epsilon.
    The root of c*vars[var] + r (c != 0) is substituted as
    (-sign(c) * r) / |c|, so an atom a with coefficient c_a becomes
    |c| * a - sign(c) * c_a * (c*vars[var] + r), an int row.  The result
    never mentions vars[var].
    """
    roots: dict = {}
    for a in formula_atoms(f):
        c = a.coeffs[var] if var < len(a.coeffs) else 0
        if c == 0:
            continue
        coeffs, const = _int_row(a)
        c = coeffs[var]
        s = -1 if c > 0 else 1
        num = [s * ci for ci in coeffs]
        num[var] = 0
        k = s * const
        # atoms with the same root give the same key (up to trailing zeros)
        g = gcd(k, *num, c)
        key = (tuple(n // g for n in num), k // g, abs(c) // g)
        if key not in roots:
            roots[key] = (num, k, abs(c))
    parts = [_subst_neg_inf(f, var)]
    for num, k, den in roots.values():
        parts.append(_subst(f, var, num, k, den, eps=False))
        parts.append(_subst(f, var, num, k, den, eps=True))
    return f_or(*parts)


# ---------------------------------------------------------------------------
# Intervals over Q with open/closed rational endpoints (None = unbounded).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Iv:
    lo: Optional[Fraction]
    lo_open: bool
    hi: Optional[Fraction]
    hi_open: bool

    @staticmethod
    def full() -> "Iv":
        return Iv(None, True, None, True)

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def member(self, x: Fraction) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and self.lo_open):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and self.hi_open):
                return False
        return True

    def sample(self) -> Fraction:
        """Some point of a nonempty interval."""
        if self.lo is None and self.hi is None:
            return Fraction(0)
        if self.lo is None:
            return self.hi - 1 if self.hi_open else self.hi
        if self.hi is None:
            return self.lo + 1 if self.lo_open else self.lo
        if not self.lo_open:
            return self.lo
        if not self.hi_open:
            return self.hi
        return (self.lo + self.hi) / 2


def _lo_key(lo: Optional[Fraction], lo_open: bool):
    # tightness order for lower bounds: -inf loosest, (v, open) tighter than (v, closed)
    return (0, Fraction(0), 0) if lo is None else (1, lo, 1 if lo_open else 0)


def _hi_key(hi: Optional[Fraction], hi_open: bool):
    # tightness order for upper bounds: +inf loosest, (v, open) tighter than (v, closed)
    return (1, Fraction(0), 0) if hi is None else (0, hi, 0 if hi_open else 1)


def iv_intersect(a: Iv, b: Iv) -> Iv:
    lo, lo_open = (a.lo, a.lo_open)
    if _lo_key(b.lo, b.lo_open) > _lo_key(a.lo, a.lo_open):
        lo, lo_open = b.lo, b.lo_open
    hi, hi_open = (a.hi, a.hi_open)
    if _hi_key(b.hi, b.hi_open) < _hi_key(a.hi, a.hi_open):
        hi, hi_open = b.hi, b.hi_open
    return Iv(lo, lo_open, hi, hi_open)


def merge_adjacent(ivs: list[Iv]) -> list[Iv]:
    """Merge an ordered list of disjoint intervals into maximal convex pieces
    (adjacent pieces like (0,1] (1,2) collapse)."""
    out: list[Iv] = []
    for iv in ivs:
        if iv.is_empty():
            continue
        if out:
            prev = out[-1]
            if prev.hi is not None and iv.lo is not None and prev.hi == iv.lo \
                    and (not prev.hi_open or not iv.lo_open):
                out[-1] = Iv(prev.lo, prev.lo_open, iv.hi, iv.hi_open)
                continue
        out.append(iv)
    return out


# Rank positions over sorted distinct cuts c_0 < ... < c_{k-1}: position
# 2j + 1 is the point c_j, and the even position 2j is the open gap below it
# (2k the gap above the last cut).  A union of whole positions is a closed
# range (lo, hi) of them.


def position(cuts: list, v: Fraction) -> int:
    """v's position: 2j + 1 when v is cuts[j], else the gap that holds it."""
    k = bisect_left(cuts, v)
    return 2 * k + 1 if k < len(cuts) and cuts[k] == v else 2 * k


def decode(cuts: list, ext: tuple[int, int]) -> Iv:
    """The interval made of the positions lo..hi."""
    lo, hi = ext
    return Iv(
        None if lo == 0 else cuts[(lo - 1) // 2], lo % 2 == 0,
        None if hi == 2 * len(cuts) else cuts[hi // 2], hi % 2 == 0,
    )


# ---------------------------------------------------------------------------
# DNF simplification with exact satisfiability pruning (Fourier-Motzkin)
# ---------------------------------------------------------------------------


def _neg_atom(a: Atom) -> Atom:
    if a.rel == "<":
        return Atom(tuple(-c for c in a.coeffs), -a.const, "<=")
    if a.rel == "<=":
        return Atom(tuple(-c for c in a.coeffs), -a.const, "<")
    if a.rel == "=":
        return Atom(a.coeffs, a.const, "!=")
    return Atom(a.coeffs, a.const, "=")


def _dnf_conjuncts(f, negate: bool, limit: int) -> Optional[list[frozenset]]:
    """Conjunct sets of the DNF of f (or of not-f); None when the expansion
    exceeds `limit` conjuncts."""
    tag = f[0]
    if tag == "true":
        return [] if negate else [frozenset()]
    if tag == "false":
        return [frozenset()] if negate else []
    if tag == "atom":
        a = f[1]  # canonical already: formulas are built by fold_atom
        return [frozenset([_neg_atom(a) if negate else a])]
    if tag == "not":
        return _dnf_conjuncts(f[1], not negate, limit)
    parts = f[1]
    is_or = (tag == "or") != negate
    if is_or:
        out: list[frozenset] = []
        for g in parts:
            sub = _dnf_conjuncts(g, negate, limit)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > limit:
                return None
        return out
    acc: list[frozenset] = [frozenset()]
    for g in parts:
        sub = _dnf_conjuncts(g, negate, limit)
        if sub is None:
            return None
        acc = [c | s for c in acc for s in sub]
        if len(acc) > limit:
            return None
    return acc


def conj_satisfiable(atoms) -> bool:
    """Exact satisfiability over Q of a conjunction of atoms, by Gaussian
    substitution of equalities and Fourier-Motzkin elimination, all on int
    rows: eliminating a variable scales the rows by positive ints instead of
    dividing by a pivot."""
    eqs, ineqs, neqs = [], [], []
    for a in atoms:
        coeffs, const = _int_row(a)
        if a.rel == "=":
            eqs.append((coeffs, const))
        elif a.rel == "!=":
            neqs.append((coeffs, const))
        else:
            ineqs.append((coeffs, const, a.rel))
    subst: list[tuple[int, tuple, int]] = []  # (pivot, row, const) of an equality

    def reduce(coeffs, const):
        for piv, row, rk in subst:
            c = coeffs[piv] if piv < len(coeffs) else 0
            if c:
                p = row[piv]
                coeffs, const = _combine(abs(p), coeffs, const, -c if p > 0 else c, row, rk)
        return coeffs, const

    for coeffs, const in eqs:
        coeffs, const = reduce(coeffs, const)
        piv = next((i for i, c in enumerate(coeffs) if c), None)
        if piv is None:
            if const != 0:
                return False
            continue
        subst.append((piv, coeffs, const))

    red_ineqs = []
    for coeffs, const, rel in ineqs:
        coeffs, const = reduce(coeffs, const)
        if not any(coeffs):
            if not _cmp(const, rel):
                return False
            continue
        red_ineqs.append((coeffs, const, rel))
    red_neqs = []
    for coeffs, const in neqs:
        coeffs, const = reduce(coeffs, const)
        if not any(coeffs):
            if const == 0:
                return False
            continue
        red_neqs.append((coeffs, const))
    if not _fm_sat(red_ineqs):
        return False
    for coeffs, const in red_neqs:
        # the inequality system must not force this expression to 0
        lt = red_ineqs + [(coeffs, const, "<")]
        gt = red_ineqs + [([-c for c in coeffs], -const, "<")]
        if not _fm_sat(lt) and not _fm_sat(gt):
            return False
    return True


def _combine(p: int, u, uk: int, q: int, v, vk: int) -> tuple[list[int], int]:
    """The int row p*u + q*v (constant p*uk + q*vk), divided by the gcd of
    its entries."""
    n = max(len(u), len(v))
    out = [p * ui for ui in u]
    if n > len(out):
        out.extend([0] * (n - len(out)))
    for i, vi in enumerate(v):
        if vi:
            out[i] += q * vi
    k = p * uk + q * vk
    g = gcd(k, *out)
    if g > 1:
        return [x // g for x in out], k // g
    return out, k


def _fm_sat(ineqs) -> bool:
    """Fourier-Motzkin satisfiability over Q of int rows (coeffs, const, rel),
    each  coeffs . vars + const REL 0  with REL in {<, <=}.  A lower row l
    (pivot coefficient lc < 0) and an upper row u (uc > 0) combine into
    uc*l + |lc|*u, which is strict when either side is."""
    while True:
        var = None
        for coeffs, _, _ in ineqs:
            piv = next((i for i, c in enumerate(coeffs) if c), None)
            if piv is not None:
                var = piv
                break
        if var is None:
            return all(_cmp(k, r) for _, k, r in ineqs)
        lowers, uppers, new = [], [], []
        for coeffs, k, r in ineqs:
            c = coeffs[var] if var < len(coeffs) else 0
            if c == 0:
                new.append((coeffs, k, r))
            elif c > 0:
                uppers.append((coeffs, k, r, c))
            else:
                lowers.append((coeffs, k, r, -c))
        for lc, lk, lr, lcoef in lowers:
            for uc, uk, ur, ucoef in uppers:
                coeffs, k = _combine(ucoef, lc, lk, lcoef, uc, uk)
                r = "<" if (lr == "<" or ur == "<") else "<="
                if not any(coeffs):
                    if not _cmp(k, r):
                        return False
                else:
                    new.append((coeffs, k, r))
        ineqs = new


def dnf_simplify(f, limit: int = 512):
    """Equivalent or-of-ands form with unsatisfiable and subsumed conjuncts
    removed; returns f unchanged when the DNF would exceed `limit`."""
    conj = _dnf_conjuncts(f, False, limit)
    if conj is None:
        return f
    sat = []
    for c in conj:
        if frozenset() == c:
            return TRUE
        if conj_satisfiable(c):
            sat.append(c)
    if not sat:
        return FALSE
    sat.sort(key=len)
    kept: list[frozenset] = []
    for c in sat:
        if not any(k <= c for k in kept):
            kept.append(c)
    parts = [
        f_and(*(("atom", a) for a in sorted(c, key=lambda a: (a.coeffs, a.const, a.rel))))
        for c in kept
    ]
    return f_or(*parts)


class Compiled(NamedTuple):
    """A formula compiled once: its distinct atoms as int rows (coeffs, const,
    rel), each reading coeffs . vars + const REL 0, and its tree with each
    atom named by its row index."""

    rows: tuple
    tree: tuple

    @staticmethod
    def of(f) -> "Compiled":
        index: dict = {}  # atom -> row index, in first-seen order
        tree = map_atoms(f, lambda a: ("atom", index.setdefault(a, len(index))))
        return Compiled(tuple((*_int_row(a), a.rel) for a in index), tree)

    def at(self, vals: Sequence[int], den: int, free: Sequence[int]) -> "Compiled":
        """The rows over the variables `free` (in that order) with each other
        variable i fixed to vals[i] / den, vals being 0 in the free slots: den
        times an atom is the int row  sum (den c_i) x_i + s,  s = den const + c . vals."""
        return Compiled(tuple(
            (tuple(den * coeffs[i] if i < len(coeffs) else 0 for i in free),
             const * den + sum(map(mul, coeffs, vals)), rel)
            for coeffs, const, rel in self.rows
        ), self.tree)

    def holds(self, pt: tuple) -> bool:
        """The formula at the point x_i = n_i / q given as the ints
        (n_1, ..., n_k, q): a mask walk with one bit per row."""
        q, bits = pt[-1], []
        for c, k, rel in self.rows:  # _cmp inlined: this runs once per (cell, probe)
            v = sum(map(mul, c, pt), k * q)
            bits.append(v < 0 if rel == "<" else v <= 0 if rel == "<=" else
                        v == 0 if rel == "=" else v != 0)
        return bool(_mask_of(self.tree, bits, 1))

    def pieces(self) -> list[Iv]:
        """The maximal convex components where a formula in one variable
        holds (rows c x + s).  The distinct roots -s/c, ranked on ints, give
        the positions of `position`; each row is a bit mask over them read
        off its root's rank, and each run of positions that the tree walk
        keeps is a component."""
        m = lcm(*(c for (c,), _, _ in self.rows if c))  # root * m is the int -s * (m / c)
        keys = [-s * (m // c) if c else None for (c,), s, _ in self.rows]
        cuts = sorted({key for key in keys if key is not None})
        rank = {key: j for j, key in enumerate(cuts)}
        full = (1 << (2 * len(cuts) + 1)) - 1
        masks = []
        for ((c,), s, rel), key in zip(self.rows, keys):
            if not c:
                masks.append(full if _cmp(s, rel) else 0)
                continue
            at = 2 << (2 * rank[key])
            neg = at - 1 if c > 0 else full ^ (2 * at - 1)
            masks.append(neg if rel == "<" else neg | at if rel == "<=" else
                         at if rel == "=" else full ^ at)
        held = _mask_of(self.tree, masks, full)
        values = [Fraction(key, m) for key in cuts] if held else []
        out, p = [], 0
        while held:
            if held & 1:
                start = p
                while held & 2:
                    held >>= 1
                    p += 1
                out.append(decode(values, (start, p)))
            held >>= 1
            p += 1
        return out


def components_1d(f, var: int, assignment: list[Fraction]) -> list[Iv]:
    """Maximal convex components of {x : f holds with vars[var] = x}, with the
    other variables fixed by `assignment` (whose var slot is ignored): f
    compiled, its rows at the assignment scaled to ints, and their pieces."""
    vals, den = _to_ints(assignment)
    vals[var] = 0
    return Compiled.of(f).at(vals, den, (var,)).pieces()


def _mask_of(f, masks, full: int) -> int:
    """The pieces (bits of `full`) where f holds, given each atom's mask by
    the atom's key in the tree: a row index of a compiled formula, or the
    atom itself."""
    tag = f[0]
    if tag == "atom":
        return masks[f[1]]
    if tag == "and":
        m = full
        for g in f[1]:
            m &= masks[g[1]] if g[0] == "atom" else _mask_of(g, masks, full)
            if not m:
                break
        return m
    if tag == "or":
        m = 0
        for g in f[1]:
            m |= masks[g[1]] if g[0] == "atom" else _mask_of(g, masks, full)
            if m == full:
                break
        return m
    if tag == "not":
        return full ^ _mask_of(f[1], masks, full)
    if tag == "true":
        return full
    if tag == "false":
        return 0
    raise ValueError(f"bad formula tag {tag!r}")
