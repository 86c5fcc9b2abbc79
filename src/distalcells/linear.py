"""Exact linear algebra over Q: affine maps, semilinear formulas, interval
extraction in one variable, and quantifier elimination by virtual substitution.

Formulas are nested tuples over `Atom`s; an atom is an affine expression
compared to zero.  Everything is decided with `fractions.Fraction`, so the
component extraction and the eliminated formulas are exact, which is what the
decomposition engines rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]

TRUE = ("true",)
FALSE = ("false",)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class AffineMap:
    """x |-> sum(coeffs[i] * x[i]) + const."""

    coeffs: Vec
    const: Fraction

    @staticmethod
    def of(coeffs: Sequence, const=0) -> "AffineMap":
        return AffineMap(tuple(_frac(c) for c in coeffs), _frac(const))

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
    """coeffs . vars + const  REL  0, with REL canonicalized to <, <=, =, !=."""

    coeffs: Vec
    const: Fraction
    rel: str

    @staticmethod
    def make(coeffs: Sequence, const, rel: str) -> "Atom":
        coeffs = tuple(_frac(c) for c in coeffs)
        const = _frac(const)
        if rel == ">":
            coeffs, const, rel = tuple(-c for c in coeffs), -const, "<"
        elif rel == ">=":
            coeffs, const, rel = tuple(-c for c in coeffs), -const, "<="
        if rel not in ("<", "<=", "=", "!="):
            raise ValueError(f"bad relation {rel!r}")
        return Atom(coeffs, const, rel)

    def scaled_canonical(self) -> "Atom":
        """Scale by a positive rational so coefficients are coprime integers;
        trailing zero coefficients are trimmed.  Improves dedup hits."""
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        nums = [c for c in coeffs + [self.const] if c != 0]
        if not nums:
            return Atom((), self.const, self.rel)
        from math import gcd
        den_lcm = 1
        for c in nums:
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        num_gcd = 0
        for c in nums:
            num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
        scale = Fraction(den_lcm, num_gcd)
        return Atom(tuple(c * scale for c in coeffs), self.const * scale, self.rel)

    def _ratio(self, assignment: Sequence[Fraction]) -> tuple[int, int]:
        """(num, den) in plain ints, den > 0, with value = num / den."""
        num, den = self.const.numerator, self.const.denominator
        for c, a in zip(self.coeffs, assignment):
            if c:
                d = c.denominator * a.denominator
                num = num * d + c.numerator * a.numerator * den
                den *= d
        return num, den

    def value(self, assignment: Sequence[Fraction]) -> Fraction:
        return Fraction(*self._ratio(assignment))

    def eval(self, assignment: Sequence[Fraction]) -> bool:
        # den > 0, so the numerator carries the sign
        return _cmp(self._ratio(assignment)[0], self.rel)


def _cmp(v: Fraction, rel: str) -> bool:
    if rel == "<":
        return v < 0
    if rel == "<=":
        return v <= 0
    if rel == "=":
        return v == 0
    return v != 0


def fold_atom(atom: Atom) -> tuple:
    """Wrap an atom as a formula, resolving variable-free atoms to TRUE/FALSE
    and scaling the rest to canonical integer form."""
    if not any(atom.coeffs):
        return TRUE if _cmp(atom.const, atom.rel) else FALSE
    return ("atom", atom.scaled_canonical())


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


def _subst_affine(f, var: int, coeffs: Vec, const: Fraction):
    """Substitute vars[var] := affine expression (coeffs, const)."""

    def rule(a: Atom):
        c = a.coeffs[var] if var < len(a.coeffs) else Fraction(0)
        if c == 0:
            return ("atom", a)
        return _subst_atom(a, var, c, coeffs, const, a.rel)

    return map_atoms(f, rule)


def _subst_atom(a: Atom, var: int, c: Fraction, coeffs: Vec, const: Fraction, rel: str):
    """a with vars[var] := (coeffs, const) and relation rel; c = a's
    coefficient of vars[var]."""
    return fold_atom(Atom(tuple(_apply_sub(a.coeffs, var, c, coeffs)), a.const + c * const, rel))


def _subst_affine_eps(f, var: int, coeffs: Vec, const: Fraction):
    """Substitute vars[var] := (expression) + epsilon for infinitesimal
    epsilon > 0; the sign contribution of epsilon resolves statically."""

    def rule(a: Atom):
        c = a.coeffs[var] if var < len(a.coeffs) else Fraction(0)
        if c == 0:
            return ("atom", a)
        if a.rel == "=":
            return FALSE  # v + c*eps is never exactly 0 when c != 0
        if a.rel == "!=":
            return TRUE
        # v + c*eps REL 0 for infinitesimal eps > 0: v < 0, or v = 0 and c < 0
        return _subst_atom(a, var, c, coeffs, const, "<=" if c < 0 else "<")

    return map_atoms(f, rule)


def _subst_neg_inf(f, var: int):
    def rule(a: Atom):
        c = a.coeffs[var] if var < len(a.coeffs) else Fraction(0)
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
    The result never mentions vars[var].
    """
    roots: list[tuple[Vec, Fraction]] = []
    seen = set()
    for a in formula_atoms(f):
        c = a.coeffs[var] if var < len(a.coeffs) else Fraction(0)
        if c == 0:
            continue
        coeffs = tuple(
            (-ci / c if i != var else Fraction(0)) for i, ci in enumerate(a.coeffs)
        )
        const = -a.const / c
        key = (coeffs, const)
        if key not in seen:
            seen.add(key)
            roots.append(key)
    parts = [_subst_neg_inf(f, var)]
    for coeffs, const in roots:
        parts.append(_subst_affine(f, var, coeffs, const))
        parts.append(_subst_affine_eps(f, var, coeffs, const))
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

    @staticmethod
    def point(v: Fraction) -> "Iv":
        return Iv(v, False, v, False)

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


def iv_subset(a: Iv, b: Iv) -> bool:
    """a subseteq b for nonempty a."""
    if b.lo is not None:
        if a.lo is None:
            return False
        if a.lo < b.lo or (a.lo == b.lo and b.lo_open and not a.lo_open):
            return False
    if b.hi is not None:
        if a.hi is None:
            return False
        if a.hi > b.hi or (a.hi == b.hi and b.hi_open and not a.hi_open):
            return False
    return True


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


def crosses(components: list[Iv], delta: Iv) -> bool:
    """Does the set with the given maximal convex components cross delta?
    (Both delta-inside and delta-outside parts nonempty.)"""
    if delta.is_empty():
        return False
    hit = any(not iv_intersect(c, delta).is_empty() for c in components)
    if not hit:
        return False
    contained = any(iv_subset(delta, c) for c in components)
    return not contained


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
        a = f[1].scaled_canonical()
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
    """Exact satisfiability over Q of a conjunction of canonical atoms, by
    Gaussian substitution of equalities and Fourier-Motzkin elimination."""
    eqs = [a for a in atoms if a.rel == "="]
    ineqs = [(list(a.coeffs), a.const, a.rel) for a in atoms if a.rel in ("<", "<=")]
    neqs = [(list(a.coeffs), a.const) for a in atoms if a.rel == "!="]
    subst: list[tuple[int, list[Fraction], Fraction]] = []

    def reduce(coeffs, const):
        for var, rep_coeffs, rep_const in subst:
            c = coeffs[var] if var < len(coeffs) else Fraction(0)
            if c:
                coeffs = _apply_sub(coeffs, var, c, rep_coeffs)
                const = const + c * rep_const
        return coeffs, const

    work = [(list(a.coeffs), a.const) for a in eqs]
    while work:
        coeffs, const = reduce(*work.pop())
        piv = next((i for i, c in enumerate(coeffs) if c), None)
        if piv is None:
            if const != 0:
                return False
            continue
        c = coeffs[piv]
        rep_coeffs = [-ci / c if i != piv else Fraction(0) for i, ci in enumerate(coeffs)]
        rep_const = -const / c
        subst.append((piv, rep_coeffs, rep_const))

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


def _apply_sub(coeffs, var, c, rep_coeffs):
    """The coefficient list with the term c * vars[var] replaced by
    c * (rep_coeffs . vars); c is coeffs[var]."""
    n = max(len(coeffs), len(rep_coeffs))
    out = [Fraction(0)] * n
    for i, ci in enumerate(coeffs):
        out[i] = ci
    out[var] = Fraction(0)
    for i, ri in enumerate(rep_coeffs):
        if ri:
            out[i] += c * ri
    return out


def _fm_sat(ineqs) -> bool:
    """Fourier-Motzkin satisfiability for strict/weak inequalities over Q."""
    ineqs = [(list(c), k, r) for c, k, r in ineqs]
    while True:
        var = None
        for coeffs, _, _ in ineqs:
            piv = next((i for i, c in enumerate(coeffs) if c), None)
            if piv is not None:
                var = piv
                break
        if var is None:
            return all(_cmp(k, r) for _, k, r in ineqs)
        lowers, uppers, rest = [], [], []
        for coeffs, k, r in ineqs:
            c = coeffs[var] if var < len(coeffs) else Fraction(0)
            if c == 0:
                rest.append((coeffs, k, r))
            elif c > 0:
                uppers.append((coeffs, k, r, c))
            else:
                lowers.append((coeffs, k, r, c))
        new = rest
        for lc, lk, lr, lcoef in lowers:
            for uc, uk, ur, ucoef in uppers:
                n = max(len(lc), len(uc))
                coeffs = [Fraction(0)] * n
                for i in range(n):
                    a = lc[i] if i < len(lc) else Fraction(0)
                    b = uc[i] if i < len(uc) else Fraction(0)
                    coeffs[i] = a / (-lcoef) + b / ucoef
                coeffs[var] = Fraction(0)
                k = lk / (-lcoef) + uk / ucoef
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


def components_1d(f, var: int, assignment: list[Fraction]) -> list[Iv]:
    """Maximal convex components of {x : f holds with vars[var] = x}, with the
    other variables fixed by `assignment` (whose var slot is ignored)."""
    roots: set[Fraction] = set()
    for a in formula_atoms(f):
        c = a.coeffs[var] if var < len(a.coeffs) else Fraction(0)
        if c == 0:
            continue
        rest = a.const
        for i, ci in enumerate(a.coeffs):
            if ci and i != var:
                rest += ci * assignment[i]
        roots.add(-rest / c)
    cuts = sorted(roots)
    env = list(assignment)
    if var >= len(env):
        env.extend([Fraction(0)] * (var + 1 - len(env)))

    def holds(x: Fraction) -> bool:
        env[var] = x
        return eval_formula(f, env)

    pieces: list[tuple[Iv, bool]] = []
    if not cuts:
        return [Iv.full()] if holds(Fraction(0)) else []
    pieces.append((Iv(None, True, cuts[0], True), holds(cuts[0] - 1)))
    for i, r in enumerate(cuts):
        pieces.append((Iv.point(r), holds(r)))
        nxt = cuts[i + 1] if i + 1 < len(cuts) else None
        if nxt is None:
            pieces.append((Iv(r, True, None, True), holds(r + 1)))
        else:
            pieces.append((Iv(r, True, nxt, True), holds((r + nxt) / 2)))
    return merge_adjacent([iv for iv, ok in pieces if ok])
