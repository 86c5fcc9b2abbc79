"""Exact scalar kernel: rationals, p-adic valuations, unit residues, and the
multiplicative predicates used by the valued-field engines.

The functions here take rationals (`fractions.Fraction` or int, arbitrary
precision) and decide every predicate exactly.  A valuation is a level of
the value group Z extended by two infinities: an int, or `INF` (math.inf)
for v(0) and -INF for the radius of the whole line.  An int compares
exactly with either infinity, and no float arithmetic happens: shifting a
level by an int keeps an infinite one infinite, and no code adds INF to
-INF.  `split_p` and `pn_residues` work on Python ints: the p-adic
engines scale each instance's rationals to ints once and call them on
those.  Primes are restricted to odd p >= 3.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rat = Union[Fraction, int]
Level = Union[int, float]  # an int, or +-INF

INF = math.inf


def split_p(n: int, p: int) -> tuple[int, int]:
    """(v_p(n), n / p^v_p(n)) of a nonzero int; the p-free part keeps n's
    sign."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def valuation(a: Rat, p: int) -> Level:
    """p-adic valuation of a rational as an int level; INF exactly for 0."""
    a = Fraction(a)
    if a == 0:
        return INF
    return split_p(a.numerator, p)[0] - split_p(a.denominator, p)[0]


def unit_residue(a: Rat, p: int, k: int) -> int:
    """(a * p^-v(a)) mod p^k, computed via the modular inverse of the p-free
    denominator.  Requires a != 0 and k >= 1."""
    a = Fraction(a)
    if a == 0:
        raise ZeroDivisionError("unit residue of 0 is undefined")
    if k < 1:
        raise ValueError("k must be >= 1")
    num, den = split_p(a.numerator, p)[1], split_p(a.denominator, p)[1]
    mod = p ** k
    return (num * pow(den, -1, mod)) % mod


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def in_qmn(a: Rat, lam: Rat, m: int, n: int, p: int) -> bool:
    """Membership a in lam * Q_{m,n}, where Q_{m,n} is the union over k of
    p^(km) * (1 + p^n Z_p).

    For lam = 0 this degenerates to a == 0.  For nonzero arguments it holds
    iff m divides v(a/lam) and the unit part of a/lam is 1 mod p^n.
    """
    a, lam = Fraction(a), Fraction(lam)
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    if lam == 0:
        return a == 0
    if a == 0:
        return False
    r = a / lam
    if valuation(r, p) % m != 0:
        return False
    return unit_residue(r, p, n) == 1


def in_pn(a: Rat, n: int, p: int) -> bool:
    """Is a an n-th power in Q_p?  (0 counts: 0 = 0^n.)

    Decided exactly: n must divide v(a), and the unit part must have an n-th
    root modulo p^(2 v_p(n) + 1); by Hensel's lemma that residue precision is
    both sufficient and necessary.
    """
    a = Fraction(a)
    if n < 2:
        raise ValueError("n must be >= 2")
    if a == 0:
        return True
    if valuation(a, p) % n != 0:
        return False
    k, powers = pn_residues(n, p)
    return unit_residue(a, p, k) in powers


@lru_cache(maxsize=None)
def pn_residues(n: int, p: int) -> tuple[int, frozenset]:
    """The precision k = 2 v_p(n) + 1 of `in_pn` and the n-th powers among
    the units mod p^k, computed once per (n, p)."""
    k = 2 * split_p(n, p)[0] + 1
    mod = p ** k
    return k, frozenset(pow(x, n, mod) for x in range(1, mod) if x % p != 0)


def same_pn_coset(a: Rat, b: Rat, n: int, p: int) -> bool:
    """Do nonzero a, b lie in the same coset of the n-th powers P_n^x?"""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ZeroDivisionError("coset test needs nonzero arguments")
    return in_pn(a / b, n, p)


@lru_cache(maxsize=None)
def pn_coset_representatives(n: int, p: int) -> tuple[Fraction, ...]:
    """A full list of coset representatives of Q_p^x / P_n^x, found by brute
    force over p^j * u with 0 <= j < n and u a unit residue, once per
    (n, p)."""
    k = 2 * split_p(n, p)[0] + 1
    reps: list[Fraction] = []
    for j in range(n):
        for u in range(1, p ** k):
            if u % p == 0:
                continue
            cand = Fraction(u) * Fraction(p) ** j
            if not any(same_pn_coset(cand, r, n, p) for r in reps):
                reps.append(cand)
    return tuple(reps)


@lru_cache(maxsize=None)
def qmn_coset_representatives(m: int, n: int, p: int) -> tuple[Fraction, ...]:
    """Coset representatives of Q_p^x / Q_{m,n}^x: p^j * u over 0 <= j < m
    and units u mod p^n, once per (m, n, p)."""
    reps = []
    for j in range(m):
        for u in range(1, p ** n):
            if u % p == 0:
                continue
            reps.append(Fraction(u) * Fraction(p) ** j)
    return tuple(reps)
