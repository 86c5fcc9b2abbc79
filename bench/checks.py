"""Independent correctness checks for the benchmark's outputs.

Every check recomputes its answer from the generated inputs with code of its
own (plain integer or `Fraction` arithmetic over the benchmark's own
descriptions of the families), or tests a property the paper proves.  None
of them calls back into the engine that produced the output.  A check
raises `CheckError` with a message naming the mismatch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- ordered families in one variable ------------------------------------------
#
# A 1-D ordered predicate is described as a tree of
#   ("atom", cx, cy, c, rel)   meaning  cx*x + cy*y + c REL 0
#   ("and", parts) / ("or", parts)
# with rel in <, <=, =, >, >= and cx != 0.

_RELS = {
    "<": lambda v: v < 0,
    "<=": lambda v: v <= 0,
    "=": lambda v: v == 0,
    ">": lambda v: v > 0,
    ">=": lambda v: v >= 0,
}


def eval_pred(desc, x: Fraction, y: Fraction) -> bool:
    tag = desc[0]
    if tag == "atom":
        _, cx, cy, c, rel = desc
        return _RELS[rel](cx * x + cy * y + c)
    if tag == "and":
        return all(eval_pred(d, x, y) for d in desc[1])
    if tag == "or":
        return any(eval_pred(d, x, y) for d in desc[1])
    raise ValueError(f"bad predicate tag {tag!r}")


def pred_atoms(desc) -> Iterable[tuple]:
    if desc[0] == "atom":
        yield desc
    else:
        for d in desc[1]:
            yield from pred_atoms(d)


def sweep_points(cuts: Iterable[Fraction]) -> list[Fraction]:
    """Every cut, every midpoint between neighbouring cuts, and one point
    beyond each end: one representative of every atom of the order."""
    cuts = sorted(set(cuts))
    if not cuts:
        return [Fraction(0)]
    pts = [cuts[0] - 1]
    for lo, hi in zip(cuts, cuts[1:]):
        pts += [lo, (lo + hi) / 2]
    pts += [cuts[-1], cuts[-1] + 1]
    return pts


def ordered_census(preds: Sequence, B: Sequence[Fraction]) -> int:
    """Number of realized truth vectors of 1-D ordered predicates over B,
    evaluated at the atom thresholds and the midpoints between them."""
    cuts = [
        -(cy * b + c) / cx
        for d in preds
        for _, cx, cy, c, _ in pred_atoms(d)
        for b in B
    ]
    return len({
        tuple(eval_pred(d, x, b) for d in preds for b in B)
        for x in sweep_points(cuts)
    })


def omin1d_cell_bound(components: Sequence[int], n_params: int) -> int:
    """The chain decomposition's bound 2 N |Phi| |B| + 1, with N the largest
    number of convex components of a predicate."""
    return 2 * max(components) * len(components) * n_params + 1


# -- Presburger families ---------------------------------------------------------


def presburger_type_count(preds: Sequence, K: int, B: Sequence[tuple]) -> int:
    """Realized truth vectors of congruence atoms over B, by enumerating every
    integer in a window reaching 2K past the extreme order thresholds.
    Outside that window truth vectors repeat with period K.

    `preds` holds (rel, f_coeff, f_const, g_coeffs, g_const) with rel in
    <, =, >, mod; the atom is f(x) REL g(y), or K | f(x) + g(y)."""
    def integral(v: Fraction) -> int:
        require(v.denominator == 1, "Presburger check needs integer data")
        return v.numerator

    cols = []
    cuts = []
    for rel, fc, f0, gcs, g0 in preds:
        fc, f0 = integral(fc), integral(f0)
        for b in B:
            gb = integral(g0 + sum(c * v for c, v in zip(gcs, b)))
            cols.append((rel, fc, f0, gb))
            if rel != "mod" and fc != 0:
                cuts.append(Fraction(gb - f0, fc))
    lo = math.floor(min(cuts, default=0)) - 2 * K - 1
    hi = math.ceil(max(cuts, default=0)) + 2 * K + 1

    def holds(rel, fc, f0, gb, x):
        fx = fc * x + f0
        if rel == "mod":
            return (fx + gb) % K == 0
        return fx < gb if rel == "<" else (fx == gb if rel == "=" else fx > gb)

    return len({
        tuple(holds(*col, x) for col in cols) for x in range(lo, hi + 1)
    })


# -- planar semilinear families --------------------------------------------------


def plane_census(atoms: Sequence[tuple], B: Sequence[tuple], probes: Sequence[tuple]) -> int:
    """Distinct truth vectors of single-atom planar predicates at the probes.
    An atom is (coeffs, const, rel) over the variables (x1, x2, y1, y2)."""
    cols = []
    for coeffs, const, rel in atoms:
        for b in B:
            shift = const + sum(c * v for c, v in zip(coeffs[2:], b))
            cols.append((coeffs[0], coeffs[1], shift, _RELS[rel]))
    return len({
        tuple(test(a1 * p[0] + a2 * p[1] + shift) for a1, a2, shift, test in cols)
        for p in probes
    })


# -- shatter sweeps ---------------------------------------------------------------


def loglog_slope(sizes: Sequence[int], counts: Sequence[int]) -> float:
    """Least-squares slope of log(count) against log(size)."""
    require(len(set(sizes)) >= 2 and min(counts) >= 1, "slope needs two sizes with cells")
    xs = [math.log(n) for n in sizes]
    ys = [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def check_slope(name: str, maxima: dict, bound: float) -> float:
    sizes = sorted(maxima)
    slope = loglog_slope(sizes, [maxima[n] for n in sizes])
    require(slope <= bound, f"{name}: fitted slope {slope:.4f} exceeds {bound}")
    return slope


# -- verification reports -----------------------------------------------------------


def check_report(label: str, rep) -> None:
    require(
        rep.covered and rep.uncrossed and rep.cell_count_deduped >= rep.census_lower_bound,
        f"{label}: verification failed: {rep.to_dict()}",
    )


# -- incidence identities -------------------------------------------------------------


def check_sum_product(A: Sequence[Fraction], rep) -> None:
    A = set(A)
    sums = len({a + b for a in A for b in A})
    prods = len({a * b for a in A for b in A})
    require(rep.size == len(A), f"sum-product: |A| {rep.size} != {len(A)}")
    require(rep.sumset == sums, f"sum-product: |A+A| {rep.sumset} != {sums}")
    require(rep.productset == prods, f"sum-product: |A.A| {rep.productset} != {prods}")
    require(
        rep.incidences >= len(A) ** 3,
        f"sum-product: |E| {rep.incidences} < |A|^3 = {len(A) ** 3}",
    )


def check_sum_bb(A: Sequence[Fraction], B: Sequence[Fraction], rep) -> None:
    want = len(set(A)) * len(set(B)) ** 2
    require(rep.incidences == want, f"sum-bb: |E| {rep.incidences} != |A||B|^2 = {want}")


def check_grid(n_lines: int, row) -> None:
    want = n_lines * n_lines // 16
    require(row.edges == want, f"grid n={n_lines}: {row.edges} edges != n^2/16 = {want}")
