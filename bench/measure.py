"""Order statistics, the drift calibration loop and the kernel
microbenchmarks."""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction
from typing import Optional, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of the
    sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly past the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct * n / 100))


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[int]:
    """The highest whole percentile (50..99) that leaves at least
    `min_beyond` of n samples beyond it, or None if even the median does not."""
    for pct in range(99, 49, -1):
        if beyond(n, pct) >= min_beyond:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as statistics.quantiles gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fraction_loop(iterations: int) -> float:
    """Seconds for a fixed pure-Python Fraction loop, the kind of arithmetic
    distalcells spends its time in."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, iterations + 1):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
        if acc > 100 or acc < -100:
            acc /= 3
    return time.perf_counter() - t0


def calibrate(reps: int = 3) -> float:
    """Milliseconds for the calibration loop (median of reps).  Timed before
    and after a run's ops, it tells the box's drift apart from a change in
    the program."""
    return statistics.median(fraction_loop(6000) for _ in range(reps)) * 1e3


# The speed slice is a short run of the calibration loop timed between
# consecutive ops.  This box runs the same code up to 1.7x slower for
# stretches of seconds to minutes, with CPU time equal to wall time, so raw
# op times spread 20-25% between runs.  Scaling each op by the slices around
# it gives its time at the speed where a slice takes SLICE_REF_MS.
SLICE_ITERATIONS = 1500
SLICE_REF_MS = 4.4  # a slice between ops on this box at its fastest


def speed_slice() -> float:
    """Milliseconds for one speed slice."""
    return fraction_loop(SLICE_ITERATIONS) * 1e3


def at_reference_speed(ms: float, slice_before: float, slice_after: float) -> float:
    """An op's milliseconds scaled to the reference speed, judged by the
    mean of the speed slices timed just before and just after it."""
    return ms * SLICE_REF_MS / ((slice_before + slice_after) / 2)


def kernel_ns(fn, args: tuple, calls: int = 2000, reps: int = 5) -> float:
    """Median over reps of the nanoseconds per call of fn(*args)."""
    per_call = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(*args)
        per_call.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(per_call)


def kernel_metrics() -> dict:
    """Kernel microbenchmarks on fixed inputs drawn from the workloads: a
    p-adic parameter of the Macintyre sweep, a P_2 test from verify-1d, a
    planar atom conjunction at a probe, and a two-component predicate of the
    omin1d verify case."""
    from distalcells import linear, scalars

    x = Fraction(-2187 + 54, 3)
    planar = linear.f_and(
        linear.f_atom([2, -1, 1, 0], Fraction(3, 2), "<="),
        linear.f_atom([0, 1, 0, -1], 0, "<"),
    )
    point = [Fraction(7, 4), Fraction(-1, 3), Fraction(5, 2), Fraction(-3, 2)]
    a, w = Fraction(4, 3), Fraction(7, 5)
    two_comp = linear.f_or(
        linear.f_and(linear.f_atom([1, -1], -a, ">="), linear.f_atom([1, -1], -(a + w), "<")),
        linear.f_atom([1, -1], -(a + w + 3), ">"),
    )
    return {
        "kernel.valuation_ns": kernel_ns(scalars.valuation, (x, 3)),
        "kernel.in_pn_ns": kernel_ns(scalars.in_pn, (Fraction(-45, 2), 2, 3)),
        "kernel.eval_formula_ns": kernel_ns(linear.eval_formula, (planar, point)),
        "kernel.components_1d_ns": kernel_ns(
            linear.components_1d, (two_comp, 0, [Fraction(0), Fraction(5, 6)]), calls=500
        ),
    }
