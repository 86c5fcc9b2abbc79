"""Deterministic 64-bit PRNG (SplitMix64) with per-task stream splitting.

SplitMix64 is used instead of the stdlib Mersenne generator so that runs are
reproducible bit-for-bit from a single integer seed, and so that the stream
can be re-implemented in any language from the algorithm name alone.

Reference test vectors (seed = 0, first three outputs):
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator of Steele, Lea and Flood."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via rejection sampling (unbiased)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def fraction(self, num_range: int = 50, den_range: int = 12) -> Fraction:
        """Small random rational; heights stay low to keep arithmetic cheap."""
        num = self.randint(-num_range, num_range)
        den = self.randint(1, den_range)
        return Fraction(num, den)

    def split(self, *labels: int) -> "SplitMix64":
        """Child stream derived from the current seed and integer labels.

        Children with distinct labels are independent for practical purposes;
        the derivation is pure so trials can run in any order.
        """
        child = SplitMix64(self._state)
        for lab in labels:
            mixer = SplitMix64((child.next_u64() ^ (lab & _MASK)) & _MASK)
            child = SplitMix64(mixer.next_u64())
        return child
