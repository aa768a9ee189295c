"""Deterministic splittable randomness for reproducible experiments.

Counter-based splitmix64: every word is a pure function of (key, counter),
so each structure-constant slot or experiment trial gets its own stream and
results are bit-identical across platforms, Python versions and scheduling.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _word(key: int, counter: int) -> int:
    return _mix((key + (counter + 1) * _GOLDEN) & _MASK)


def split(seed: int, slot: int) -> int:
    """Derive the key of the independent stream for (seed, slot)."""
    return _word(_mix(seed & _MASK), slot & _MASK)


class Stream:
    """Sequential uniform draws from one derived stream."""

    def __init__(self, key: int):
        self.key = key & _MASK
        self.counter = 0

    def word(self) -> int:
        w = _word(self.key, self.counter)
        self.counter += 1
        return w

    def below(self, m: int) -> int:
        """Uniform integer in [0, m), exact via rejection sampling of one
        64-bit word per try, so m must lie in [1, 2^64]."""
        if m <= 0:
            raise ValueError("bound must be positive")
        if m > 1 << 64:
            raise ValueError(f"bound {m} is above 2^64, the range of one word")
        limit = (1 << 64) - ((1 << 64) % m)
        while True:
            w = self.word()
            if w < limit:
                return w % m

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the closed interval [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


def stream(seed: int, slot: int) -> Stream:
    """The draw stream for a given (seed, slot) pair."""
    return Stream(split(seed, slot))
