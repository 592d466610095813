"""Deterministic 64-bit PRNG (splitmix-style) with a vectorized counterpart.

The k-th draw (k = 1, 2, ...) mixes the state ``seed + k * GAMMA`` (mod 2^64):

    z = seed + k * 0x9E3779B97F4A7C15
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

Doubles in [0, 1) take the top 53 bits: (z >> 11) * 2**-53.  Because the
state after k draws is a pure function of (seed, k), scalar and vectorized
paths produce identical streams.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_TO_DOUBLE = 2.0 ** -53
# the vectorized stream is mixed this many draws at a time, so that its two
# uint64 buffers stay in cache through the dozen passes over them
_BLOCK = 1 << 14


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential view of the stream; draw k is mix64(seed + k*GAMMA)."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._k = 0

    def next_u64(self) -> int:
        self._k += 1
        return mix64(self.seed + self._k * GAMMA)

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * _TO_DOUBLE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()

    def randrange(self, n: int) -> int:
        # modulo bias is irrelevant at the sizes used here
        return self.next_u64() % n


def _mixed_blocks(seed: int, start_index: int, count: int):
    """Yield (lo, z): z holds draws start_index+lo+1 .. of the stream as
    uint64, mixed in place in one reused buffer of at most ``_BLOCK``
    entries; each z is valid until the next one is yielded."""
    z = np.empty(min(count, _BLOCK), dtype=np.uint64)
    tmp = np.empty_like(z)
    for lo in range(0, count, _BLOCK):
        m = min(_BLOCK, count - lo)
        zm, tm = z[:m], tmp[:m]
        # uint64 arithmetic wraps mod 2^64, as the stream's state does
        zm[:] = np.arange(start_index + lo + 1, start_index + lo + m + 1, dtype=np.uint64)
        np.multiply(zm, np.uint64(GAMMA), out=zm)
        np.add(zm, np.uint64(seed & MASK64), out=zm)
        for shift, mult in ((30, _M1), (27, _M2), (31, None)):
            np.right_shift(zm, np.uint64(shift), out=tm)
            np.bitwise_xor(zm, tm, out=zm)
            if mult is not None:
                np.multiply(zm, np.uint64(mult), out=zm)
        yield lo, zm


def u64_block(seed: int, start_index: int, count: int) -> np.ndarray:
    """Draws start_index+1 .. start_index+count of the stream, as uint64."""
    out = np.empty(count, dtype=np.uint64)
    for lo, z in _mixed_blocks(seed, start_index, count):
        out[lo:lo + len(z)] = z
    return out


def double_block(seed: int, start_index: int, count: int) -> np.ndarray:
    """Doubles in [0, 1) for the same stream positions as :func:`u64_block`."""
    out = np.empty(count)
    for lo, z in _mixed_blocks(seed, start_index, count):
        np.right_shift(z, np.uint64(11), out=z)
        np.multiply(z, _TO_DOUBLE, out=out[lo:lo + len(z)])
    return out
