"""Portable deterministic PRNG used for every seeded decision in the engine.

The generator is the SplitMix64 finalizer applied to a counter: output k for
seed s is ``mix64(s + k * GAMMA) mod 2**64``. Any implementation, in any
language, that follows the recipes below reproduces the exact same shuffles,
subsets, and synthetic datasets.

Derived quantities are defined as:

* uniform double in [0, 1):   ``(next_u64() >> 11) * 2**-53``
* uniform double in (0, 1]:   ``((next_u64() >> 11) + 1) * 2**-53``
* integer in [0, n):          ``next_u64() % n``
* shuffle of length n:        Fisher-Yates from the back; for
  ``i = n-1 .. 1`` swap position i with ``j = next_u64() % (i + 1)``
* standard normal:            Box-Muller, one normal per two raw draws:
  ``sqrt(-2 ln u1) * cos(2 pi u2)`` with u1 in (0, 1] from the first draw
  and u2 in [0, 1) from the second. The sine half is discarded.

Arrays are filled in row-major order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def _mix64_scalar(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching the scalar path.
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MULT1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MULT2)
    return z ^ (z >> np.uint64(31))


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, salt: int | str) -> int:
    """Deterministic sub-seed: mix64 of (seed XOR (salt * GAMMA)).

    String salts are first hashed with 64-bit FNV-1a over their UTF-8 bytes,
    so call sites can use readable labels without a salt registry.
    """
    if isinstance(salt, str):
        salt = _fnv1a64(salt)
    return _mix64_scalar((seed & _MASK64) ^ ((salt * _GAMMA) & _MASK64))


class SplitMix64:
    """Counter-based SplitMix64 stream. Scalar and vectorized draws agree."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    def next_u64(self) -> int:
        self._count += 1
        return _mix64_scalar((self._seed + self._count * _GAMMA) & _MASK64)

    def raw_block(self, n: int) -> np.ndarray:
        """Next n raw outputs as a uint64 array (advances the stream by n)."""
        ks = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64_array(np.uint64(self._seed) + ks * np.uint64(_GAMMA))

    def next_double(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def doubles(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        return (self.raw_block(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def shuffle(self, values: list) -> None:
        """In-place Fisher-Yates shuffle (back to front, modulo bound)."""
        n = len(values)
        if n < 2:
            return
        # Draw k swaps position i = n-1-k with j = raw_k % (i + 1); the
        # bounds n, n-1, ..., 2 are reduced in one vector op.
        js = (self.raw_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            values[i], values[j] = values[j], values[i]

    def permutation(self, n: int) -> np.ndarray:
        order = list(range(n))
        self.shuffle(order)
        return np.asarray(order, dtype=np.int64)

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller, row-major fill."""
        size = int(np.prod(shape))
        raw = self.raw_block(2 * size)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return out.reshape(shape)
