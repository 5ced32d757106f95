"""Portable deterministic PRNG used for every seeded decision in the engine.

The generator is the SplitMix64 finalizer applied to a counter: output k for
seed s is ``mix64(s + k * GAMMA) mod 2**64``. Any implementation, in any
language, that follows the recipes below reproduces the exact same shuffles,
subsets, and synthetic datasets.

Derived quantities are defined as follows, where ``r`` stands for the next
raw output each time it appears:

* uniform double in [0, 1):   ``(r >> 11) * 2**-53``
* uniform double in (0, 1]:   ``((r >> 11) + 1) * 2**-53``
* integer in [0, n):          ``r % n``
* shuffle of length n:        Fisher-Yates from the back; for
  ``i = n-1 .. 1`` swap position i with ``j = r % (i + 1)``
* standard normal:            Box-Muller, one normal per two raw draws:
  ``sqrt(-2 ln u1) * cos(2 pi u2)`` with u1 in (0, 1] from the first draw
  and u2 in [0, 1) from the second. The sine half is discarded.

Arrays are filled in row-major order. ``doubles`` and ``normals`` allocate
their output first and fill it in blocks of 2**16 values, each from its own
raw block, so their temporaries stay a few MiB at any size; the stream is
counter-based, so the values and the stream position afterwards equal a
fill from one raw block. ``raw_block`` mixes its counters in place.

Shuffles are computed in closed form rather than by running the swaps. Add
a step 0 that swaps position 0 with ``j_0 = 0``, a no-op, so that steps
i = n-1 .. 0 each swap position i with j_i <= i. Position i is never
written after step i, and step i moves into it the value then at
position j_i. Write V(s) for the value position s holds when step s runs.
Before step i, position j_i holds its original value j_i unless a step
above i wrote it; the last such write, ``nxt[i]``, is the lowest step above
i with target j_i, and it stored V(nxt[i]) there. So

    out[i] = V(nxt[i]), or j_i when no step above i writes j_i.

A step s read here writes below itself (j_s = j_i <= i < s). By the same
argument V(s) = V(m[s]), where m[s], the lowest step that writes s, lies
above s and again writes below itself; V(s) = s when no step writes s. The
links s -> m[s] only climb, so every chain ends at a position that keeps
its own index, and pointer doubling (``ptr = ptr[ptr]`` until nothing
changes) finds those ends in at most ceil(log2 n) + 1 rounds, the last one
changing nothing; random draws need about five at n = 50000. A stable sort
of the targets lists each target's steps in ascending order, which gives
both nxt (the next step in the same group) and m (the group's first step).
"""

from __future__ import annotations

import operator

import numpy as np

from .tensor_io import check_count

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_BLOCK = 1 << 16  # values per block in doubles and normals


def _mix64_scalar(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every element of the uint64 array ``z``, in place; returns
    ``z``. uint64 arithmetic wraps mod 2**64, matching the scalar path."""
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(_MULT1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MULT2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _uniforms_into(raw: np.ndarray, out: np.ndarray) -> None:
    """Write the doubles in [0, 1) of the raw draws ``raw`` into ``out``."""
    raw >>= np.uint64(11)
    np.multiply(raw, 2.0**-53, out=out)


def _normals_into(raw: np.ndarray, out: np.ndarray) -> None:
    """Write the Box-Muller normals of the raw draw pairs ``raw`` into
    ``out``, with the float operations of
    ``sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u2)`` on contiguous arrays."""
    raw >>= np.uint64(11)
    u1 = raw[0::2] + 1.0
    u2 = raw[1::2] * 2.0**-53
    del raw  # freed before the float work, so a block holds at most two raw-sized arrays
    u1 *= 2.0**-53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    np.multiply(u1, u2, out=out)


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
    so call sites can use readable labels without a salt registry. Integer
    seeds and salts, numpy integers included, are taken as Python integers.
    """
    salt = _fnv1a64(salt) if isinstance(salt, str) else operator.index(salt)
    return _mix64_scalar((operator.index(seed) & _MASK64) ^ ((salt * _GAMMA) & _MASK64))


class SplitMix64:
    """Counter-based SplitMix64 stream."""

    def __init__(self, seed: int):
        self._seed = operator.index(seed) & _MASK64
        self._count = 0

    def raw_block(self, n: int) -> np.ndarray:
        """Next n raw outputs as a uint64 array (advances the stream by n); n
        must be a nonnegative integer, else the stream stays where it was."""
        check_count(n, None, "n")
        z = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += operator.index(n)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._seed)
        return _mix64_array(z)

    def _fill(self, shape, name: str, draws: int, kernel) -> np.ndarray:
        """A fresh float64 array of ``shape`` filled in row-major order, one
        block of at most ``_BLOCK`` values at a time, by ``kernel(raw, part)``
        from ``draws`` raw outputs per value. ``shape`` is a nonnegative
        integer or a tuple of them, checked as ``name`` before the stream
        moves."""
        for dim in shape if isinstance(shape, tuple) else (shape,):
            check_count(dim, None, name)
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _BLOCK):
            part = flat[start : start + _BLOCK]
            kernel(self.raw_block(draws * part.size), part)
        return out

    def doubles(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1); n must be a nonnegative integer."""
        return self._fill(n, "n", 1, _uniforms_into)

    def permutation(self, n: int) -> np.ndarray:
        """The shuffle of ``range(n)`` by the recipe above, in closed form;
        n must be a nonnegative integer."""
        check_count(n, None, "n")
        if n < 2:
            return np.arange(n, dtype=np.int64)
        # j[i] is step i's target: draw k serves step n-1-k, bound n-k. Keys
        # of 16 bits or less make the stable argsort a radix sort.
        j = np.empty(n, dtype=np.min_scalar_type(n - 1))
        j[0] = 0
        j[1:] = (self.raw_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64))[::-1]
        steps = np.argsort(j, kind="stable")
        linked = j[steps[1:]] == j[steps[:-1]]
        index = np.arange(n)
        nxt = index.copy()  # nxt[i] == i: no step above i writes j[i]
        nxt[steps[:-1][linked]] = steps[1:][linked]
        heads = steps[np.concatenate(([True], ~linked))]  # m[t]: the first step writing t
        ptr = index.copy()  # ptr[q] == q: no step writes q
        ptr[j[heads]] = heads
        while True:
            jumped = ptr[ptr]
            if np.array_equal(jumped, ptr):
                break
            ptr = jumped
        return np.where(nxt > index, ptr[nxt], j)

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller, row-major fill; ``shape`` is a
        nonnegative integer or a tuple of them."""
        return self._fill(shape, "shape", 2, _normals_into)
