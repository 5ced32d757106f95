"""Rank construction and correlation diagnostics for comparing selections.

Spearman is computed as the Pearson correlation of average-tie ranks. The
Pearson denominator is sqrt(sum(dx^2) * sum(dy^2)), which returns exactly
1.0 / -1.0 for identical / sign-flipped inputs: in round-to-nearest float64,
sqrt(fl(s * s)) == s, so the ratio cancels bit-for-bit. Both inputs, and
then their deviations from the mean, are scaled by powers of two so that the
largest magnitude lies in [0.5, 1): the scaling is exact, so it changes no
bit of the result, but the mean and the three sums neither overflow nor
underflow at any finite magnitude.

Constant input is an error, not NaN: callers must face degenerate score
distributions (for instance, a learner that never forgets anything) rather
than silently propagating NaN into reports. Constancy is judged on the
values themselves, since the rounded mean of equal values need not equal
them.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor_io import check_vector


class DegenerateInputError(ValueError):
    """Raised when a correlation input has fewer than two distinct values."""


def scores_to_ranks(scores) -> np.ndarray:
    """Average-tie ranks in [1, n]; rank 1 = highest score."""
    s = check_vector(scores, "scores")
    uniq, inverse = np.unique(-s, return_inverse=True)
    counts = np.bincount(inverse)
    # Rank of a group = number of strictly better values + average position
    # within the group: (before + 1 + before + count) / 2.
    before = np.cumsum(counts) - counts
    group_rank = before + (counts + 1) / 2.0
    return group_rank[inverse]


def pearson(x, y) -> float:
    """Product-moment correlation; exact at the +1/-1 endpoints."""
    x, y = check_vector(x, "x"), check_vector(y, "y")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    if x.min() == x.max():
        raise DegenerateInputError("x is constant")
    if y.min() == y.max():
        raise DegenerateInputError("y is constant")
    x = _unit_scaled(x)
    y = _unit_scaled(y)
    dx = _unit_scaled(x - x.mean())
    dy = _unit_scaled(y - y.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    return float(dx @ dy) / np.sqrt(sxx * syy)


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that puts max |v| in [0.5, 1); v != 0."""
    return np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])


def spearman(a, b) -> float:
    """Pearson correlation of average-tie ranks of a and b."""
    return pearson(scores_to_ranks(a), scores_to_ranks(b))
