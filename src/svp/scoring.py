"""Uncertainty scores over predicted class probabilities.

All scores share one orientation: higher means more informative, so a single
top-m selection serves every metric. Entropy uses the natural log (rankings
are base-invariant). Ties are always broken by ascending example index.

The maximum over a row's classes is one ``np.maximum.reduceat`` over the
flat matrix (:func:`row_max`), which ``predict_proba`` shares: a maximum is
exact, so it equals ``max(axis=1)`` value for value, and the row-by-row
reduction ``max(axis=1)`` makes over few classes costs about twice as much.
:func:`top_m` sorts only its candidates, the scores at or above the m-th
largest.
"""

from __future__ import annotations

import numpy as np

from .tensor_io import check_count, check_vector, validate_prob_matrix


def row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=1)`` of a matrix with one column or more, in ``z``'s dtype."""
    n, c = z.shape
    return np.maximum.reduceat(z.reshape(-1), np.arange(0, n * c, c))


def least_confidence(p: np.ndarray) -> np.ndarray:
    """1 - max class probability per row. Range [0, 1 - 1/c]."""
    p = validate_prob_matrix(p)
    return 1.0 - row_max(p).astype(np.float64)


def entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p per row, with 0 ln 0 := 0. Range [0, ln c]."""
    p = validate_prob_matrix(p).astype(np.float64, copy=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def margin(p: np.ndarray) -> np.ndarray:
    """1 - (top probability - second probability) per row. Range [0, 1]."""
    p = validate_prob_matrix(p).astype(np.float64, copy=False)
    top_two = np.partition(p, p.shape[1] - 2, axis=1)[:, -2:]
    return 1.0 - (top_two[:, 1] - top_two[:, 0])


SCORERS = {
    "least_confidence": least_confidence,
    "confidence": least_confidence,  # older name, kept as an alias
    "entropy": entropy,
    "margin": margin,
}


def top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m largest scores, descending; ties by ascending index.

    The candidates are every index whose score is at least the m-th largest,
    in ascending order: the first m of their stable sort on negated scores
    are the first m of the whole vector's, as equal scores keep index order.
    """
    scores = check_vector(scores, "scores")
    check_count(m, scores.shape[0])
    if m == 0:
        return np.empty(0, dtype=np.int64)
    cut = np.partition(scores, scores.size - m)[scores.size - m]
    candidates = np.flatnonzero(scores >= cut)
    order = np.argsort(-scores[candidates], kind="stable")
    return candidates[order[:m]].astype(np.int64, copy=False)
