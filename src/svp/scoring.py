"""Uncertainty scores over predicted class probabilities.

All scores share one orientation: higher means more informative, so a single
top-m selection serves every metric. Entropy uses the natural log (rankings
are base-invariant). Ties are always broken by ascending example index.
"""

from __future__ import annotations

import numpy as np

from .tensor_io import check_count, check_vector, validate_prob_matrix


def least_confidence(p: np.ndarray) -> np.ndarray:
    """1 - max class probability per row. Range [0, 1 - 1/c]."""
    p = validate_prob_matrix(p)
    return 1.0 - p.max(axis=1).astype(np.float64)


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
    """Indices of the m largest scores, descending; ties by ascending index."""
    scores = check_vector(scores, "scores")
    check_count(m, scores.shape[0])
    # Stable sort on negated scores keeps equal-score indices ascending.
    order = np.argsort(-scores, kind="stable")
    return order[:m].astype(np.int64)
