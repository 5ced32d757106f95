"""Forgetting events from per-example correctness records.

An event is a correct-then-incorrect transition between consecutive
observations of the same example, with the pre-training accuracy taken as 0.
Examples that are never correct are flagged never_learned and sort above
every finite count. The total order is: never_learned first, then count
descending, then example index ascending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_io import FORGETTING_CSV, check_count, check_train_log, write_csv


@dataclass(frozen=True)
class ForgettingScores:
    """Per-example forgetting summary, aligned with example indices."""

    never_learned: np.ndarray  # (n,) bool
    counts: np.ndarray  # (n,) int64

    def __post_init__(self):
        for name in ("never_learned", "counts"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.never_learned.shape != self.counts.shape:
            raise ValueError("never_learned and counts must align")
        if (self.counts[self.never_learned] != 0).any():
            raise ValueError("a never-learned example cannot have events")


def process_log(log: np.ndarray) -> ForgettingScores:
    """Count 1->0 transitions per row; flag all-zero rows never_learned."""
    log = check_train_log(log)
    transitions = log[:, :-1] & ~log[:, 1:]
    counts = transitions.sum(axis=1).astype(np.int64)
    never = ~log.any(axis=1)
    return ForgettingScores(never_learned=never, counts=counts)


def select_most_forgotten(scores: ForgettingScores, m: int) -> np.ndarray:
    """First m indices under the total order."""
    n = scores.counts.shape[0]
    check_count(m, n)
    order = np.lexsort((np.arange(n), -scores.counts, ~scores.never_learned))
    return order[:m].astype(np.int64)


def write_forgetting_csv(scores: ForgettingScores, path: str) -> None:
    """Export as CSV ``example_id,never_learned,count``."""
    write_csv(path, FORGETTING_CSV.names, np.arange(scores.counts.size),
              scores.never_learned.astype(np.int64), scores.counts)
