"""Forgetting events from per-example correctness records.

An event is a correct-then-incorrect transition between consecutive
observations of the same example, with the pre-training accuracy taken as 0.
Examples that are never correct are flagged never_learned and sort above
every finite count. The total order is: never_learned first, then count
descending, then example index ascending.

``process_log`` copies the log with one row per epoch and reduces over
that axis: an event at epoch e is ``log[:, e] > log[:, e + 1]`` on
booleans, so each reduction is an elementwise pass over rows of n values
instead of n reductions over a few values each. Ranking is one stable
argsort of one key: 0 for a never-learned example (whose count is 0), else
``top + 1 - count`` for the largest count ``top``, in the smallest unsigned
dtype that holds it, so that a key of 16 bits or less takes numpy's radix
sort; stability keeps ties in index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_io import FORGETTING_CSV, check_count, check_labels, check_train_log, write_csv

@dataclass(frozen=True)
class ForgettingScores:
    """Per-example forgetting summary, aligned with example indices.

    ``never_learned`` must be boolean (an empty list passes): 0/1 integers
    are refused, because as an index they pick positions instead of
    masking. ``counts`` are the nonnegative integers that
    ``tensor_io.check_labels`` takes, kept as int64. A never-learned
    example has no events."""

    never_learned: np.ndarray  # (n,) bool
    counts: np.ndarray  # (n,) int64

    def __post_init__(self):
        flags = np.asarray(self.never_learned)
        if flags.size and flags.dtype != np.bool_:
            raise ValueError(f"never_learned must be boolean, got {flags.dtype}")
        object.__setattr__(self, "never_learned", flags.astype(np.bool_, copy=False))
        object.__setattr__(self, "counts", check_labels(self.counts, what="counts"))
        if self.never_learned.shape != self.counts.shape:
            raise ValueError("never_learned and counts must align")
        if np.logical_and(self.never_learned, self.counts).any():
            raise ValueError("a never-learned example cannot have events")


def process_log(log: np.ndarray) -> ForgettingScores:
    """Count 1->0 transitions per row; flag all-zero rows never_learned."""
    epochs = np.ascontiguousarray(check_train_log(log).T)
    # Counts are at most E // 2, so they add up in the smallest dtype that holds it.
    counts = np.add.reduce(epochs[:-1] > epochs[1:], axis=0,
                           dtype=np.min_scalar_type(len(epochs) // 2))
    return ForgettingScores(never_learned=~epochs.any(axis=0), counts=counts.astype(np.int64))


def select_most_forgotten(scores: ForgettingScores, m: int) -> np.ndarray:
    """First m indices under the total order."""
    check_count(m, scores.counts.shape[0])
    top = int(scores.counts.max(initial=0))
    key = (top - scores.counts).astype(np.min_scalar_type(top + 1))
    key += 1  # in the key's own dtype, where top + 1 fits even at 2**63 - 1
    key[scores.never_learned] = 0
    return np.argsort(key, kind="stable")[:m].astype(np.int64)


def write_forgetting_csv(scores: ForgettingScores, path: str) -> None:
    """Export as CSV ``example_id,never_learned,count``."""
    write_csv(path, FORGETTING_CSV.names, np.arange(scores.counts.size),
              scores.never_learned.astype(np.int64), scores.counts)
