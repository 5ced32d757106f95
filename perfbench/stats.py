"""Order statistics shared by the runner and the compare mode (stdlib only)."""

from __future__ import annotations

import statistics


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when there are ten samples or fewer.
    With n sorted samples, the k-th smallest (k = n - 10) leaves exactly ten
    above it and sits at percentile 100 * k / n.
    """
    n = len(values)
    k = n - 10
    if k < 1:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]
