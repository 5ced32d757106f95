"""Greedy k-centers selection over a feature matrix.

Repeatedly adds the point farthest (Euclidean) from the current center set
(the farthest-first traversal of Gonzalez, 1985). Argmax ties resolve to the
lowest index.

Cost model. Squared distances are screened in the expanded form
``|x|^2 - 2 x.c + |c|^2``, with the row norms computed once. The initial set
is folded into a per-example nearest-distance cache by one GEMM per block of
d/2 centers, so the block-by-n temporary is half of one n-by-d pass. Each
greedy step is then one GEMV into a preallocated buffer, an in-place
``np.minimum`` and a few O(n) passes: O((|initial| + budget) * n * d) flops
in all, spent in BLAS instead of one n-by-d difference array per center.

Certification. Rounding makes the expanded form differ from the exact
difference form ``sum((x - c)^2)`` by at most ``tol``, a bound derived from
d, machine epsilon and the largest squared row norm. On its own the expanded
form would let BLAS summation order (a row's position, the thread count)
decide between tied or near-tied points. So each example also keeps its
exact difference-form distance to the nearest center, updated only for the
pairs whose expanded form lies within 2*tol of the example's minimum (no
other center can be the exact nearest), which is a handful of rows per step.
Each step then ranks every example within 2*tol of the expanded-form maximum
by that exact distance, lowest index first on ties. The selection is the one
the difference form alone gives, whatever the BLAS.

Reported distances (``picked_dists``, ``min_dists``) are those exact
difference-form values, square-rooted: bit-equal to folding every center in
with ``sum((x - c)^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KCentersResult:
    """Selection order plus the final distance-to-nearest-center profile.

    order: indices added by the greedy loop, in addition order; disjoint
        from the initial set.
    min_dists: per-example Euclidean distance to the nearest point among
        initial + order, after the last addition.
    picked_dists: for each added point, its distance to the nearest center
        at the moment of addition (the value the greedy step maximized);
        nonincreasing.
    """

    order: np.ndarray
    min_dists: np.ndarray
    picked_dists: np.ndarray


def _check_features(features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got ndim={x.ndim}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"features must be nonempty, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    return x


def _check_index_set(indices, n: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if (idx < 0).any() or (idx >= n).any():
        raise ValueError(f"{what} index out of range [0, {n})")
    if np.unique(idx).size != idx.size:
        raise ValueError(f"{what} holds duplicate indices")
    return idx


def _expanded_error_bound(sq: np.ndarray, d: int) -> float:
    """Bound on |expanded form - difference form| over all pairs of rows.

    Each form lies within gamma_{d+3} * (|x| + |c|)^2 <= 4 * gamma_{d+3} * M
    of the true squared distance, where M is the largest squared row norm and
    gamma_k = k*u / (1 - k*u), u = eps/2, whatever the summation order. Their
    gap is at most twice that; the constant below keeps another factor of 2
    spare, and the second term covers absolute rounding among subnormals.
    """
    info = np.finfo(np.float64)
    return 8.0 * (d + 3) * (info.eps * float(sq.max()) + info.tiny)


def greedy_kcenters(features: np.ndarray, initial, budget: int) -> KCentersResult:
    """Add ``budget`` points, each the current farthest-from-set example."""
    x = _check_features(features)
    n, d = x.shape
    init = _check_index_set(initial, n, "initial set")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if budget > n - init.size:
        raise ValueError(f"budget {budget} exceeds pool of {n - init.size} candidates")

    x = np.ascontiguousarray(x)
    sq = np.einsum("ij,ij->i", x, x)
    if not sq.max() <= np.finfo(np.float64).max / 4.0:
        raise ValueError("features too large: squared distances overflow float64")
    tol2 = 2.0 * _expanded_error_bound(sq, d)

    # Per example, the squared distance to the nearest center twice over: in
    # the expanded form (-inf once the example is a center), which screens,
    # and in the exact difference form, which ranks near-ties and is
    # reported. The two stay within tol2 / 2 of each other.
    approx = np.full(n, np.inf)
    exact = np.full(n, np.inf)

    # A center's exact distance is folded in only where its expanded form is
    # within tol2 of the example's new expanded-form minimum; no other center
    # can be the exact nearest. Differences are formed in place, and a pair's
    # value depends on its two rows alone, not on which pairs are evaluated
    # together. The first block makes such a pair for every example, so the
    # block is kept to d/2 centers: block plus differences stay within
    # 1.5 n-by-d passes.
    width = min(max(1, d // 2), init.size)
    buf = np.empty(width * n)
    for start in range(0, init.size, width):
        block = init[start : start + width]
        dots = buf[: block.size * n].reshape(block.size, n)
        np.dot(x[block], x.T, out=dots)
        dots *= -2.0
        dots += sq
        dots += sq[block, None]
        np.minimum(approx, dots.min(axis=0), out=approx)
        cols, rows = np.divmod(np.flatnonzero(dots <= approx + tol2), n)
        diff = x[rows]
        bounds = np.searchsorted(cols, np.arange(block.size + 1))
        for j, c in enumerate(block):
            diff[bounds[j] : bounds[j + 1]] -= x[c]
        np.minimum.at(exact, rows, np.einsum("ij,ij->i", diff, diff))
    approx[init] = -np.inf

    order = np.empty(budget, dtype=np.int64)
    picked = np.empty(budget, dtype=np.float64)
    dots = buf[:n]
    for t in range(budget):
        # Every example whose exact distance could be the maximum, ranked
        # exactly; lowest index first on ties.
        cands = np.flatnonzero(approx >= approx.max() - tol2)
        u = int(cands[np.argmax(exact[cands])])
        order[t] = u
        picked[t] = np.sqrt(exact[u])
        np.dot(x, x[u], out=dots)
        dots *= -2.0
        dots += sq
        dots += sq[u]
        np.minimum(approx, dots, out=approx)
        rows = np.flatnonzero(dots <= approx + tol2)
        diff = x[rows]
        diff -= x[u]
        np.minimum.at(exact, rows, np.einsum("ij,ij->i", diff, diff))
        approx[u] = -np.inf

    return KCentersResult(order=order, min_dists=np.sqrt(exact), picked_dists=picked)


def write_order_csv(result: KCentersResult, path: str) -> None:
    """Export the selection order as CSV ``rank,example_id,min_dist``.

    min_dist is the example's distance to the nearest center at the time it
    was added, i.e. the max-min value the greedy step maximized.
    """
    from .tensor_io import atomic_write_text

    lines = ["rank,example_id,min_dist"]
    for rank, (ex, dist) in enumerate(zip(result.order, result.picked_dists), start=1):
        lines.append(f"{rank},{int(ex)},{float(dist)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
