"""Greedy k-centers selection over a feature matrix.

Repeatedly adds the point farthest (Euclidean) from the current center set
(the farthest-first traversal of Gonzalez, 1985). Argmax ties resolve to the
lowest index.

Cost model. Distances are screened on a float32 copy of the features,
``y = [s*(x - m) | 1]``, where m is the column means and s a power of two.
The product of the copy with a center's ``[-2 y_c ; |y_c|^2]`` gives
``|y_c|^2 - 2 y_i.y_c`` for every row i: the expanded-form squared distance
less the row's own squared norm, which moves into the row's threshold
instead. Centers are folded in by blocks of up to w = max(16, d/2): one
float32 GEMM of the block's weights against the copy's transpose (the copy
is stored column-major, so that operand is a C-contiguous (d+1)-by-n
array), the two window tests below, and the exact evaluation of the few
pairs that pass. A block reads the copy once for all of its centers,
where a float64 pass over the features would read twice the copy's bytes
per center. From d = 32 up, the w-by-n screen is at most half the size of
the copy. Below, blocks of 16 still spread a block's fixed cost, some 40
numpy calls, over enough picks: with blocks of d/2, traversals at d = 1 to
6 ran up to three times slower than one pick per GEMV. The screen is then
at most 16*n float32 values, no more than the float64 features from d = 8
up. O((|initial| + budget) * n * d) flops in all, spent in BLAS.

- Centering: distances do not change under translation, so the copy is
  centered before rounding. The bound below then scales with the spread of
  the rows, not with a common offset.
- Scaling: s is the largest power of two (up to 2^511) with
  s^2 * 4 max|x_i|^2 < 1. Since |x_i - m| <= 2 max|x_j|, every entry and
  squared norm of the copy is below 1, so no legal float64 input (squared
  norms up to a quarter of the float64 maximum) overflows float32; and when
  the squared norms are normal float64 numbers, that bound is at least 1/4,
  so small inputs are not pushed toward float32 underflow. Scaling by a
  power of two is exact, so extreme magnitudes need no second route.

Blocks of picks. The initial set is folded block by block, and the greedy
steps run through the same fold, as blocks of picks certified in advance:

- Candidates: a block takes k = min(w, picks left) candidates, the first
  k rows in (exact distance descending, index ascending) order. One
  partition finds the k-th value in O(n); the rows strictly above it are
  sorted, then the lowest indices at that value fill the rest, so ties
  among many rows cost no sort.
- Acceptance: if c_1 .. c_{j-1} are the one-pick-per-pass loop's next
  picks and none of them strictly lowers c_j's exact distance, c_j is its
  next pick too. Distances only fall as centers are added, and c_j's has
  not; every other row ranked below c_j before the block (a smaller
  distance, or an equal one at a higher index) still does, so c_j is the
  first argmax. The k-by-k product of the candidates' copy rows with their
  weights screens the pairs against the candidates' thresholds, the pairs
  that pass are evaluated exactly, and the prefix that ends before the
  first lowered candidate is accepted: at least c_1, the plain first
  argmax. Its ``picked_dists`` are the candidates' exact distances before
  the block, and the prefix is then folded in.

Certification. Ranking and reporting use the exact difference form
``sum((x_i - x_c)^2)`` on the original float64 rows. Each example keeps its
exact squared distance to the nearest center, and a pair's exact distance is
evaluated only when the screen cannot rule the center out. With u = 2^-24,
U = 2^-53, M = (1 + 2^-20) times the largest squared norm q_i of a row of
the copy (an upper bound on every squared norm, before or after rounding)
and gamma = (d+1) u / (1 - (d+1) u), a pair's screen value S satisfies
``|S + q_i - s^2 D| <= tol``, with D its float64 difference form and tol the
sum of:

- input rounding: each entry of the copy differs from s*(x - m) by at most
  (u + 2U) times its magnitude, plus 2^-149 below the float32 normal range,
  which moves a squared distance by at most 13 u M;
- the float32 product, in any summation order: gamma (2 |y_i||y_c| +
  |y_c|^2) <= 3.01 gamma M;
- rounding the squared norms, |y_c|^2 to float32 for the product and |y_i|^2
  to float64 for the threshold: u M + 2.02 d U M;
- the float64 difference form itself: 4.04 (d+2) U M in the scaled units;
- underflow in float32 and in float64: (d+2) (2^-126 + s^2 2^-1022);
- the window tests' own float32 rounding: the sum above is multiplied by
  1 + 2^-20 and 6 u M + 2^-140 is added, which covers rounding
  ``s^2 exact + tol - q`` and ``min + 2 tol`` to float32.

An example's exact nearest center c* within a block therefore has
S <= s^2 exact + tol - q (its threshold, if c* can lower its distance at
all) and S within 2 tol of the block's minimum; pairs failing either test
are skipped. The candidates' screen uses the threshold test alone, which
passes every pair that could lower a candidate's distance.

Why the outputs are bit-equal. The pairs evaluated are not those of a
one-pick-per-pass loop: a block's window skips pairs that loop would
evaluate, and a candidate that is not accepted is screened again in a
later block. But a pair's exact value depends on its two rows alone, not on
which pairs are evaluated together; each row's nearest center in a block
is evaluated whenever it lowers the row's distance; and a minimum is exact.
So every example's exact distance after a block equals the loop's after the
same centers, and each pick is the first argmax of those distances: the
difference form's choice, lowest index first on ties, whatever the BLAS.

Reported distances (``picked_dists``, ``min_dists``) are those exact
difference-form values, square-rooted: bit-equal to folding every center in
with ``sum((x - c)^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_io import ORDER_CSV, check_count, check_matrix, write_csv


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


def _check_index_set(indices, n: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise ValueError(f"{what} must be nonempty")
    if (idx < 0).any() or (idx >= n).any():
        raise ValueError(f"{what} index out of range [0, {n})")
    if np.unique(idx).size != idx.size:
        raise ValueError(f"{what} holds duplicate indices")
    return idx


_U32 = 2.0**-24  # float32 unit roundoff
_TINY32 = 2.0**-126  # smallest normal float32
_U64 = 2.0**-53
_TINY64 = 2.0**-1022
_CHUNK = 2**14  # entries per float64 scratch block while building the copy


def _screen_rows(x: np.ndarray):
    """The float32 screen of ``x`` and its certified error bound.

    Returns ``(y, q, s2, tol)``. ``y`` is ``[s*(x - m) | 1]`` rounded to
    float32, with m the column means and s a power of two, stored
    column-major (Fortran order) so that its transpose, the operand of every
    fold's GEMM, is a C-contiguous (d+1)-by-n array; ``q`` holds the
    float64 squared norms of the rows of ``y[:, :d]``; ``s2 = s*s``. For
    every pair of rows i, c the screen value
    ``S = y[i] . [-2 y[c, :d] ; float32(q[c])]``, computed in float32 in any
    summation order, satisfies ``|S + q[i] - s2 * D| <= tol``, where D is
    ``sum((x[i] - x[c])**2)`` evaluated in float64.
    """
    n, d = x.shape
    sq_max = float(np.einsum("ij,ij->i", x, x).max())
    if not sq_max <= np.finfo(np.float64).max / 4.0:
        raise ValueError("features too large: squared distances overflow float64")
    # |x_i - m| <= 2 max_j |x_j|, so s*s * 4*sq_max < 1 keeps every entry and
    # squared norm of the copy below 1; the cap keeps s*s a finite float64.
    s = math.ldexp(1.0, min((-math.frexp(4.0 * sq_max)[1]) // 2, 511))
    m = x.mean(axis=0)
    y = np.empty((n, d + 1), dtype=np.float32, order="F")
    y[:, d] = 1.0
    step = max(1, _CHUNK // d)
    scratch = np.empty((min(step, n), d))
    for lo in range(0, n, step):
        t = scratch[: min(step, n - lo)]
        np.subtract(x[lo : lo + step], m, out=t)
        np.multiply(t, s, out=y[lo : lo + step, :d], casting="same_kind")
    q = np.einsum("ij,ij->i", y[:, :d], y[:, :d], dtype=np.float64)

    big_m = float(q.max()) * (1.0 + 2.0**-20)
    k = (d + 1) * _U32
    gamma32 = k / (1.0 - k) if k < 1.0 else math.inf
    arith = (14.0 * _U32 + 3.01 * gamma32 + 6.06 * (d + 2) * _U64) * big_m + (d + 2) * (
        _TINY32 + s * s * _TINY64
    )
    tol = (1.0 + 2.0**-20) * arith + 6.0 * _U32 * big_m + 2.0**-140
    return y, q, s * s, tol


def _leading(exact: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` rows in (``exact`` descending, index ascending) order."""
    kth = np.partition(exact, exact.size - k)[exact.size - k]
    above = np.flatnonzero(exact > kth)
    above = above[np.argsort(-exact[above], kind="stable")]
    return np.concatenate([above, np.flatnonzero(exact == kth)[: k - above.size]])


def greedy_kcenters(features: np.ndarray, initial, budget: int) -> KCentersResult:
    """Add ``budget`` points, each the current farthest-from-set example."""
    x = np.ascontiguousarray(check_matrix(features, "features"), dtype=np.float64)
    n, d = x.shape
    init = _check_index_set(initial, n, "initial set")
    check_count(budget, n - init.size, "budget")

    y, q, s2, tol = _screen_rows(x)

    # Per example, the exact difference-form squared distance to the nearest
    # center (-inf once the example is a center), and the float32 threshold
    # s2 * exact + tol - q above which a new center's screen value proves it
    # is not the example's exact nearest.
    exact = np.full(n, np.inf)
    thr = np.full(n, np.inf, dtype=np.float32)
    off = tol - q
    tol2 = np.float32(2.0 * tol)

    # Centers are folded in by one GEMM per block of up to `width` of them
    # (see the cost model above). A pair is evaluated exactly only if its
    # screen value is within 2*tol of the row's block minimum and under the
    # row's threshold, at most n pairs at a time, so the differences stay
    # within one n-by-d pass (``np.take`` with mode="clip" gathers straight
    # into that buffer; rows are in range). A pair's exact value depends on
    # its two rows alone, not on which pairs are evaluated together.
    width = max(16, d // 2)
    buf = np.empty(min(width, max(init.size, budget)) * n, dtype=np.float32)
    w = np.empty((width, d + 1), dtype=np.float32)
    pairs = np.empty((n, d))

    def weigh(block):
        wb = w[: block.size]
        np.multiply(y[block], -2.0, out=wb)
        wb[:, d] = q[block]
        return wb

    def fold(block, wb):
        dots = buf[: block.size * n].reshape(block.size, n)
        np.dot(wb, y.T, out=dots)
        lim = dots.min(axis=0)
        lim += tol2
        np.minimum(lim, thr, out=lim)
        hits = np.flatnonzero(dots <= lim)
        for lo in range(0, hits.size, n):
            cols, rows = np.divmod(hits[lo : lo + n], n)
            diff = np.take(x, rows, axis=0, out=pairs[: rows.size], mode="clip")
            bounds = np.searchsorted(cols, np.arange(block.size + 1))
            for j, c in enumerate(block):
                diff[bounds[j] : bounds[j + 1]] -= x[c]
            np.minimum.at(exact, rows, np.einsum("ij,ij->i", diff, diff))
            thr[rows] = s2 * exact[rows] + off[rows]

    for start in range(0, init.size, width):
        block = init[start : start + width]
        fold(block, weigh(block))
    exact[init] = thr[init] = -np.inf

    # The greedy steps, as blocks of certified picks (see "Blocks of picks"
    # above): the candidates' prefix up to the first one an earlier
    # candidate lowers is accepted and folded in like the initial set.
    order = np.empty(budget, dtype=np.int64)
    picked = np.empty(budget, dtype=np.float64)
    before = np.tri(width, k=-1, dtype=bool)  # [j, i]: candidate i precedes j
    t = 0
    while t < budget:
        k = min(width, budget - t)
        cand = _leading(exact, k)
        wb = weigh(cand)
        a = k
        later, prior = np.nonzero((y[cand] @ wb.T <= thr[cand, None]) & before[:k, :k])
        if later.size:
            diff = x[cand[later]] - x[cand[prior]]
            lowered = np.einsum("ij,ij->i", diff, diff) < exact[cand[later]]
            if lowered.any():
                a = int(later[lowered].min())
        acc = cand[:a]
        order[t : t + a] = acc
        picked[t : t + a] = np.sqrt(exact[acc])
        exact[acc] = thr[acc] = -np.inf
        fold(acc, wb[:a])
        t += a
    exact[init] = 0.0
    exact[order] = 0.0

    return KCentersResult(order=order, min_dists=np.sqrt(exact), picked_dists=picked)


def write_order_csv(result: KCentersResult, path: str) -> None:
    """Export the selection order as CSV ``rank,example_id,min_dist``.

    min_dist is the example's distance to the nearest center at the time it
    was added, i.e. the max-min value the greedy step maximized.
    """
    ranks = np.arange(1, result.order.size + 1)
    write_csv(path, ORDER_CSV.names, ranks, result.order, result.picked_dists)
