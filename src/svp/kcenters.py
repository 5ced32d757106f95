"""Greedy k-centers selection over a feature matrix.

Repeatedly adds the point farthest (Euclidean) from the current center set
(the farthest-first traversal of Gonzalez, 1985). Argmax ties resolve to the
lowest index.

Cost model. Distances are screened on a float32 copy of the features,
``y = [s*(x - m) | 1]``, where m is the column means and s a power of two.
The product of the copy with a center's weights ``[-2 y_c ; |y_c|^2]`` gives
``|y_c|^2 - 2 y_i.y_c`` for every row i: the expanded-form squared distance
less the row's own squared norm. Each row keeps smin, its least screen
value over all centers so far. Folding centers in is all the work done for
every row: one float32 GEMM of up to w = min(64, max(16, 2d)) centers'
weights against the copy's transpose (stored column-major, so that operand
is a C-contiguous (d+1)-by-n array), then ``np.minimum(smin,
dots.min(axis=0))``. O((|initial| + budget) * n * d) flops in all, spent in
BLAS. Blocks of 64 read the copy once for 64 centers; below d = 32 narrower
blocks keep the w-by-n screen in cache (at d = 2, blocks of 16 centers ran
1.5 times as fast as blocks of 32).

Everything else is done only where a pick can land. Exact distances are
lazy: row i holds ``exact[i]``, the exact squared distance to the nearest
of the first ``seen[i]`` centers folded, and is brought up to date (a
refresh) only when its bounds below say it could be among the next picks.
The greedy steps run in rounds over a pool of the first
K = min(256, max(64, 4d)) rows in (exact distance descending, index
ascending) order, and a round's picks are folded in as one block when the
next round starts, so the picks that fill the budget are never folded. A
round costs a few passes over n-length arrays, one partition, a refresh of
the rows near the top of the order and a K-by-K table. Larger pools take
more picks per round where high dimensions leave most candidates apart; at
d = 2 a pick lowers many of its pool's neighbours and a pool of 64 wasted
less.

- Centering: distances do not change under translation, so the copy is
  centered before rounding. The bound below then scales with the spread of
  the rows, not with a common offset.
- Scaling: s is the largest power of two (up to 2^511) with
  s^2 * 4 max|x_i|^2 < 1. Since |x_i - m| <= 2 max|x_j|, every entry and
  squared norm of the copy is below 1, so no legal float64 input (squared
  norms up to a quarter of the float64 maximum) overflows float32; and when
  the squared norms are normal float64 numbers, that bound is at least 1/4,
  so small inputs are not pushed toward float32 underflow. Scaling by a
  power of two is exact, so extreme magnitudes need no second route, and
  every comparison of a bound with an exact distance is made in the scaled
  units, on ``s^2 * exact``.

Certification. Ranking and reporting use the exact difference form
``sum((x_i - x_c)^2)`` on the original float64 rows. With u = 2^-24,
U = 2^-53, M = (1 + 2^-20) times the largest squared norm q_i of a row of
the copy (an upper bound on every squared norm, before or after rounding)
and gamma = (d+1) u / (1 - (d+1) u), a pair's screen value S satisfies
``|S + q_i - s^2 D| <= E``, with D its float64 difference form and E the
sum of:

- input rounding: each entry of the copy differs from s*(x - m) by at most
  (u + 2U) times its magnitude, plus 2^-149 below the float32 normal range,
  which moves a squared distance by at most 13 u M;
- the float32 product, in any summation order: gamma (2 |y_i||y_c| +
  |y_c|^2) <= 3.01 gamma M;
- rounding the squared norms, |y_c|^2 to float32 for the product and |y_i|^2
  to float64 for the bounds: u M + 2.02 d U M;
- the float64 difference form itself: 4.04 (d+2) U M in the scaled units;
- underflow in float32 and in float64: (d+2) (2^-126 + s^2 2^-1022).

The tolerance used is tol = (1 + 2^-20) E + 6 u M + 2^-140. The margin
tol - E covers the rounding of every comparison below: ``s^2 exact + tol -
q`` and ``smin + 2 tol`` rounded to float32 for the screens, the float64
sums ``smin + q -+ tol``, and ``s^2 exact`` below the float64 normal range
(2^-1074 at most). So each inequality below that holds with E holds
strictly as computed with tol.

The bounds. Let D_i be row i's exact squared distance to the nearest of all
m centers. Its nearest center has S >= smin_i, and the center that gives
smin_i is no nearer than D_i, so

    L_i = smin_i + q_i - tol  <  s^2 D_i  <  smin_i + q_i + tol = U_i.

A row is fresh when ``seen[i] = m``; then D_i = exact_i. A stale row still
has D_i <= exact_i, a minimum over fewer centers. So each row has a lower
bound lo_i (s^2 exact_i if fresh, else L_i) and an upper bound
hi_i = min(U_i, s^2 exact_i). Centers have both at -inf.

Refresh. A refresh screens row i against centers[seen_i:m] with one GEMM
and evaluates exactly the pairs with S <= smin_i + 2 tol and
S <= s^2 exact_i + tol - q_i. If a new center lowers exact_i, the row's
nearest center c* is among them, and both tests pass:
S(i, c*) <= s^2 D_i - q_i + E < smin_i + 2 tol by U_i, and
S(i, c*) <= s^2 D(i, c*) - q_i + E < s^2 exact_i + tol - q_i. So exact_i
becomes D_i. Rows refreshed together screen from the earliest ``seen``
among them, with one GEMM; a center already in exact_i only re-evaluates a
pair that cannot lower it.

The lazy bound. Let lam be the K-th largest lo over the rows that are not
centers. Stale rows with hi >= lam are refreshed, highest hi first in
batches that double, and lam is recomputed from the refreshed rows' new lo
until no stale row has hi >= lam. Then at least K rows have lo >= lam, and
they are fresh (a stale row with L >= lam has hi >= lam). Every stale row j
has s^2 D_j < hi_j < lam <= s^2 D of each of them, so it ranks below all K
whatever the indices. The first K rows overall are therefore the first K
fresh rows: the pool.

The outside bound. A row outside the pool is either fresh and ranked after
the pool, the first of them being (e_out, i_out), or stale with
s^2 D < lam. Distances only fall as centers are added. So a pool member at
index i with exact squared distance v ranks before every row outside the
pool, for the rest of the round, if s^2 v >= lam and (v, i) comes before
(e_out, i_out) in the order.

Round acceptance. The K-by-K product of the pool's copy rows with their
weights screens each pair against the member's threshold
s^2 exact + tol - q; the pairs that pass are evaluated exactly into a
table. A pair that fails cannot lower the member's distance, now or after
picks lower it further. So after any picks from the pool, each member's
exact distance is its distance at the round's start lowered by the table's
entries for those picks: the pool stays exact through the round. Each pass
takes the pool's first argmax; if it beats the outside bound, it is also
the one-pick-per-pass loop's next pick, since it ranks first in the pool
and before every row outside. The round ends at the first argmax that does
not beat the bound, or when the pool or the budget runs out. The first pass
always picks: the pool's first member comes before (e_out, i_out) and has
s^2 exact >= lam. A pick's ``picked_dists`` entry is its exact distance
when picked. The members not picked are exact after the round's picks as
well, so they stay fresh when the picks are folded in.

Why the outputs are bit-equal. The pairs evaluated are not those of a
one-pick-per-pass loop: a refresh skips pairs that loop would evaluate, and
re-evaluates pairs it already had. But a pair's exact value depends on its
two rows alone, not on which pairs are evaluated together, and a minimum is
exact. So every exact distance a round reads equals the loop's after the
same centers, and each pick is the first argmax of those distances: the
difference form's choice, lowest index first on ties, whatever the BLAS.
Reported distances (``picked_dists``) are those exact values,
square-rooted: bit-equal to folding every center in with
``sum((x - c)^2)``.

Far-apart tight clusters are the slow case: tol scales with the spread of
all rows, so it hides every distance within a cluster, and every row whose
cluster takes a pick passes a refresh's screen. Refreshing only the rows
that can reach a pool still evaluates far fewer pairs than every such row
at every pick.

Counters. ``KCentersResult.work`` holds ``rounds``, ``refreshed``,
``gemms``, ``screen`` and ``pairs``, counted by the code that does that work
(a pool table, a refresh) as it does it. Unlike the picks, these counts can
move with the BLAS: which rows pass a screen near its tolerance depends on
the GEMM's summation order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .tensor_io import ORDER_CSV, check_count, check_indices, check_matrix, write_csv


@dataclass(frozen=True)
class KCentersResult:
    """Selection order and each pick's distance to the set it joined.

    order: indices added by the greedy loop, in addition order; disjoint
        from the initial set.
    picked_dists: for each added point, its distance to the nearest center
        at the moment of addition (the value the greedy step maximized);
        nonincreasing.
    work: what the traversal computed beyond the fold, by key: ``rounds``
        (pool tables built), ``refreshed`` (rows refreshed, summed over
        refreshes), ``gemms`` (one per refresh), ``screen`` (screen entries
        the refresh GEMMs computed) and ``pairs`` (exact pairs evaluated in
        refreshes and tables). All five are 0 for a budget of 0.
    """

    order: np.ndarray
    picked_dists: np.ndarray
    work: dict


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


_PAIRS = 2**15  # float64 entries per gather of exact pairs


def _pair_dists(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``sum((x[rows] - x[cols])**2, axis=1)``, gathered a block at a time
    (``np.take`` with mode="clip" fills the blocks in place; indices are in
    range)."""
    out = np.empty(rows.size)
    step = max(1, _PAIRS // x.shape[1])
    a = np.empty((min(step, rows.size), x.shape[1]))
    b = np.empty_like(a)
    for lo in range(0, rows.size, step):
        k = min(step, rows.size - lo)
        np.take(x, rows[lo : lo + k], axis=0, out=a[:k], mode="clip")
        np.take(x, cols[lo : lo + k], axis=0, out=b[:k], mode="clip")
        np.subtract(a[:k], b[:k], out=a[:k])
        out[lo : lo + k] = np.einsum("ij,ij->i", a[:k], a[:k])
    return out


def _accept(pool, vals, table, room, s2, lam, e_out, i_out):
    """The picks a round certifies: their positions in ``pool`` and their
    squared distances when picked, in pick order.

    ``pool`` is in index order, ``vals`` holds its members' exact squared
    distances (lowered in place as picks are made, -inf once picked) and
    ``table[a, j]`` the exact distance from member j to member a wherever a
    could lower j (inf elsewhere). The first argmax is picked while it beats
    every row outside the pool: ``s2 * v >= lam`` and (v, index) before
    ``(e_out, i_out)``. At most ``room`` picks.
    """
    acc, got = [], []
    while len(acc) < room:
        a = int(vals.argmax())
        v = vals[a]
        if not (s2 * v >= lam and (v > e_out or (v == e_out and pool[a] < i_out))):
            break
        acc.append(a)
        got.append(v)
        np.minimum(vals, table[a], out=vals)
        vals[a] = -np.inf
    return acc, got


class _Traversal:
    """The screen, the centers folded so far and each example's bounds."""

    def __init__(self, x: np.ndarray, size: int):
        n, d = x.shape
        self.x = x
        self.y, self.q, self.s2, tol = _screen_rows(x)
        # An example's certified bounds on s2 * (its exact squared distance)
        # are smin + lo and smin + hi; both are -inf at centers.
        self.lo, self.hi = self.q - tol, self.q + tol
        self.tol2 = 2.0 * tol
        self.centers = np.empty(size, dtype=np.int64)
        self.weights = np.empty((size, d + 1), dtype=np.float32)
        self.m = 0
        # Per example: the least screen value over all m centers; the exact
        # squared distance to the nearest of centers[:seen], and s2 times it.
        self.smin = np.full(n, np.inf, dtype=np.float32)
        self.exact = np.full(n, np.inf)
        self.scaled = np.full(n, np.inf)
        self.seen = np.zeros(n, dtype=np.int64)
        self.fresh = np.empty(0, dtype=np.int64)  # non-centers with seen == m
        # Rounds of up to `pool` candidates; folds of up to `width` centers
        # per GEMM.
        self.pool = min(256, max(64, 4 * d))
        self.width = min(64, max(16, 2 * d))
        self.buf = np.empty(min(self.width, size) * n, dtype=np.float32)
        self.work = Counter(rounds=0, refreshed=0, gemms=0, screen=0, pairs=0)

    def weigh(self, rows, out):
        """The rows' screen weights ``[-2 y_c ; |y_c|^2]``, written to ``out``."""
        np.multiply(self.y[rows], -2.0, out=out)
        out[:, -1] = self.q[rows]
        return out

    def fold(self, block):
        m, n = self.m, self.x.shape[0]
        self.centers[m : m + block.size] = block
        wb = self.weigh(block, self.weights[m : m + block.size])
        for lo in range(0, block.size, self.width):
            part = wb[lo : lo + self.width]
            dots = self.buf[: part.shape[0] * n].reshape(part.shape[0], n)
            np.dot(part, self.y.T, out=dots)
            np.minimum(self.smin, dots.min(axis=0), out=self.smin)
        self.lo[block] = self.hi[block] = -np.inf
        self.m += block.size

    def refresh(self, rows):
        """Bring exact[rows] up to all m centers: screen the rows against
        centers[first:m], first the earliest ``seen`` among them, and
        evaluate the pairs within 2*tol of the row's screen minimum and
        under its threshold."""
        first = self.seen[rows].min()
        dots = self.y[rows] @ self.weights[first : self.m].T
        lim = np.minimum(self.smin[rows] + self.tol2, self.scaled[rows] - self.lo[rows])
        r, c = np.divmod(np.flatnonzero(dots <= lim.astype(np.float32)[:, None]), dots.shape[1])
        self.work.update(refreshed=rows.size, gemms=1, screen=dots.size, pairs=r.size)
        if r.size:
            dist = _pair_dists(self.x, rows[r], self.centers[first + c])
            starts = np.flatnonzero(np.diff(r, prepend=-1))
            hit = rows[r[starts]]
            self.exact[hit] = np.minimum(self.exact[hit], np.minimum.reduceat(dist, starts))
            self.scaled[hit] = self.s2 * self.exact[hit]
        self.seen[rows] = self.m

    def candidates(self, k):
        """The round's pool: the first k examples in (exact descending,
        index ascending) order, all refreshed; then lam and the first
        example after the pool as (exact, index)."""
        n, m, seen, scaled = self.x.shape[0], self.m, self.seen, self.scaled
        lower = self.smin + self.lo
        lower[self.fresh] = scaled[self.fresh]
        upper = self.smin + self.hi
        np.minimum(upper, scaled, out=upper)
        lam = np.partition(lower, n - k)[n - k]
        top = np.flatnonzero(lower >= lam)
        stale = np.flatnonzero(upper >= lam)
        stale = stale[seen[stale] < m]
        cap = k
        while stale.size:
            if stale.size > 2 * cap:
                batch = stale[np.argpartition(upper[stale], stale.size - cap)[stale.size - cap :]]
            else:
                batch = stale
            self.refresh(batch)
            lower[batch] = upper[batch] = scaled[batch]
            top = np.sort(np.concatenate((top, batch[lower[batch] >= lam])))
            top = top[np.diff(top, prepend=-1) > 0]
            lam = np.partition(lower[top], top.size - k)[top.size - k]
            top = top[lower[top] >= lam]
            stale = stale[(upper[stale] >= lam) & (seen[stale] < m)]
            cap *= 2
        ranked = top[np.argsort(-self.exact[top], kind="stable")]
        if ranked.size > k:
            return np.sort(ranked[:k]), lam, self.exact[ranked[k]], ranked[k]
        return np.sort(ranked), lam, -np.inf, n

    def table(self, pool):
        """``[a, j]``: the exact distance from pool member j to member a
        wherever a could lower j's, inf elsewhere."""
        k = pool.size
        wp = self.weigh(pool, np.empty((k, self.y.shape[1]), dtype=np.float32))
        thr = (self.scaled[pool] - self.lo[pool]).astype(np.float32)
        mask = self.y[pool] @ wp.T <= thr[:, None]
        np.fill_diagonal(mask, False)
        r, c = np.divmod(np.flatnonzero(mask), k)
        self.work.update(rounds=1, pairs=r.size)
        table = np.full((k, k), np.inf)
        table[c, r] = _pair_dists(self.x, pool[r], pool[c])
        return table


def greedy_kcenters(features: np.ndarray, initial, budget: int) -> KCentersResult:
    """Add ``budget`` points, each the current farthest-from-set example."""
    x = np.ascontiguousarray(check_matrix(features, "features"), dtype=np.float64)
    init = check_indices(initial, x.shape[0], "initial set")
    check_count(budget, x.shape[0] - init.size, "budget")

    tr = _Traversal(x, init.size + budget)
    order = np.empty(budget, dtype=np.int64)
    picked = np.empty(budget, dtype=np.float64)
    block, pool, vals = init, init[:0], np.empty(0)
    t = 0
    while t < budget:
        # Fold in the last round's picks (the initial set before the first
        # round); the pool members it did not pick stay fresh. The picks
        # that fill the budget are never folded: nothing reads them.
        tr.exact[pool] = vals
        tr.scaled[pool] = tr.s2 * vals
        tr.seen[pool] = tr.m + block.size
        tr.fresh = pool[vals > -np.inf]
        tr.fold(block)
        pool, lam, e_out, i_out = tr.candidates(min(tr.pool, budget - t))
        vals = tr.exact[pool]
        acc, got = _accept(pool, vals, tr.table(pool), budget - t, tr.s2, lam, e_out, i_out)
        block = pool[acc]
        order[t : t + block.size] = block
        picked[t : t + block.size] = np.sqrt(got)
        t += block.size

    return KCentersResult(order=order, picked_dists=picked, work=dict(tr.work))


def write_order_csv(result: KCentersResult, path: str) -> None:
    """Export the selection order as CSV ``rank,example_id,min_dist``.

    min_dist is the example's distance to the nearest center at the time it
    was added, i.e. the max-min value the greedy step maximized.
    """
    ranks = np.arange(1, result.order.size + 1)
    write_csv(path, ORDER_CSV.names, ranks, result.order, result.picked_dists)
