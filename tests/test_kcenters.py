import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import kcenter_radius, kcenters_full_ranking, kcenters_oracle, next_below
from svp import kcenters
from svp.kcenters import _screen_rows, greedy_kcenters, write_order_csv
from svp.rng import SplitMix64


def brute_force_steps(x, initial, budget):
    """Independent re-evaluation of argmax-min at every step, full pairwise."""
    chosen = list(initial)
    order = []
    for _ in range(budget):
        best_i, best_d = None, -1.0
        for i in range(x.shape[0]):
            if i in chosen or i in order:
                continue
            d = min(np.linalg.norm(x[i] - x[j]) for j in chosen + order)
            if d > best_d:
                best_i, best_d = i, d
        order.append(best_i)
    return order


class TestExamples:
    def test_line_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        res = greedy_kcenters(x, [0], 2)
        assert res.order.tolist() == [2, 1]
        assert res.picked_dists.tolist() == [10.0, 1.0]

    def test_zero_budget(self):
        x = np.array([[0.0], [1.0]])
        assert greedy_kcenters(x, [0], 0).order.tolist() == []

    def test_all_identical_ties_by_index(self):
        x = np.zeros((4, 3))
        assert greedy_kcenters(x, [0], 2).order.tolist() == [1, 2]

    def test_radius_examples(self):
        x = np.array([[0.0], [1.0], [10.0]])
        assert kcenter_radius(x, [0, 1, 2]) == 0.0
        assert kcenter_radius(x, [0]) == 10.0
        assert kcenter_radius(x, [0, 2]) == 1.0

    def test_full_ranking(self):
        x = np.array([[0.0], [1.0], [10.0]])
        assert kcenters_full_ranking(x, [0]).tolist() == [2, 1]
        assert kcenters_full_ranking(x, [0, 1, 2]).tolist() == []

    def test_full_ranking_is_permutation_of_rest(self):
        rng = SplitMix64(15)
        x = rng.normals((30, 4))
        order = kcenters_full_ranking(x, [3, 7])
        assert sorted(order.tolist()) == [i for i in range(30) if i not in (3, 7)]


class TestOracleEquivalence:
    def test_random_instances_match_brute_force(self):
        rng = SplitMix64(1001)
        for _ in range(50):
            n = 2 + next_below(rng, 30)
            d = 1 + next_below(rng, 6)
            x = rng.normals((n, d))
            initial = [next_below(rng, n)]
            budget = next_below(rng, min(10, n - 1) + 1)
            res = greedy_kcenters(x, initial, budget)
            assert res.order.tolist() == brute_force_steps(x, initial, budget)

    def test_final_min_dists_match_direct_evaluation(self):
        rng = SplitMix64(77)
        x = rng.normals((25, 3))
        order, _, min_dists = kcenters_oracle(x, [0, 5], 6)
        assert order.tolist() == greedy_kcenters(x, [0, 5], 6).order.tolist()
        centers = [0, 5] + order.tolist()
        expected = np.array([min(np.linalg.norm(x[i] - x[j]) for j in centers) for i in range(25)])
        np.testing.assert_allclose(min_dists, expected, rtol=1e-12, atol=1e-12)


@st.composite
def near_tie_instances(draw):
    """Float matrices built to put the expanded form's rounding in play.

    n >= 33 reaches the BLAS kernels' tail-row paths. Rows are drawn from a
    small set of distinct rows (exact duplicates, so exact distance ties),
    optionally on an integer grid (equal distances between distinct rows),
    jittered by about 1e-9 (near-duplicates) and shifted by a large common
    offset (cancellation in |x|^2 - 2x.c + |c|^2).
    """
    n = draw(st.integers(33, 96))
    d = draw(st.integers(1, 24))
    distinct = draw(st.integers(1, n))
    grid = draw(st.booleans())
    jitter = draw(st.sampled_from([0.0, 1e-9]))
    offset = draw(st.sampled_from([0.0, 1e3, -2.5e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grid:
        base = rng.integers(-2, 3, size=(distinct, d)).astype(np.float64)
    else:
        base = rng.standard_normal((distinct, d))
    x = base[rng.integers(0, distinct, size=n)]
    x = x + jitter * rng.standard_normal((n, d)) * (rng.random((n, 1)) < 0.5)
    x = x + offset
    k0 = draw(st.integers(1, 24))  # several GEMM blocks in the initial fold
    budget = draw(st.integers(0, n - k0))
    return x, rng.permutation(n)[:k0], budget


def assert_bit_equal_to_oracle(x, initial, budget):
    res = greedy_kcenters(x, initial, budget)
    order, picked, _ = kcenters_oracle(x, initial, budget)
    assert res.order.tolist() == order.tolist()
    assert res.picked_dists.tobytes() == picked.tobytes()


class TestDifferenceFormOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_tie_instances())
    def test_bit_equal_to_oracle_on_near_ties(self, instance):
        assert_bit_equal_to_oracle(*instance)

    @pytest.mark.parametrize("scale", [1e30, 1e-30])
    def test_extreme_magnitudes(self, scale):
        # Squared norms near 1e60 overflow float32 and near 1e-60 underflow
        # it, unless the screen's copy is scaled.
        rng = np.random.default_rng(30)
        x = scale * rng.standard_normal((300, 8))
        assert_bit_equal_to_oracle(x, [0, 7, 11], 150)

    def test_far_apart_tight_clusters(self):
        # Distances within a cluster (about 1e-6 squared) sit far inside the
        # float32 window, which scales with the 1e4 separation.
        rng = np.random.default_rng(31)
        centers = rng.standard_normal((12, 6))
        centers *= 1e4 / np.linalg.norm(centers[0] - centers[1])
        x = centers[rng.integers(0, 12, 600)] + 1e-3 * rng.standard_normal((600, 6))
        assert_bit_equal_to_oracle(x, [5, 50, 500], 300)

    def test_benchmark_shaped_instance(self):
        # A 64-unit ReLU embedding of 10 Gaussian blobs, as an MLP proxy
        # gives: nonnegative, with exact zeros.
        rng = np.random.default_rng(32)
        blobs = 3.0 * rng.standard_normal((10, 32))[rng.integers(0, 10, 4000)]
        z = blobs + rng.standard_normal((4000, 32))
        x = np.maximum(z @ rng.standard_normal((32, 64)) / np.sqrt(32) + 0.1, 0.0)
        assert_bit_equal_to_oracle(x, rng.permutation(4000)[:80], 200)


@st.composite
def block_instances(draw):
    """Rows that make a block's candidates interact, around a center at the
    origin: far-out tight pairs (a pick lowers its twin, so the accepted
    prefix ends early), and the 2d points of an integer sphere, repeated
    (equal distances that straddle the k-th candidate, and duplicates that
    a pick lowers to zero), scaled to ordinary or extreme magnitudes."""
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = rng.standard_normal((draw(st.integers(0, 30)), d))
    far = 50.0 * rng.standard_normal((draw(st.integers(0, 12)), d))
    twins = far + 1e-3 * rng.standard_normal(far.shape)
    sphere = np.tile(10.0 * np.concatenate([np.eye(d), -np.eye(d)]), (draw(st.integers(1, 3)), 1))
    x = np.concatenate([np.zeros((1, d)), core, far, twins, sphere])
    perm = rng.permutation(x.shape[0])
    x = x[perm] * draw(st.sampled_from([1.0, 1e150, 1e-150]))
    # The origin alone keeps the sphere's distances tied; more initial
    # centers from the core break some of the ties.
    extra = draw(st.integers(0, min(3, core.shape[0])))
    initial = np.argsort(perm)[: 1 + extra]
    budget = draw(st.integers(0, x.shape[0] - initial.size))
    return x, initial, budget


def count_rounds(monkeypatch):
    """Record (pool size, picks) of each round of picks the traversal runs."""
    rounds = []
    accept = kcenters._accept

    def spy(pool, *args):
        acc, got = accept(pool, *args)
        rounds.append((pool.size, len(acc)))
        return acc, got

    monkeypatch.setattr(kcenters, "_accept", spy)
    return rounds


def pool_size(d):
    return min(256, max(64, 4 * d))


class TestCertifiedBlocks:
    """The greedy steps run in rounds over a pool of up to
    min(256, max(64, 4d)) candidates, picking the first argmax while it
    beats every row outside the pool; every output must stay bit-equal to
    one pick per pass."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(block_instances())
    def test_bit_equal_to_oracle(self, instance):
        assert_bit_equal_to_oracle(*instance)

    def test_tight_pairs_cut_the_accepted_prefix(self, monkeypatch):
        # Sixteen far-out pairs 1e-3 apart: both twins of a pair lead the
        # ranking, and the first pick lowers the second below the rows
        # outside the pool, so the first round picks fewer than its pool
        # holds and more rounds run.
        rng = np.random.default_rng(40)
        far = 100.0 * rng.standard_normal((16, 8))
        x = np.concatenate([rng.standard_normal((50, 8)), far, far + 1e-3])
        rounds = count_rounds(monkeypatch)
        assert_bit_equal_to_oracle(x, [0], 60)
        assert rounds[0][0] == min(pool_size(8), 60)
        assert rounds[0][1] < rounds[0][0]
        assert len(rounds) > 1

    @pytest.mark.parametrize("d, copies", [(4, 9), (40, 3)])
    def test_ties_straddle_the_kth_candidate(self, d, copies, monkeypatch):
        # The 2d unit points, in `copies` copies, tie at distance 1 from the
        # center: more ties than a pool holds, so the pool's members at the
        # cut are the lowest indices among them, and the first row outside
        # ties with them. A copy of a picked point is lowered to 0.
        unit = np.concatenate([np.eye(d), -np.eye(d)])
        x = np.concatenate([np.zeros((1, d)), np.tile(unit, (copies, 1))])
        size = pool_size(d)
        assert x.shape[0] - 1 > size
        rounds = count_rounds(monkeypatch)
        assert_bit_equal_to_oracle(x, [0], x.shape[0] - 1)
        order = greedy_kcenters(x, [0], x.shape[0] - 1).order
        assert order[: 2 * d].tolist() == list(range(1, 2 * d + 1))
        assert rounds[0][0] == size

    @pytest.mark.parametrize("n, d", [(40, 8), (200, 64)])
    def test_all_identical_rows(self, n, d):
        # Every distance is 0 and no pick lowers another, so each block is
        # accepted whole and the order is the index order.
        x = np.full((n, d), 3.25)
        res = greedy_kcenters(x, [5], n - 3)
        assert_bit_equal_to_oracle(x, [5], n - 3)
        assert res.order.tolist() == [i for i in range(n) if i != 5][: n - 3]

    @pytest.mark.parametrize("d", [8, 40])
    def test_budget_against_width(self, d, monkeypatch):
        # Budgets of 1, 2, and one below, at, one above and five above the
        # pool size (64 for d=8, 160 for d=40); the last round's pool takes
        # only what the budget leaves.
        size = pool_size(d)
        rng = np.random.default_rng(41)
        x = rng.standard_normal((size + 20, d))
        rounds = count_rounds(monkeypatch)
        for budget in (1, 2, size - 1, size, size + 1, size + 5):
            rounds.clear()
            assert_bit_equal_to_oracle(x, [7, 19], budget)
            assert rounds[0][0] == min(size, budget)
            assert max(r[0] for r in rounds) <= min(size, budget)
            assert sum(r[1] for r in rounds) == budget

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_magnitudes_with_ties(self, scale):
        rng = np.random.default_rng(42)
        base = rng.standard_normal((60, 6))
        x = scale * base[rng.integers(0, 60, 240)]
        assert_bit_equal_to_oracle(x, [0, 1], 200)


@st.composite
def lazy_instances(draw):
    """Rows for the pool rounds and the lazy refresh, at d = 1 to 3 and n up
    to 300, so a traversal runs several rounds over a pool of 64: integer
    grid points (ties that straddle the pool cut and the first row outside
    it), duplicates of a few rows, all-identical rows, far-apart tight
    clusters (the screen's tolerance hides every distance within a cluster,
    so every row there is refreshed exactly) and plain Gaussian rows, scaled
    to ordinary or extreme magnitudes."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "duplicates", "identical", "clusters", "gaussian"]))
    if kind == "grid":
        x = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.standard_normal((draw(st.integers(1, 20)), d))
        x = base[rng.integers(0, base.shape[0], n)]
    elif kind == "identical":
        x = np.full((n, d), -1.75)
    elif kind == "clusters":
        means = 1e2 * rng.standard_normal((draw(st.integers(2, 12)), d))
        x = means[rng.integers(0, means.shape[0], n)] + 1e-3 * rng.standard_normal((n, d))
    else:
        x = rng.standard_normal((n, d))
    x = x * draw(st.sampled_from([1.0, 1e150, 1e-150]))
    initial = rng.permutation(n)[: draw(st.integers(1, min(3, n)))]
    budget = draw(st.integers(0, n - initial.size))
    return x, initial, budget


class TestLazyRounds:
    """Exact distances are refreshed only for rows that can reach a pool, and
    a round picks from its pool only while the pick beats every row outside;
    both must leave every output bit-equal to one pick per pass."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lazy_instances())
    def test_bit_equal_to_oracle(self, instance):
        assert_bit_equal_to_oracle(*instance)

    def test_tight_clusters_run_several_rounds(self, monkeypatch):
        # Ten clusters 1e2 apart with 1e-3 noise, at d=2: each cluster's
        # rows are alike to the screen, and the pool's picks lower each
        # other, so rounds end before their pools are used up.
        rng = np.random.default_rng(43)
        means = 1e2 * rng.standard_normal((10, 2))
        x = means[rng.integers(0, 10, 1000)] + 1e-3 * rng.standard_normal((1000, 2))
        rounds = count_rounds(monkeypatch)
        assert_bit_equal_to_oracle(x, [3], 400)
        assert len(rounds) > -(-400 // pool_size(2))
        assert all(picks >= 1 for _, picks in rounds)


WORK_KEYS = ("rounds", "refreshed", "gemms", "screen", "pairs")


def spied_work(x, initial, budget):
    """One call's result, and its work as counted from outside by spies on
    the functions that do it: a round per ``_accept``, and per refresh its
    rows, one GEMM and that GEMM's shape (the rows against every center from
    their earliest ``seen`` on); the exact pairs from ``_pair_dists``."""
    work = dict.fromkeys(WORK_KEYS, 0)
    accept, refresh = kcenters._accept, kcenters._Traversal.refresh
    pair_dists = kcenters._pair_dists

    def counted_accept(*args):
        work["rounds"] += 1
        return accept(*args)

    def counted_refresh(self, rows):
        work["refreshed"] += rows.size
        work["gemms"] += 1
        work["screen"] += rows.size * (self.m - int(self.seen[rows].min()))
        return refresh(self, rows)

    def counted_pairs(x, rows, cols):
        work["pairs"] += rows.size
        return pair_dists(x, rows, cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kcenters, "_accept", counted_accept)
        mp.setattr(kcenters._Traversal, "refresh", counted_refresh)
        mp.setattr(kcenters, "_pair_dists", counted_pairs)
        result = greedy_kcenters(x, initial, budget)
    return result, work


class TestWorkCounts:
    """``KCentersResult.work`` counts what spies on the functions that do
    the work count."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lazy_instances())
    def test_lazy_instances(self, instance):
        result, spied = spied_work(*instance)
        assert result.work == spied

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(block_instances())
    def test_block_instances(self, instance):
        result, spied = spied_work(*instance)
        assert result.work == spied

    def test_zero_budget_does_no_work(self):
        x = np.random.default_rng(44).standard_normal((30, 3))
        result, spied = spied_work(x, [0, 4], 0)
        assert result.work == spied == dict.fromkeys(WORK_KEYS, 0)


@st.composite
def screen_instances(draw):
    """Rows for the float32 screen: d from 1 to 128, Gaussian or ReLU-like
    (nonnegative, with exact zeros), a common offset, and magnitudes near
    1, 1e30 and 1e-30."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 128))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d))
    if draw(st.booleans()):
        x = np.maximum(x, 0.0)
    x = x + draw(st.sampled_from([0.0, 1e3, -2.5e4]))
    return x * draw(st.sampled_from([1.0, 1e30, 1e-30]))


class TestScreenBound:
    """The certificate itself: the selection tests can pass by luck when the
    window is wide, so the bound is checked pair by pair."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(screen_instances())
    def test_screen_is_within_tol_of_difference_form(self, x):
        y, q, s2, tol = _screen_rows(x)
        d = x.shape[1]
        # A center c's weights are [-2 y_c ; float32(q_c)], as in the kernel;
        # the bound holds for any summation order, so one float32 GEMM over
        # all pairs stands in for the kernel's block GEMMs and its
        # candidates' k-by-k products.
        w = np.concatenate([y[:, :d] * np.float32(-2.0), q.astype(np.float32)[:, None]], axis=1)
        screen = (y @ w.T).astype(np.float64)
        diff = x[:, None, :] - x[None, :, :]
        exact = np.einsum("ijk,ijk->ij", diff, diff)
        assert np.abs(screen + q[:, None] - s2 * exact).max() <= tol
        # The window must stay narrow enough to screen anything out.
        assert tol <= 4 * (d + 8) * 2.0**-24 * q.max() + 1e-30


class TestScreenLayout:
    def test_copy_is_column_major(self):
        # Every fold is a GEMM of a block's weights against the copy's
        # transpose, which column-major storage makes a C-contiguous
        # (d+1)-by-n operand; stored row-major, the same GEMM takes 1.5 to
        # 1.9 times as long (n=4000 and 50000, d=32 and 64, one thread).
        for n, d in [(1, 1), (50, 7), (300, 32)]:
            y = _screen_rows(np.random.default_rng(n).standard_normal((n, d)))[0]
            assert y.shape == (n, d + 1)
            assert y.flags.f_contiguous


@st.composite
def resumption_instances(draw):
    x, initial, budget = draw(near_tie_instances())
    a = draw(st.integers(0, budget))
    return x, initial, a, budget - a


class TestResumption:
    """The traversal depends on nothing but the center set, so a+b steps are
    a steps followed by b steps from the grown set: active learning with a
    fixed embedding runs one call for all of its rounds on this invariant."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(resumption_instances())
    def test_one_call_equals_two_resumed_calls(self, instance):
        x, initial, a, b = instance
        whole = greedy_kcenters(x, initial, a + b)
        first = greedy_kcenters(x, initial, a)
        second = greedy_kcenters(x, np.union1d(initial, first.order), b)
        assert whole.order.tolist() == first.order.tolist() + second.order.tolist()
        picked = np.concatenate([first.picked_dists, second.picked_dists])
        assert whole.picked_dists.tobytes() == picked.tobytes()


class TestApproximationAndInvariances:
    def test_two_approximation_small(self):
        rng = SplitMix64(2002)
        for _ in range(25):
            n = 5 + next_below(rng, 6)
            x = rng.normals((n, 2))
            budget = 1 + next_below(rng, 3)
            start = int(np.argmin(x[:, 0]))
            res = greedy_kcenters(x, [start], budget)
            greedy_r = kcenter_radius(x, [start] + res.order.tolist())
            k = budget + 1
            opt = min(
                kcenter_radius(x, list(centers))
                for centers in itertools.combinations(range(n), k)
            )
            assert greedy_r <= 2.0 * opt + 1e-9

    def test_picked_dists_nonincreasing(self):
        rng = SplitMix64(31)
        x = rng.normals((40, 5))
        res = greedy_kcenters(x, [2], 20)
        assert (np.diff(res.picked_dists) <= 1e-12).all()

    def test_translation_invariance(self):
        rng = SplitMix64(8)
        x = rng.normals((30, 4))
        base = greedy_kcenters(x, [1], 10).order
        shifted = greedy_kcenters(x + 13.25, [1], 10).order
        assert np.array_equal(base, shifted)

    def test_rotation_invariance(self):
        rng = SplitMix64(9)
        x = rng.normals((30, 4))
        q, _ = np.linalg.qr(rng.normals((4, 4)))
        base = greedy_kcenters(x, [4], 10).order
        rotated = greedy_kcenters(x @ q, [4], 10).order
        assert np.array_equal(base, rotated)

    def test_positive_scaling_invariance(self):
        rng = SplitMix64(10)
        x = rng.normals((30, 4))
        base = greedy_kcenters(x, [0], 12)
        scaled = greedy_kcenters(2.5 * x, [0], 12)
        assert np.array_equal(base.order, scaled.order)
        np.testing.assert_allclose(scaled.picked_dists, 2.5 * base.picked_dists, rtol=1e-12)


class TestErrors:
    def test_rejections(self):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError):
            greedy_kcenters(x, [], 1)
        with pytest.raises(ValueError):
            greedy_kcenters(x, [0, 0], 1)
        with pytest.raises(ValueError):
            greedy_kcenters(x, [4], 1)
        with pytest.raises(ValueError):
            greedy_kcenters(x, [0], 4)
        with pytest.raises(ValueError):
            greedy_kcenters(x, [0], -1)
        with pytest.raises(ValueError):
            kcenter_radius(x, [])
        with pytest.raises(ValueError):
            greedy_kcenters(np.zeros((0, 2)), [0], 0)
        with pytest.raises(ValueError):
            greedy_kcenters(np.array([[np.inf, 0.0]]), [0], 0)
        with pytest.raises(ValueError, match="overflow"):
            greedy_kcenters(np.array([[1e154], [-1e154]]), [0], 1)


class TestCsvExport:
    def test_golden_content(self, tmp_path):
        x = np.array([[0.0], [1.0], [10.0]])
        res = greedy_kcenters(x, [0], 2)
        path = str(tmp_path / "order.csv")
        write_order_csv(res, path)
        assert open(path).read() == "rank,example_id,min_dist\n1,2,10.0\n2,1,1.0\n"
