import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from svp.ranking_diag import DegenerateInputError, pearson, scores_to_ranks, spearman

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


class TestRanks:
    def test_examples(self):
        assert scores_to_ranks([0.9, 0.1, 0.5]).tolist() == [1, 3, 2]
        assert scores_to_ranks([1, 1, 2]).tolist() == [2.5, 2.5, 1]
        assert scores_to_ranks([4, 4, 4, 4]).tolist() == [2.5] * 4

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_rank_sum_invariant(self, vals):
        ranks = scores_to_ranks(np.array(vals, dtype=float))
        n = len(vals)
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2, rel=1e-12)
        assert (ranks >= 1).all() and (ranks <= n).all()

    def test_matches_scipy_average_ranks(self):
        rng = np.random.default_rng(42)
        vals = rng.integers(0, 5, size=60).astype(float)
        expected = scipy.stats.rankdata(-vals, method="average")
        np.testing.assert_array_equal(scores_to_ranks(vals), expected)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            scores_to_ranks([1.0, np.nan])


class TestPearson:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=rng.integers(2, 50))
            assert pearson(x, x) == 1.0
            assert pearson(x, -x) == -1.0

    def test_derived_example(self):
        r = pearson([1, 2, 3], [1, 2, 4])
        closed = 3.0 / np.sqrt(2.0 * (14.0 / 3.0))
        assert abs(r - closed) < 1e-12
        assert round(r, 6) == 0.981981

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(9)
        x, y = rng.normal(size=25), rng.normal(size=25)
        assert pearson(2.5 * x + 7, y) == pytest.approx(pearson(x, y), abs=1e-12)
        assert pearson(x, -3 * y) == pytest.approx(-pearson(x, y), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=20), rng.normal(size=20)
        assert pearson(x, y) == pearson(y, x)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200, 1e300, 1e-300, 3e307])
    def test_extreme_magnitudes_exact(self, scale):
        base = np.array([1.0, 2.0, 3.0, 5.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pearson(scale * base, base) == 1.0
            assert pearson(base, -scale * base) == -1.0
            # scale is not a power of two, so scale * base is rounded.
            assert pearson(scale * base, scale * base[::-1]) == pytest.approx(
                pearson(base, base[::-1]), abs=1e-15)

    def test_power_of_two_scaling_changes_no_bit(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            x, y = rng.normal(size=30), rng.normal(size=30)
            assert pearson(2.0**-600 * x, 2.0**500 * y) == pearson(x, y)

    def test_constant_with_inexact_mean(self):
        # The rounded mean of seven copies of this value is not the value,
        # so x - mean(x) is a nonzero constant; the input is still constant.
        x = np.full(7, -9.180529521276107)
        assert (x - x.mean()).any()
        with pytest.raises(DegenerateInputError, match="x is constant"):
            pearson(x, np.arange(7.0))
        with pytest.raises(DegenerateInputError, match="y is constant"):
            pearson(np.arange(7.0), x)

    def test_errors(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 2.0], [5.0, 5.0])
        with pytest.raises(ValueError):
            pearson([1.0], [1.0])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([np.inf, 1.0], [1.0, 2.0])


class TestSpearman:
    def test_identical_exact_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.integers(0, 5, size=rng.integers(2, 40)).astype(float)
            if np.unique(a).size < 2:
                continue
            assert spearman(a, a) == 1.0

    def test_reversed_exact_minus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.permutation(rng.integers(2, 40)).astype(float)
            assert spearman(a, -a) == -1.0

    def test_derived_half(self):
        # a-ranks [3,1,2] against b-ranks [3,2,1]: 1 - 6*2/(3*8) = 0.5
        assert abs(spearman([1, 3, 2], [1, 2, 3]) - 0.5) < 1e-12

    def test_closed_form_tie_free(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(3, 60))
            a, b = rng.normal(size=n), rng.normal(size=n)
            d = scores_to_ranks(a) - scores_to_ranks(b)
            closed = 1.0 - 6.0 * (d @ d) / (n * (n * n - 1.0))
            assert abs(spearman(a, b) - closed) < 1e-12

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.integers(0, 6, size=50).astype(float)
            b = rng.integers(0, 6, size=50).astype(float)
            if np.unique(a).size < 2 or np.unique(b).size < 2:
                continue
            expected = scipy.stats.spearmanr(a, b).statistic
            assert spearman(a, b) == pytest.approx(expected, abs=1e-12)

    def test_monotone_transform_invariance_exact(self):
        rng = np.random.default_rng(29)
        a, b = rng.normal(size=40), rng.normal(size=40)
        base = spearman(a, b)
        assert spearman(np.exp(a), b) == base
        assert spearman(a, b**3) == base
        assert spearman(2.0 * a + 5.0, 0.1 * b - 3.0) == base

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a, b = rng.normal(size=15), rng.normal(size=15)
        assert spearman(a, b) == spearman(b, a)

    def test_errors(self):
        with pytest.raises(DegenerateInputError):
            spearman([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])
