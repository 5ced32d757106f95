import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from svp.scoring import SCORERS, entropy, least_confidence, margin, row_max, top_m
from svp.tensor_io import ProbMatrixError


def rows(*lists):
    return np.array(lists, dtype=np.float64)


def tied_rows(c, dtype, order, seed):
    """Probability rows of ``c`` classes in ``dtype`` and memory ``order``:
    one-hot rows, rows whose top class is tied two ways and c ways, and
    random rows, with each zero entry 0.0 or -0.0 at random."""
    rng = np.random.default_rng(seed)
    one_hot = np.eye(c)[rng.integers(0, c, 8)]
    pairs = np.zeros((8, c))
    for row in pairs:
        row[rng.choice(c, 2, replace=False)] = 0.5
    p = np.concatenate([one_hot, pairs, np.full((4, c), 1.0 / c), rng.dirichlet(np.ones(c), 8)])
    p[(p == 0.0) & (rng.random(p.shape) < 0.5)] = -0.0
    return np.asarray(p.astype(dtype), order=order)


class TestRowMax:
    """``row_max`` is ``max(axis=1)`` value for value, in the input's dtype."""

    @pytest.mark.parametrize("c", [2, 10, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_max_over_axis_1(self, c, dtype, order):
        rng = np.random.default_rng(c)
        values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf])
        z = np.asarray(rng.choice(values, (50, c)).astype(dtype), order=order)
        z[:5] = -0.0  # rows of zeros alone, of either sign
        z[5:10] = 0.0
        z[10:15, 0] = 0.0
        expected = z.max(axis=1)
        assert row_max(z).dtype == dtype
        assert row_max(z).tobytes() == expected.tobytes()


class TestLeastConfidence:
    @pytest.mark.parametrize("c", [2, 10, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_equal_to_one_minus_row_max(self, c, dtype, order):
        p = tied_rows(c, dtype, order, seed=c)
        expected = 1.0 - p.max(axis=1).astype(np.float64)
        assert least_confidence(p).tobytes() == expected.tobytes()

    def test_examples(self):
        assert least_confidence(rows([0.9, 0.1]))[0] == pytest.approx(0.1)
        uniform10 = np.full((1, 10), 0.1)
        assert least_confidence(uniform10)[0] == pytest.approx(0.9)
        assert least_confidence(rows([0.5, 0.3, 0.2]))[0] == pytest.approx(0.5)

    def test_range(self):
        rng = np.random.default_rng(42)
        p = rng.dirichlet(np.ones(6), size=50)
        s = least_confidence(p)
        assert (s >= 0).all() and (s <= 1 - 1 / 6 + 1e-12).all()


class TestEntropy:
    def test_examples(self):
        assert entropy(rows([1.0, 0.0, 0.0]))[0] == 0.0
        assert entropy(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4), abs=1e-12)
        assert entropy(rows([0.7, 0.2, 0.1]))[0] == pytest.approx(0.801819, abs=1e-6)

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(5), size=40)
        expected = np.array([scipy.stats.entropy(row) for row in p])
        np.testing.assert_allclose(entropy(p), expected, rtol=1e-12)

    def test_maximized_by_uniform_only(self):
        rng = np.random.default_rng(3)
        c = 4
        p = rng.dirichlet(np.ones(c), size=100)
        assert (entropy(p) < np.log(c)).all()
        assert entropy(np.full((1, c), 1 / c))[0] == pytest.approx(np.log(c), abs=1e-12)


class TestMargin:
    def test_examples(self):
        assert margin(rows([0.0, 1.0, 0.0]))[0] == 0.0
        assert margin(rows([0.5, 0.5]))[0] == 1.0
        assert margin(rows([0.5, 0.3, 0.2]))[0] == pytest.approx(0.8)

    def test_only_top_two_matter(self):
        assert margin(rows([0.5, 0.3, 0.2]))[0] == margin(rows([0.5, 0.3, 0.1, 0.1]))[0]

    def test_range(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(3), size=50)
        s = margin(p)
        assert (s >= 0).all() and (s <= 1).all()


class TestSharedProperties:
    def test_one_name_per_scorer(self):
        # A method has one spelling, in the CLI and in a config alike.
        assert len(set(SCORERS.values())) == len(SCORERS)
        assert all(f.__name__ == name for name, f in SCORERS.items())

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_row_permutation_equivariance(self, scorer):
        rng = np.random.default_rng(11)
        p = rng.dirichlet(np.ones(4), size=30)
        perm = rng.permutation(30)
        f = SCORERS[scorer]
        np.testing.assert_array_equal(f(p)[perm], f(p[perm]))

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_column_permutation_invariance(self, scorer):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(5), size=30)
        f = SCORERS[scorer]
        np.testing.assert_allclose(f(p[:, [3, 1, 4, 0, 2]]), f(p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scorer", sorted(SCORERS))
    def test_rejects_invalid_prob_matrix(self, scorer):
        with pytest.raises(ProbMatrixError):
            SCORERS[scorer](np.array([[0.5, 0.6]]))


@st.composite
def tied_scores(draw):
    """Up to a few thousand scores drawn from at most four values, so ties
    are heavy (0.0 and -0.0 tie too), and an m anywhere in [0, n]."""
    values = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -7.5, 1e300]),
                                    min_size=1, max_size=4)))
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)))
    return values[rng.integers(0, values.size, n)], m


class TestTopM:
    def test_examples(self):
        assert top_m(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]
        assert top_m(np.array([0.3, 0.3, 0.3]), 2).tolist() == [0, 1]
        assert top_m(np.array([0.1, 0.9]), 0).tolist() == []

    def test_descending_with_index_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
        assert top_m(scores, 5).tolist() == [1, 3, 0, 2, 4]

    def test_errors(self):
        with pytest.raises(ValueError):
            top_m(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            top_m(np.array([1.0, np.nan]), 1)
        with pytest.raises(ValueError):
            top_m(np.array([1.0]), -1)
        with pytest.raises(ValueError):
            top_m(np.ones((2, 2)), 1)

    def test_full_and_empty_selection_keep_the_dtype(self):
        scores = np.array([0.5, 0.5, 0.9])
        assert top_m(scores, 3).tolist() == [2, 0, 1]
        assert top_m(scores, 3).dtype == np.int64 and top_m(scores, 0).dtype == np.int64

    @given(tied_scores())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_the_full_stable_sort(self, case):
        scores, m = case
        expected = np.argsort(-scores, kind="stable")[:m]
        assert top_m(scores, m).tolist() == expected.tolist()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_selected_scores_dominate_rest(self, vals):
        scores = np.array(vals, dtype=float)
        m = len(vals) // 2
        chosen = top_m(scores, m)
        rest = np.setdiff1d(np.arange(len(vals)), chosen)
        if m and rest.size:
            assert scores[chosen].min() >= scores[rest].max()
