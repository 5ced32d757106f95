import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ForgettingState, finalize, scores_as_reals, streaming_update
from svp.forgetting import (
    ForgettingScores,
    process_log,
    select_most_forgotten,
    write_forgetting_csv,
)

bool_rows = st.lists(st.booleans(), min_size=1, max_size=12)


def fold(row):
    state = ForgettingState()
    for acc in row:
        state = streaming_update(state, acc)
    return finalize(state)


def string_oracle(row):
    """Independent route: count '10' substrings; never learned = no '1'."""
    s = "".join("1" if b else "0" for b in row)
    return ("1" not in s, s.count("10"))


class TestProcessLog:
    def test_examples(self):
        scores = process_log(np.array([[0, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=bool))
        assert scores.counts.tolist() == [0, 2, 0]
        assert scores.never_learned.tolist() == [False, False, True]

    def test_single_column(self):
        scores = process_log(np.array([[0], [1]], dtype=bool))
        assert scores.counts.tolist() == [0, 0]
        assert scores.never_learned.tolist() == [True, False]

    @given(st.lists(bool_rows, min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_rows_independent(self, rows):
        width = max(len(r) for r in rows)
        padded = np.array([r + [False] * (width - len(r)) for r in rows])
        whole = process_log(padded)
        for i, _ in enumerate(rows):
            single = process_log(padded[i : i + 1])
            assert single.counts[0] == whole.counts[i]
            assert single.never_learned[0] == whole.never_learned[i]


class TestStreaming:
    def test_example_transitions(self):
        s = streaming_update(ForgettingState(prev=True, count=0), False)
        assert (s.prev, s.count) == (False, 1)
        s = streaming_update(ForgettingState(prev=False, count=3), True)
        assert (s.prev, s.count) == (True, 3)

    def test_fold_example(self):
        assert fold([1, 0, 1, 0]) == (False, 2)

    @given(bool_rows)
    @settings(max_examples=300)
    def test_three_routes_agree(self, row):
        batch = process_log(np.array([row]))
        assert fold(row) == (batch.never_learned[0], batch.counts[0])
        assert fold(row) == string_oracle(row)


class TestCountProperties:
    @given(bool_rows)
    @settings(max_examples=200)
    def test_count_bounds(self, row):
        _, count = fold(row)
        assert 0 <= count <= len(row) // 2

    def test_all_ones_is_zero(self):
        assert fold([True] * 9) == (False, 0)

    @given(bool_rows)
    @settings(max_examples=200)
    def test_appending_one_never_changes_count(self, row):
        assert fold(row + [True])[1] == fold(row)[1]

    @given(bool_rows)
    @settings(max_examples=200)
    def test_appending_zero_increments_iff_last_was_one(self, row):
        base = fold(row)[1]
        assert fold(row + [False])[1] == base + (1 if row[-1] else 0)


class TestSelection:
    def make(self, counts, never):
        return ForgettingScores(
            never_learned=np.array(never, dtype=bool), counts=np.array(counts, dtype=np.int64)
        )

    def test_examples(self):
        scores = self.make([0, 2, 1], [False, False, False])
        assert set(select_most_forgotten(scores, 2).tolist()) == {1, 2}
        scores = self.make([5, 0, 7], [False, True, False])
        assert select_most_forgotten(scores, 1).tolist() == [1]
        scores = self.make([3, 3, 3], [False] * 3)
        assert select_most_forgotten(scores, 2).tolist() == [0, 1]

    def test_total_order(self):
        scores = self.make([2, 0, 0, 5, 2], [False, True, False, False, False])
        assert select_most_forgotten(scores, 5).tolist() == [1, 3, 0, 4, 2]

    def test_largest_count_ranks_below_never_learned(self):
        # The key of a count-0 row is top + 1, which here needs all 64 bits.
        scores = self.make([2**63 - 1, 0, 0, 5], [False, True, False, False])
        assert select_most_forgotten(scores, 4).tolist() == [1, 0, 3, 2]

    def test_deterministic_and_idempotent(self):
        scores = self.make([1, 4, 4, 0], [False, False, False, True])
        first = select_most_forgotten(scores, 3)
        assert np.array_equal(first, select_most_forgotten(scores, 3))
        assert select_most_forgotten(scores, 4).tolist()[:3] == first.tolist()

    def test_errors(self):
        scores = self.make([1, 2], [False, False])
        with pytest.raises(ValueError):
            select_most_forgotten(scores, 3)
        with pytest.raises(ValueError):
            select_most_forgotten(scores, -1)

    @given(st.data())
    @settings(max_examples=300)
    def test_ranking_equals_the_three_key_lexsort(self, data):
        n = data.draw(st.integers(0, 40))
        never = data.draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n,
                                                                   max_size=n)))
        top = data.draw(st.sampled_from([1, 3, 255, 256, 2**16, 2**40, 2**63 - 1]))
        counts = [0 if nv else data.draw(st.integers(0, top)) for nv in never]
        scores = self.make(counts, never)
        m = data.draw(st.sampled_from([0, n, data.draw(st.integers(0, n))]))
        expected = np.lexsort((np.arange(n), -scores.counts, ~scores.never_learned))[:m]
        got = select_most_forgotten(scores, m)
        assert got.dtype == np.int64 and got.tolist() == expected.tolist()

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            ForgettingScores(never_learned=np.array([True]), counts=np.array([2]))

    def test_fields_must_align(self):
        for field in (np.array, list):
            with pytest.raises(ValueError, match="^never_learned and counts must align$"):
                ForgettingScores(never_learned=field([True, False]), counts=field([0]))
        # Lists are taken as the arrays they spell, checks included.
        with pytest.raises(ValueError, match="^a never-learned example cannot have events$"):
            ForgettingScores(never_learned=[True, False], counts=[1, 0])
        scores = ForgettingScores(never_learned=[False, True, False], counts=[1, 0, 2])
        assert scores.never_learned.dtype == bool and scores.counts.tolist() == [1, 0, 2]
        assert select_most_forgotten(scores, 3).tolist() == [1, 2, 0]
        # An empty list of flags holds no integer to mistake for a position.
        scores = ForgettingScores(never_learned=[], counts=[])
        assert scores.never_learned.dtype == bool and scores.counts.dtype == np.int64
        assert select_most_forgotten(scores, 0).tolist() == []

    @pytest.mark.parametrize("never", [[1, 0], np.array([1, 0], dtype=np.uint8), [0.0, 0.0]])
    def test_never_learned_must_be_boolean(self, never):
        # Integers 0 and 1 are not flags: as an index they would pick rows.
        with pytest.raises(ValueError, match="^never_learned must be boolean, got "):
            ForgettingScores(never_learned=never, counts=[0, 3])
        with pytest.raises(ValueError, match="^never_learned must be boolean, got "):
            ForgettingScores(never_learned=[0, 0, 0], counts=[1, 2, 3])

    @pytest.mark.parametrize("counts", [[1.5, 0], [-1, 0], ["1", "0"], [np.nan, 0]])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(ValueError, match="^counts must be nonnegative integers$"):
            ForgettingScores(never_learned=[False, False], counts=counts)


class TestExports:
    def test_csv_golden(self, tmp_path):
        scores = ForgettingScores(
            never_learned=np.array([False, True]), counts=np.array([3, 0], dtype=np.int64)
        )
        path = str(tmp_path / "f.csv")
        write_forgetting_csv(scores, path)
        assert open(path).read() == "example_id,never_learned,count\n0,0,3\n1,1,0\n"

    def test_reals_respect_total_order(self):
        scores = ForgettingScores(
            never_learned=np.array([False, True, False]),
            counts=np.array([4, 0, 1], dtype=np.int64),
        )
        reals = scores_as_reals(scores)
        assert reals[1] > reals[0] > reals[2]
