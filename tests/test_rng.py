import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (doubles_oracle, next_below, next_double, next_raw, normals_oracle,
                     raw_oracle, traced_peak)
from svp.rng import SplitMix64, _mix64_array, _mix64_scalar, derive_seed

# Published reference outputs for the splitmix64 finalizer sequence.
SEED0_FIRST3 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
SEEDX_FIRST3 = [0x157A3807A48FAA9D, 0xD573529B34A1D093, 0x2F90B72E996DCCBE]


class TestRawStream:
    def test_reference_vectors_seed0(self):
        g = SplitMix64(0)
        assert [next_raw(g) for _ in range(3)] == SEED0_FIRST3 == raw_oracle(0, 0, 3)

    def test_reference_vectors_large_seed(self):
        g = SplitMix64(0x123456789ABCDEF)
        assert [next_raw(g) for _ in range(3)] == SEEDX_FIRST3
        assert raw_oracle(0x123456789ABCDEF, 0, 3) == SEEDX_FIRST3

    def test_block_matches_scalar_draws(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert a.raw_block(100).tolist() == raw_oracle(987654321, 0, 100)
        assert [next_raw(b) for _ in range(100)] == raw_oracle(987654321, 0, 100)

    def test_block_resumes_mid_stream(self):
        a = SplitMix64(5)
        next_raw(a)
        next_raw(a)
        b = SplitMix64(5)
        b.raw_block(2)
        assert a.raw_block(10).tolist() == raw_oracle(5, 2, 10)
        assert b.raw_block(10).tolist() == raw_oracle(5, 2, 10)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=200)
    def test_vector_mix_agrees_with_scalar(self, z):
        arr = _mix64_array(np.array([z], dtype=np.uint64))
        assert int(arr[0]) == _mix64_scalar(z)

    def test_seed_wraps_to_64_bits(self):
        assert next_raw(SplitMix64(2**64 + 3)) == raw_oracle(3, 0, 1)[0]


class TestDerived:
    def test_doubles_in_unit_interval(self):
        d = SplitMix64(1).doubles(10_000)
        assert d.shape == (10_000,)
        assert (d >= 0.0).all() and (d < 1.0).all()

    def test_double_matches_raw_recipe(self):
        raw = raw_oracle(9, 0, 1)[0]
        assert next_double(SplitMix64(9)) == (raw >> 11) * 2.0**-53

    def test_next_below_is_modulo_of_raw(self):
        g = SplitMix64(11)
        raws = raw_oracle(11, 0, 50)
        vals = [next_below(g, 7) for _ in range(50)]
        assert vals == [r % 7 for r in raws]

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_below(SplitMix64(1), 0)

    def test_shuffle_is_fisher_yates_from_back(self):
        # Independent re-derivation of the documented recipe, one raw draw
        # per swap. After ``drawn`` earlier values the block draw must
        # start mid-stream and leave the stream where the recipe leaves it.
        for n in (0, 1, 2, 3, 23, 1000, 4097):
            for drawn in (0, 7):
                ref, permuted = SplitMix64(321), SplitMix64(321)
                for g in (ref, permuted):
                    for _ in range(drawn):
                        next_raw(g)
                expected = list(range(n))
                for i in range(n - 1, 0, -1):
                    j = next_raw(ref) % (i + 1)
                    expected[i], expected[j] = expected[j], expected[i]
                assert permuted.permutation(n).tolist() == expected, (n, drawn)
                assert next_raw(permuted) == next_raw(ref), (n, drawn)

    def test_permutation_properties(self):
        p = SplitMix64(77).permutation(200)
        assert sorted(p.tolist()) == list(range(200))
        assert np.array_equal(p, SplitMix64(77).permutation(200))
        assert not np.array_equal(p, SplitMix64(78).permutation(200))

    def test_permutation_tiny(self):
        assert SplitMix64(1).permutation(0).tolist() == []
        assert SplitMix64(1).permutation(1).tolist() == [0]

    def test_normals_match_box_muller_recipe(self):
        g1, g2 = SplitMix64(13), SplitMix64(13)
        out = g1.normals(4)
        raw = g2.raw_block(8)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        expected = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        assert np.array_equal(out, expected)

    def test_normals_moments(self):
        z = SplitMix64(2024).normals(20_000)
        assert abs(z.mean()) < 0.03
        assert abs(z.var() - 1.0) < 0.05
        assert np.isfinite(z).all()

    def test_normals_shape_row_major(self):
        flat = SplitMix64(6).normals(6)
        grid = SplitMix64(6).normals((2, 3))
        assert grid.shape == (2, 3)
        assert np.array_equal(grid.ravel(), flat)


class TestBlockwiseDraws:
    """``doubles`` and ``normals`` fill their output in blocks of 2**16
    values; the values and the stream position after the call equal the
    one-shot recipe's, across every block boundary."""

    SHAPES = [1, 2**16 - 1, 2**16, 2**16 + 1, 2 * 2**16 + 1, (3, 70000)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_normals_equal_one_shot_recipe(self, shape):
        got, want = SplitMix64(21), SplitMix64(21)
        got.raw_block(3)
        want.raw_block(3)
        out = got.normals(shape)
        expected = normals_oracle(want, shape)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert next_raw(got) == next_raw(want)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_doubles_equal_one_shot_recipe(self, shape):
        n = int(np.prod(shape))
        got, want = SplitMix64(22), SplitMix64(22)
        next_raw(got)
        next_raw(want)
        assert got.doubles(n).tobytes() == doubles_oracle(want, n).tobytes()
        assert next_raw(got) == next_raw(want)

    @pytest.mark.usefixtures("address_space_cap")
    def test_huge_request_fails_at_once(self):
        g = SplitMix64(1)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            g.normals(10**13)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            g.doubles(10**13)
        assert next_raw(g) == next_raw(SplitMix64(1))

    def test_normals_hold_one_output_sized_array(self):
        assert traced_peak(SplitMix64(3).normals, 10**6) < 8 * 10**6 + 4 * 2**20


def fisher_yates_reference(seed, n):
    """The documented recipe, one raw draw per swap, from the pure-Python
    stream; returns the order and the stream's next raw draw."""
    draws = raw_oracle(seed, 0, max(n, 1))
    order = list(range(n))
    for i, r in zip(range(n - 1, 0, -1), draws):
        j = r % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order, draws[max(n - 1, 0)]


class TestClosedFormShuffle:
    """``permutation`` computes the back-to-front Fisher-Yates order without
    running the swaps; it must give the recipe's order and leave the stream
    where the recipe leaves it."""

    def check(self, seed, n):
        g = SplitMix64(seed)
        perm = g.permutation(n)
        expected, after = fisher_yates_reference(seed, n)
        assert perm.dtype == np.int64, n
        assert perm.tolist() == expected, (seed, n)
        assert next_raw(g) == after, (seed, n)

    def test_every_n_up_to_257(self):
        # Key widths 8 and 16 bits meet at n = 257.
        for n in range(258):
            self.check(1000 + n, n)

    def test_drawn_sizes_and_seeds(self):
        draws = SplitMix64(424242)
        sizes = [1 + next_below(draws, 70000) for _ in range(20)] + [65536, 65537]
        for n in sizes:
            self.check(next_raw(draws), n)

    def test_targets_spanning_several_high_digits(self):
        # Past 2**16 the targets sort in two 16-bit radix passes; here the
        # high digit takes the values 0 to 3.
        self.check(31337, 3 * 2**16 + 7)

    def test_peak_memory_stays_near_five_outputs(self):
        # The int64 result is 8n bytes; the draws, the sort's indices and
        # the chain pointers are each a few n-entry arrays beside it.
        n = 20000
        assert traced_peak(SplitMix64(5).permutation, n) < 5.0 * 8 * n


class TestDeriveSeed:
    def test_frozen_values(self):
        assert derive_seed(0, 0) == 0x0
        assert derive_seed(42, 7) == 0x53AD348AF3DDAF4B
        assert derive_seed(42, "init") == 0x94ABD33D6274E0CF

    def test_int_and_str_salts_are_distinct_namespaces(self):
        assert derive_seed(1, 2) != derive_seed(1, "2")

    def test_different_salts_decorrelate(self):
        streams = {derive_seed(99, s) for s in ("a", "b", "c", 0, 1, 2)}
        assert len(streams) == 6

    @pytest.mark.parametrize("seed, salt", [
        (np.int64(5), "x"),
        (np.int64(-3), np.int64(2)),
        (5, np.int64(2)),
        (np.uint64(2**64 - 1), np.uint64(2**64 - 1)),
        (np.uint8(7), np.int32(9)),
    ])
    def test_numpy_integers_act_as_python_integers(self, seed, salt):
        # A spec seed is also used as a salt (harness._fit_seed), so both
        # arguments take numpy integers without overflowing.
        plain = salt if isinstance(salt, str) else int(salt)
        assert derive_seed(seed, salt) == derive_seed(int(seed), plain)
        a, b = SplitMix64(seed), SplitMix64(int(seed))
        assert a.raw_block(5).tolist() == b.raw_block(5).tolist()
        assert next_raw(a) == next_raw(b)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100)
    def test_deterministic(self, seed, salt):
        assert derive_seed(seed, salt) == derive_seed(seed, salt)
        assert 0 <= derive_seed(seed, salt) < 2**64
