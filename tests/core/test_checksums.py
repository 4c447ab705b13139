"""Tests for the checksum algebra."""

import numpy as np
import pytest

from repro.core.checksums import (
    ChecksumPair,
    MemoryChecksumVectors,
    checksum_prime,
    computational_weights,
    input_checksum_weights,
    input_checksum_weights_naive,
    locate_single_error,
    memory_weights_classic,
    memory_weights_modified,
    omega3,
    repair_single_error,
    roots_of_unity_naive,
    roots_of_unity_split,
    weighted_sum,
)
from repro.faults.bitflip import flip_bit_in_complex
from repro.fftlib.dft import dft_matrix


class TestOmega3AndWeights:
    def test_omega3_is_cube_root_of_unity(self):
        w = omega3()
        assert np.isclose(w ** 3, 1.0)
        assert not np.isclose(w, 1.0)

    def test_computational_weights_cycle(self):
        r = computational_weights(7)
        w = omega3()
        assert np.allclose(r, [w ** j for j in range(7)])

    def test_computational_weights_unit_magnitude(self):
        r = computational_weights(100)
        assert np.allclose(np.abs(r), 1.0)

    @pytest.mark.parametrize(
        "n, p", [(1, 3), (4096, 3), (1009, 3), (6144, 5), (12288, 5), (720, 7), (15015, 17)]
    )
    def test_checksum_prime_is_smallest_odd_prime_not_dividing_n(self, n, p):
        assert checksum_prime(n) == p

    @pytest.mark.parametrize("n", [7, 1009, 4096, 65536])
    def test_sizes_three_does_not_divide_keep_the_papers_vectors_bitwise(self, n):
        w3 = omega3()
        cycle = np.array([1.0 + 0.0j, w3, w3 * w3])
        assert np.array_equal(computational_weights(n), np.tile(cycle, n // 3 + 1)[:n])
        closed = (1.0 - w3 ** (n % 3)) / (1.0 - w3 * roots_of_unity_split(n))
        assert np.array_equal(input_checksum_weights(n), closed)

    def test_weights_switch_to_omega_p_when_three_divides_n(self):
        r = computational_weights(12)
        w5 = np.exp(2j * np.pi / 5)
        assert np.allclose(r, w5 ** np.arange(12))


class TestRootsOfUnity:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 100, 257])
    def test_split_matches_naive(self, n):
        assert np.allclose(roots_of_unity_split(n), roots_of_unity_naive(n), atol=1e-12)

    def test_naive_definition(self):
        roots = roots_of_unity_naive(8)
        assert np.allclose(roots, np.exp(-2j * np.pi * np.arange(8) / 8))


class TestInputChecksumWeights:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 128, 512])
    def test_closed_form_equals_r_times_dft_matrix(self, n):
        expected = computational_weights(n) @ dft_matrix(n)
        assert np.allclose(input_checksum_weights(n), expected, atol=1e-8)
        assert np.allclose(input_checksum_weights_naive(n), expected, atol=1e-8)

    @pytest.mark.parametrize("n", [3, 6, 9, 12, 48])
    def test_multiple_of_three_sizes(self, n):
        """3 | n switches r to omega_p (p the smallest odd prime not dividing
        n): the closed form must match the exact matrix product and, unlike
        omega_3 there, have no zero entry."""

        expected = computational_weights(n) @ dft_matrix(n)
        c = input_checksum_weights(n)
        assert np.allclose(c, expected, atol=1e-9)
        assert np.min(np.abs(c)) >= np.sin(np.pi / checksum_prime(n)) - 1e-12

    def test_checksum_identity_on_random_input(self, random_complex):
        """The defining ABFT identity: r . (A x) == (r A) . x."""

        n = 96
        x = random_complex(n)
        lhs = np.dot(computational_weights(n), np.fft.fft(x))
        rhs = np.dot(input_checksum_weights(n), x)
        assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)


class TestMemoryWeights:
    def test_classic_weights(self):
        w1, w2 = memory_weights_classic(5)
        assert np.allclose(w1, 1.0)
        assert np.allclose(w2, [1, 2, 3, 4, 5])

    def test_modified_weights_reuse_rA(self):
        n = 16
        w1, w2 = memory_weights_modified(n)
        assert np.allclose(w1, input_checksum_weights(n))
        assert np.allclose(w2, w1 * np.arange(1, n + 1))

    def test_modified_weights_stay_modified_when_three_divides_n(self):
        w1, w2 = memory_weights_modified(12)
        assert np.allclose(w1, input_checksum_weights(12))
        assert np.allclose(w2, w1 * np.arange(1, 13))

    def test_modified_weights_fall_back_for_a_degenerate_base(self):
        w1, w2 = memory_weights_modified(4, base=np.array([1, 0, 1, 1], dtype=complex))
        classic = memory_weights_classic(4)
        assert np.allclose(w1, classic[0])
        assert np.allclose(w2, classic[1])

    def test_modified_weights_custom_base(self):
        base = np.arange(1, 5, dtype=complex)
        w1, w2 = memory_weights_modified(4, base=base)
        assert np.allclose(w1, base)
        assert np.allclose(w2, base * np.arange(1, 5))

    def test_modified_weights_wrong_base_shape(self):
        with pytest.raises(ValueError):
            memory_weights_modified(4, base=np.ones(3))


class TestWeightedSum:
    def test_vector(self):
        assert weighted_sum(np.array([1, 2.0]), np.array([3, 4.0])) == pytest.approx(11.0)

    def test_matrix_axis0_is_per_column(self, random_complex):
        data = random_complex(12).reshape(4, 3)
        w = np.arange(4, dtype=complex)
        assert np.allclose(weighted_sum(w, data, axis=0), w @ data)

    def test_matrix_axis1_is_per_row(self, random_complex):
        data = random_complex(12).reshape(4, 3)
        w = np.arange(3, dtype=complex)
        assert np.allclose(weighted_sum(w, data, axis=1), data @ w)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_sum(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            weighted_sum(np.ones(3), np.ones((4, 4)), axis=0)

    def test_bad_axis_raises(self):
        with pytest.raises(ValueError):
            weighted_sum(np.ones(3), np.ones((3, 3)), axis=2)

    def test_3d_data_rejected(self):
        with pytest.raises(ValueError):
            weighted_sum(np.ones(2), np.ones((2, 2, 2)))


class TestLocateSingleError:
    def _setup(self, n=32, modified=True):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w1, w2 = (memory_weights_modified(n) if modified else memory_weights_classic(n))
        s1, s2 = np.dot(w1, x), np.dot(w2, x)
        return x, w1, w2, s1, s2

    @pytest.mark.parametrize("modified", [True, False])
    @pytest.mark.parametrize("position", [0, 7, 31])
    def test_locates_and_quantifies_corruption(self, modified, position):
        x, w1, w2, s1, s2 = self._setup(modified=modified)
        corrupted = x.copy()
        corrupted[position] += 3.5 - 1.25j
        located = locate_single_error(corrupted, w1, w2, s1, s2)
        assert located is not None
        index, delta = located
        assert index == position
        assert np.isclose(delta, 3.5 - 1.25j, atol=1e-8)

    @pytest.mark.parametrize("modified", [True, False])
    @pytest.mark.parametrize("bit", [52, 62])
    def test_exponent_bit_repair_keeps_the_data_normal(self, modified, bit):
        """A bit-62 flip (~9e307) overflows the weighted sums; the rescale that
        follows must not turn the other elements into subnormals."""

        n = 4096
        x, w1, w2, s1, s2 = self._setup(n=n, modified=modified)
        x = x / (2.0 * np.max(np.abs(x)))  # every element below 1: bit 62 is clear
        s1, s2 = np.dot(w1, x), np.dot(w2, x)
        corrupted = x.copy()
        corrupted[100] = flip_bit_in_complex(corrupted[100], bit)
        with np.errstate(under="raise"):
            repaired = repair_single_error(corrupted, w1, w2, s1, s2)
        assert repaired is not None and repaired[0] == 100
        np.testing.assert_allclose(corrupted, x, rtol=0, atol=1e-12)

    def test_clean_vector_returns_none(self):
        x, w1, w2, s1, s2 = self._setup()
        assert locate_single_error(x, w1, w2, s1, s2) is None

    def test_double_corruption_is_rejected(self):
        x, w1, w2, s1, s2 = self._setup()
        corrupted = x.copy()
        corrupted[3] += 10.0
        corrupted[20] += 10.0
        located = locate_single_error(corrupted, w1, w2, s1, s2)
        # either None (cannot attribute) or a located index; it must not
        # silently claim a perfect single-element explanation at a wrong spot
        if located is not None:
            index, delta = located
            repaired = corrupted.copy()
            repaired[index] -= delta
            assert not np.allclose(repaired, x)


class TestMemoryChecksumVectors:
    def test_generate_and_verify_matrix_columns(self, random_complex):
        data = random_complex(8 * 5).reshape(8, 5)
        mem = MemoryChecksumVectors(8, modified=True)
        pair = mem.generate(data, axis=0)
        assert pair.s1.shape == (5,)
        assert np.allclose(mem.residuals(data, pair, axis=0), 0.0, atol=1e-12)

    def test_correct_repairs_in_place(self, random_complex):
        vec = random_complex(16)
        mem = MemoryChecksumVectors(16, modified=True)
        pair = mem.generate(vec)
        corrupted = vec.copy()
        corrupted[9] = 123.0
        located = mem.correct(corrupted, pair.s1, pair.s2)
        assert located is not None and located[0] == 9
        assert np.allclose(corrupted, vec, atol=1e-8)

    def test_classic_mode(self, random_complex):
        vec = random_complex(10)
        mem = MemoryChecksumVectors(10, modified=False)
        pair = mem.generate(vec)
        corrupted = vec.copy()
        corrupted[4] += 2.0
        assert mem.correct(corrupted, pair.s1, pair.s2)[0] == 4

    def test_checksum_pair_copy_and_select(self):
        pair = ChecksumPair(np.arange(4, dtype=complex), np.arange(4, dtype=complex) * 2)
        clone = pair.copy()
        clone.s1[0] = 99
        assert pair.s1[0] == 0
        sel = pair.select([1, 2])
        assert np.allclose(sel.s1, [1, 2])
