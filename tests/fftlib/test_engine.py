"""Tests for the engine behind the public transform names.

The compiled executor is the library's one FFT engine: its mixed-radix
stage programs, the Bluestein fallback for large primes, the batched real
transforms and the along-axis variants that ``repro.fftlib`` re-exports.
"""

import numpy as np
import pytest

from repro.fftlib import fft_along_axis, irfft, rfft
from repro.fftlib.bluestein import bluestein_fft, next_fast_power_of_two
from repro.fftlib.executor import fft, ifft, ifft_along_axis


class TestMixedRadixForward:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 21, 30, 32, 36, 60, 64, 100, 120, 128, 210, 243, 256, 500, 512, 1000, 1024]
    )
    def test_matches_numpy(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(fft(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [97, 101, 127, 211, 509])
    def test_large_primes_via_bluestein(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(fft(x), np.fft.fft(x))

    @pytest.mark.parametrize("n", [2 * 97, 3 * 101, 4 * 127])
    def test_composite_with_large_prime_factor(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(fft(x), np.fft.fft(x))

    def test_batched_2d(self, random_complex, spectra_close):
        x = random_complex(24 * 5).reshape(5, 24)
        spectra_close(fft(x), np.fft.fft(x, axis=-1))

    def test_batched_3d(self, random_complex, spectra_close):
        x = random_complex(12 * 6).reshape(2, 3, 12)
        spectra_close(fft(x), np.fft.fft(x, axis=-1))

    def test_real_input_promoted(self, rng, spectra_close):
        x = rng.standard_normal(48)
        spectra_close(fft(x), np.fft.fft(x))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fft(np.zeros(0, dtype=complex))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            fft(np.complex128(1.0))


class TestMixedRadixInverse:
    @pytest.mark.parametrize("n", [1, 4, 12, 31, 64, 100, 256])
    def test_ifft_matches_numpy(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(ifft(x), np.fft.ifft(x), rtol_scale=1e-8)

    @pytest.mark.parametrize("n", [8, 60, 121, 512])
    def test_round_trip(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(ifft(fft(x)), x, rtol_scale=1e-8)


class TestAxisVariants:
    def test_fft_along_axis0(self, random_complex, spectra_close):
        x = random_complex(8 * 6).reshape(8, 6)
        spectra_close(fft_along_axis(x, 0), np.fft.fft(x, axis=0))

    def test_fft_along_middle_axis(self, random_complex, spectra_close):
        x = random_complex(4 * 6 * 3).reshape(4, 6, 3)
        spectra_close(fft_along_axis(x, 1), np.fft.fft(x, axis=1))

    def test_ifft_along_axis(self, random_complex, spectra_close):
        x = random_complex(9 * 5).reshape(9, 5)
        spectra_close(ifft_along_axis(x, 0), np.fft.ifft(x, axis=0), rtol_scale=1e-8)


class TestBluestein:
    def test_next_fast_power_of_two(self):
        assert next_fast_power_of_two(1) == 1
        assert next_fast_power_of_two(5) == 8
        assert next_fast_power_of_two(8) == 8
        assert next_fast_power_of_two(129) == 256

    @pytest.mark.parametrize("n", [1, 2, 3, 11, 17, 61, 101, 257])
    def test_matches_numpy(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(bluestein_fft(x), np.fft.fft(x), rtol_scale=1e-8)

    def test_batched(self, random_complex, spectra_close):
        x = random_complex(13 * 4).reshape(4, 13)
        spectra_close(bluestein_fft(x), np.fft.fft(x, axis=-1), rtol_scale=1e-8)


class TestRealTransforms:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 100, 256, 17, 33])
    def test_rfft_matches_numpy(self, n, rng, spectra_close):
        x = rng.standard_normal(n)
        spectra_close(rfft(x), np.fft.rfft(x), rtol_scale=1e-8)

    @pytest.mark.parametrize("n", [2, 8, 64, 100, 17])
    def test_round_trip(self, n, rng):
        x = rng.standard_normal(n)
        assert np.allclose(irfft(rfft(x), n), x, atol=1e-9)

    def test_single_sample(self):
        assert np.allclose(rfft(np.array([3.0])), [3.0])

    def test_rfft_batches_leading_axes(self, rng, spectra_close):
        x = rng.standard_normal((3, 4, 20))
        spectra_close(rfft(x), np.fft.rfft(x, axis=-1), rtol_scale=1e-8)
        assert np.allclose(irfft(rfft(x), 20), x, atol=1e-9)

    def test_irfft_rejects_wrong_bins(self):
        with pytest.raises(ValueError):
            irfft(np.zeros(5, dtype=complex), n=16)
