"""Fault-free behaviour of every sequential scheme.

Every scheme must (a) compute the correct transform, (b) raise no false
alarms on clean runs (the ~100% throughput requirement of Section 8), and
(c) expose a sensible report.
"""

import numpy as np
import pytest

from repro.core import OptimizationFlags
from repro.core.config import FTConfig, legacy_scheme_names
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.optimized import OptimizedOnlineABFT
from repro.core.plain import PlainFFT

ALL_SCHEMES = list(legacy_scheme_names())
SIZES = [64, 144, 1024, 2**12]


class TestCorrectness:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    @pytest.mark.parametrize("n", SIZES)
    def test_output_matches_numpy(self, scheme, n, random_complex, spectra_close):
        x = random_complex(n)
        result = FTConfig.from_name(scheme).build(n).execute(x)
        spectra_close(result.output, np.fft.fft(x))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_no_false_positive_on_clean_run(self, scheme, random_complex):
        x = random_complex(2**12)
        result = FTConfig.from_name(scheme).build(2**12).execute(x)
        assert not result.report.detected
        assert not result.report.corrections
        assert not result.report.has_uncorrectable

    @pytest.mark.parametrize("scheme", ["opt-online+mem", "opt-offline+mem", "online+mem"])
    def test_no_false_positive_with_uniform_input(self, scheme, source):
        """U(-1, 1) inputs (the paper's distribution) at a larger size."""

        n = 2**14
        x = source.uniform_complex(n)
        result = FTConfig.from_name(scheme).build(n).execute(x)
        assert not result.report.detected

    @pytest.mark.parametrize("scheme", ["opt-online+mem", "online+mem"])
    def test_no_false_positive_with_large_scale_input(self, scheme, source):
        """Thresholds must scale with the data (input scaled by 1e6)."""

        n = 2**12
        x = 1e6 * source.normal_complex(n)
        result = FTConfig.from_name(scheme).build(n).execute(x)
        assert not result.report.detected

    @pytest.mark.parametrize("scheme", ["opt-online+mem", "online+mem"])
    def test_no_false_positive_with_tiny_scale_input(self, scheme, source):
        n = 2**12
        x = 1e-6 * source.normal_complex(n)
        result = FTConfig.from_name(scheme).build(n).execute(x)
        assert not result.report.detected

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_input_array_is_not_mutated(self, scheme, random_complex):
        x = random_complex(256)
        original = x.copy()
        FTConfig.from_name(scheme).build(256).execute(x)
        assert np.array_equal(x, original)

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_result_metadata(self, scheme, random_complex):
        result = FTConfig.from_name(scheme).build(64).execute(random_complex(64))
        assert result.scheme == result.report.scheme
        assert result.output.shape == (64,)

    def test_wrong_length_input_rejected(self, random_complex):
        with pytest.raises(ValueError):
            FTConfig.from_name("opt-online+mem").build(64).execute(random_complex(65))


class TestSchemeConfiguration:
    def test_plain_exposes_factors(self):
        scheme = PlainFFT(4096)
        assert scheme.m * scheme.k == 4096

    def test_explicit_factors_respected(self, random_complex, spectra_close):
        scheme = OptimizedOnlineABFT(512, m=64, k=8)
        assert (scheme.m, scheme.k) == (64, 8)
        x = random_complex(512)
        spectra_close(scheme.execute(x).output, np.fft.fft(x))

    def test_online_group_size_one(self, random_complex, spectra_close):
        flags = OptimizationFlags(group_size=1)
        scheme = OnlineABFT(256, flags=flags)
        x = random_complex(256)
        spectra_close(scheme.execute(x).output, np.fft.fft(x))

    def test_optimized_all_flags_off(self, random_complex, spectra_close):
        scheme = OptimizedOnlineABFT(256, memory_ft=True, flags=OptimizationFlags.all_off())
        x = random_complex(256)
        result = scheme.execute(x)
        spectra_close(result.output, np.fft.fft(x))
        assert not result.report.detected

    @pytest.mark.parametrize(
        "flags",
        [
            OptimizationFlags(modified_checksums=False),
            OptimizationFlags(postpone_verification=False),
            OptimizationFlags(incremental_checksums=False),
            OptimizationFlags(contiguous_buffer=False),
            OptimizationFlags(group_size=7),
        ],
        ids=["no-modified", "no-postpone", "no-incremental", "no-contiguous", "odd-group"],
    )
    def test_each_optimization_toggle(self, flags, random_complex, spectra_close):
        scheme = OptimizedOnlineABFT(576, memory_ft=True, flags=flags)
        x = random_complex(576)
        result = scheme.execute(x)
        spectra_close(result.output, np.fft.fft(x))
        assert not result.report.detected

    def test_offline_naive_and_optimized_agree(self, random_complex):
        x = random_complex(1024)
        naive = OfflineABFT(1024, optimized=False).execute(x).output
        optimized = OfflineABFT(1024, optimized=True).execute(x).output
        assert np.allclose(naive, optimized, atol=1e-9)

    def test_scheme_names(self):
        assert OfflineABFT(64, optimized=False).name == "offline"
        assert OfflineABFT(64, optimized=True, memory_ft=True).name == "opt-offline+mem"
        assert OnlineABFT(64).name == "online"
        assert OnlineABFT(64, memory_ft=True).name == "online+mem"
        assert OptimizedOnlineABFT(64, memory_ft=False).name == "opt-online"
        assert OptimizedOnlineABFT(64).name == "opt-online+mem"

    def test_verification_counters_scale_with_sub_ffts(self, random_complex):
        n = 1024
        scheme = OptimizedOnlineABFT(n, memory_ft=True)
        result = scheme.execute(random_complex(n))
        # one verification per sub-FFT in each part: k + m
        assert result.report.counters["verifications"] == scheme.m + scheme.k

    def test_all_off_factory(self):
        flags = OptimizationFlags.all_off()
        assert not flags.modified_checksums
        assert not flags.postpone_verification
        assert not flags.incremental_checksums
        assert not flags.contiguous_buffer
