"""Fault injection + recovery behaviour of the sequential schemes.

These are the repository's core integration tests: they reproduce, at unit
scale, the scenarios behind Table 1 (computational and memory faults during
a protected transform) and Table 5/6 (where faults land and whether they are
detected/corrected).
"""

import numpy as np
import pytest

from repro.core.config import FTConfig
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.optimized import OptimizedOnlineABFT
from repro.core.plain import PlainFFT
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite, FaultSpec, FaultKind

N = 2**12


@pytest.fixture
def x(source):
    return source.uniform_complex(N)


@pytest.fixture
def reference(x):
    return np.fft.fft(x)


def relative_error(reference, output):
    return float(np.max(np.abs(output - reference)) / np.max(np.abs(reference)))


class TestPlainSchemeHasNoProtection:
    def test_computational_fault_corrupts_output(self, x, reference):
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=10.0)
        result = PlainFFT(N).execute(x, injector)
        assert injector.fired_count == 1
        assert not result.detected
        assert relative_error(reference, result.output) > 1e-6

    def test_memory_fault_corrupts_output(self, x, reference):
        injector = FaultInjector().arm_memory(FaultSite.INTERMEDIATE, magnitude=5.0)
        result = PlainFFT(N).execute(x, injector)
        assert relative_error(reference, result.output) > 1e-6


class TestComputationalFaults:
    @pytest.mark.parametrize(
        "scheme", ["offline", "opt-offline", "online", "opt-online", "online+mem", "opt-online+mem",
                    "offline+mem", "opt-offline+mem"]
    )
    @pytest.mark.parametrize("site", [FaultSite.STAGE1_COMPUTE, FaultSite.STAGE2_COMPUTE])
    def test_detected_and_corrected(self, scheme, site, x, reference):
        injector = FaultInjector().arm_computational(site, index=2, magnitude=7.5)
        result = FTConfig.from_name(scheme).build(N).execute(x, injector)
        assert injector.fired_count == 1
        assert result.detected
        assert relative_error(reference, result.output) < 1e-9
        assert result.report.recompute_count >= 1

    def test_online_recovers_via_single_sub_fft(self, x, reference):
        injector = FaultInjector().arm_computational(
            FaultSite.STAGE1_COMPUTE, index=5, magnitude=3.0
        )
        result = OptimizedOnlineABFT(N).execute(x, injector)
        # exactly one sub-FFT recomputation, no full restart
        assert result.report.recompute_count == 1
        assert relative_error(reference, result.output) < 1e-9

    def test_offline_recovers_via_full_restart(self, x, reference):
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=3.0)
        result = OfflineABFT(N, optimized=True).execute(x, injector)
        restarts = [c for c in result.report.corrections if c.kind == "restart"]
        assert len(restarts) == 1
        assert relative_error(reference, result.output) < 1e-9

    def test_twiddle_fault_corrected_by_dmr(self, x, reference):
        injector = FaultInjector().arm_computational(FaultSite.TWIDDLE_COMPUTE, magnitude=4.0)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert result.report.dmr_correction_count >= 1
        assert relative_error(reference, result.output) < 1e-9

    def test_checksum_vector_fault_corrected_by_dmr(self, x, reference):
        injector = FaultInjector().arm_computational(FaultSite.CHECKSUM_COMPUTE, magnitude=2.0)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert result.report.dmr_correction_count >= 1
        assert relative_error(reference, result.output) < 1e-9
        assert not result.report.has_uncorrectable

    def test_tiny_fault_below_threshold_is_harmless(self, x, reference):
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=1e-14)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        # too small to detect, but also too small to matter
        assert relative_error(reference, result.output) < 1e-9


class TestMemoryFaults:
    @pytest.mark.parametrize("scheme", ["online+mem", "opt-online+mem"])
    @pytest.mark.parametrize(
        "site", [FaultSite.STAGE1_INPUT, FaultSite.INTERMEDIATE, FaultSite.OUTPUT]
    )
    def test_online_memory_ft_corrects(self, scheme, site, x, reference):
        injector = FaultInjector().arm_memory(site, magnitude=3.0)
        result = FTConfig.from_name(scheme).build(N).execute(x, injector)
        assert injector.fired_count == 1
        assert relative_error(reference, result.output) < 1e-9
        assert not result.report.has_uncorrectable

    def test_offline_memory_ft_corrects_input_fault(self, x, reference):
        injector = FaultInjector().arm_memory(FaultSite.INPUT, magnitude=4.0)
        result = OfflineABFT(N, optimized=True, memory_ft=True).execute(x, injector)
        assert result.report.memory_correction_count == 1
        assert relative_error(reference, result.output) < 1e-9

    def test_memory_correction_repairs_exact_element(self, x):
        injector = FaultInjector().arm_memory(FaultSite.INTERMEDIATE, element=123, magnitude=9.0)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        records = [c for c in result.report.corrections if c.kind == "memory-correct"]
        assert records, "expected a memory correction"

    def test_bitflip_memory_fault_corrected(self, x, reference):
        injector = FaultInjector().arm_bitflip(FaultSite.INTERMEDIATE, bit=55)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert relative_error(reference, result.output) < 1e-9

    def test_comp_only_scheme_does_not_claim_memory_coverage(self, x, reference):
        """A memory fault on the intermediate data is out of scope for the
        computational-only scheme; it must not be silently 'corrected'."""

        injector = FaultInjector().arm_memory(FaultSite.INTERMEDIATE, magnitude=5.0)
        result = OptimizedOnlineABFT(N, memory_ft=False).execute(x, injector)
        # the corrupted intermediate propagates; the scheme cannot repair it
        assert relative_error(reference, result.output) > 1e-9


class TestMultipleFaults:
    def test_one_memory_plus_two_computational(self, x, reference):
        injector = (
            FaultInjector()
            .arm_memory(FaultSite.INTERMEDIATE, magnitude=4.0)
            .arm_computational(FaultSite.STAGE1_COMPUTE, index=3, magnitude=8.0)
            .arm_computational(FaultSite.STAGE2_COMPUTE, index=7, magnitude=2.0)
        )
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert injector.fired_count == 3
        assert relative_error(reference, result.output) < 1e-9
        assert result.report.correction_count >= 3

    def test_faults_in_distinct_sub_ffts_all_corrected(self, x, reference):
        injector = (
            FaultInjector()
            .arm_computational(FaultSite.STAGE1_COMPUTE, index=1, magnitude=1.0)
            .arm_computational(FaultSite.STAGE1_COMPUTE, index=9, magnitude=2.0)
            .arm_computational(FaultSite.STAGE1_COMPUTE, index=33, magnitude=3.0)
        )
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert result.report.recompute_count == 3
        assert relative_error(reference, result.output) < 1e-9

    def test_online_handles_faults_in_both_parts(self, x, reference):
        injector = (
            FaultInjector()
            .arm_computational(FaultSite.STAGE1_COMPUTE, index=0, magnitude=5.0)
            .arm_computational(FaultSite.STAGE2_COMPUTE, index=0, magnitude=5.0)
        )
        result = OnlineABFT(N, memory_ft=True).execute(x, injector)
        assert relative_error(reference, result.output) < 1e-9


class TestPersistentFaults:
    def test_persistent_computational_fault_reported_uncorrectable(self, x):
        """A sticky fault that re-fires on every recomputation must exhaust the
        retry budget and be reported, not loop forever or pass silently."""

        spec = FaultSpec(
            site=FaultSite.STAGE1_COMPUTE,
            index=4,
            element=10,
            kind=FaultKind.ADD_CONSTANT,
            magnitude=5.0,
            fire_once=False,
        )
        injector = FaultInjector(specs=[spec])
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert result.report.has_uncorrectable
        assert injector.fired_count >= 2


class TestDetectionOrdering:
    def test_online_detects_before_second_part(self, x):
        """The online scheme's detection record for a stage-1 fault must come
        from a stage-1 verification (timeliness: detected before the second
        part runs), not from the final check."""

        injector = FaultInjector().arm_computational(
            FaultSite.STAGE1_COMPUTE, index=2, magnitude=6.0
        )
        result = OptimizedOnlineABFT(N).execute(x, injector)
        detections = [v for v in result.report.verifications if v.detected]
        assert detections
        assert detections[0].site.startswith("stage1")

    def test_offline_detects_only_at_the_end(self, x):
        injector = FaultInjector().arm_computational(
            FaultSite.STAGE1_COMPUTE, index=2, magnitude=6.0
        )
        result = OfflineABFT(N, optimized=True).execute(x, injector)
        detections = [v for v in result.report.verifications if v.detected]
        assert detections
        assert detections[0].site == "offline-ccv"
