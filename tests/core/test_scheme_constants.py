"""Tests for plan-time ABFT constants and the schemes' fault-free runs."""

import numpy as np
import pytest

from repro.core import checksums
from repro.core.constants import SchemeConstants, weight_rms
from repro.core.ftplan import FTPlan, clear_plan_cache
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.optimized import OptimizedOnlineABFT
from repro.core.plain import PlainFFT
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite

N = 256

ALL_SCHEME_NAMES = [
    "fftw",
    "offline",
    "opt-offline",
    "offline+mem",
    "opt-offline+mem",
    "online",
    "opt-online",
    "online+mem",
    "opt-online+mem",
]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


@pytest.fixture
def x(random_complex):
    return random_complex(N)


class TestSchemeConstantsBundle:
    def test_online_bundle_matches_per_run_construction(self):
        consts = SchemeConstants.for_online(
            N, optimized=True, memory_ft=True, modified_checksums=True
        )
        m, k = consts.m, consts.k
        np.testing.assert_array_equal(consts.c_m, checksums.input_checksum_weights(m))
        np.testing.assert_array_equal(consts.r_m, checksums.computational_weights(m))
        np.testing.assert_array_equal(consts.c_k, checksums.input_checksum_weights(k))
        # Section 4.1: rA doubles as the first locating vector.
        assert consts.w1_m is consts.c_m
        np.testing.assert_array_equal(
            consts.w2_m, consts.c_m * np.arange(1, m + 1, dtype=np.float64)
        )

    def test_naive_online_bundle_uses_naive_encoding_and_classic_pairs(self):
        consts = SchemeConstants.for_online(
            N, optimized=False, memory_ft=True, modified_checksums=False
        )
        np.testing.assert_array_equal(
            consts.c_m, checksums.input_checksum_weights_naive(consts.m)
        )
        w1, w2 = checksums.memory_weights_classic(consts.m)
        np.testing.assert_array_equal(consts.mem_m.w1, w1)
        np.testing.assert_array_equal(consts.mem_m.w2, w2)

    def test_offline_bundle_end_to_end_vectors(self):
        consts = SchemeConstants.for_offline(N, optimized=True, memory_ft=True)
        np.testing.assert_array_equal(consts.c_n, checksums.input_checksum_weights(N))
        assert consts.w1_n is consts.c_n

    def test_weight_rms_matches_threshold_expression(self):
        w = checksums.input_checksum_weights(N)
        expected = float(np.sqrt(np.mean(np.abs(w) ** 2)))
        assert weight_rms(w) == expected
        assert weight_rms(None) == 0.0

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_every_scheme_carries_a_bundle(self, name):
        plan = FTPlan(N, name)
        assert plan.scheme.constants is plan.constants
        assert plan.constants.n == N

    def test_kernel_weights_come_from_the_bundle(self):
        plan = FTPlan(N, "opt-online+mem")
        assert plan._tap.c is plan.constants.c_n
        assert plan._tap.r is plan.constants.r_n
        assert plan._forward.pair[0] is plan.constants.w1_n
        assert plan._forward.pair[1] is plan.constants.w2_n


class TestNoSetupWorkInsideExecute:
    """Regression: weight construction happens at plan time, never in execute."""

    BUILDERS = [
        "computational_weights",
        "input_checksum_weights",
        "input_checksum_weights_naive",
        "memory_weights_classic",
        "memory_weights_modified",
    ]

    def _count_builder_calls(self, monkeypatch, fn):
        import repro.core.constants as constants_mod
        import repro.core.ftplan as ftplan_mod
        import repro.core.offline as offline_mod
        import repro.core.online as online_mod
        import repro.core.optimized as optimized_mod

        calls = {"count": 0}
        # The schemes import the builders by name, so patch every module
        # namespace that holds a reference (not just the defining module).
        modules = (checksums, constants_mod, ftplan_mod, offline_mod, online_mod, optimized_mod)
        for module in modules:
            for name in self.BUILDERS:
                original = getattr(module, name, None)
                if original is None:
                    continue

                def counting(*args, _original=original, **kwargs):
                    calls["count"] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        fn()
        return calls["count"]

    @pytest.mark.parametrize(
        "name", ["opt-online+mem", "online+mem", "opt-offline+mem", "offline"]
    )
    def test_fault_free_execute_builds_no_weight_vectors(self, monkeypatch, name, x):
        plan = FTPlan(N, name)  # setup happens here
        plan.execute(x)  # warm any lazy state
        count = self._count_builder_calls(monkeypatch, lambda: plan.execute(x))
        assert count == 0

    @pytest.mark.parametrize("name", ["opt-online+mem", "online+mem", "opt-offline+mem"])
    def test_fault_free_scheme_run_builds_no_weight_vectors(self, monkeypatch, name, x):
        scheme = FTPlan(N, name).scheme
        count = self._count_builder_calls(monkeypatch, lambda: scheme.execute(x))
        assert count == 0

    def test_batched_execute_builds_no_weight_vectors(self, monkeypatch, x):
        plan = FTPlan(N, "opt-online+mem")
        X = np.stack([x, 2 * x, x[::-1].copy()])
        plan.execute_many(X)
        count = self._count_builder_calls(monkeypatch, lambda: plan.execute_many(X))
        assert count == 0

    def test_live_injector_still_regenerates_under_dmr(self, monkeypatch, x):
        """With a live injector the rA vectors must be recomputed (DMR)."""

        plan = FTPlan(N, "opt-online+mem")
        injector = FaultInjector()  # live but unarmed
        count = self._count_builder_calls(monkeypatch, lambda: plan.execute(x, injector))
        assert count > 0


class TestFastPathEquivalence:
    """A scheme's fault-free run and its unarmed live run agree bitwise."""

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_null_vs_unarmed_live_injector(self, name, random_complex):
        # at 4096 (64 x 64) a live run takes two groups of 32 per part
        for n in (N, 4096):
            x = random_complex(n)
            scheme = FTPlan(n, name).scheme
            fault_free = scheme.execute(x)  # one group per part, plan-time vectors
            live = scheme.execute(x, FaultInjector())  # groups of group_size, DMR vectors
            np.testing.assert_array_equal(fault_free.output, live.output)
            assert fault_free.report.counters == live.report.counters
            assert fault_free.report.summary() == live.report.summary()
            assert not fault_free.report.detected
            assert not live.report.detected

    @pytest.mark.parametrize("name", ALL_SCHEME_NAMES)
    def test_fast_path_matches_numpy(self, name, x, spectra_close):
        plan = FTPlan(N, name)
        spectra_close(plan.execute(x).output, np.fft.fft(x))

    def test_fault_injection_still_detected_and_corrected(self, x, spectra_close):
        """The constants rework must not weaken actual fault tolerance."""

        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=3.0)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert injector.fired_count == 1
        assert result.report.recompute_count == 1
        spectra_close(result.output, np.fft.fft(x))

    def test_checksum_compute_fault_corrected_by_dmr(self, x, spectra_close):
        injector = FaultInjector().arm_computational(FaultSite.CHECKSUM_COMPUTE, magnitude=2.0)
        result = OptimizedOnlineABFT(N).execute(x, injector)
        assert result.report.dmr_correction_count >= 1
        spectra_close(result.output, np.fft.fft(x))

    def test_directly_built_schemes_have_consistent_constants(self):
        for cls, kwargs in [
            (PlainFFT, {}),
            (OfflineABFT, {"optimized": True, "memory_ft": True}),
            (OnlineABFT, {"memory_ft": True}),
            (OptimizedOnlineABFT, {"memory_ft": True}),
        ]:
            scheme = cls(N, **kwargs)
            assert scheme.constants.n == N
            assert scheme.constants.m == scheme.plan.m

    def test_mismatched_constants_are_rebuilt(self):
        wrong = SchemeConstants.for_online(
            128, optimized=True, memory_ft=True, modified_checksums=True
        )
        scheme = OptimizedOnlineABFT(N, constants=wrong)
        assert scheme.constants.n == N

    def test_wrong_flavor_constants_are_rebuilt(self, x, spectra_close):
        """Bundles missing the memory-FT fields (or of the wrong modified/
        classic flavor) must be rebuilt, not accepted and crashed on."""

        no_mem = SchemeConstants.for_online(
            N, optimized=True, memory_ft=False, modified_checksums=True
        )
        scheme = OptimizedOnlineABFT(N, memory_ft=True, constants=no_mem)
        assert scheme.constants.w1_m is not None
        spectra_close(scheme.execute(x).output, np.fft.fft(x))

        opt_flavor = SchemeConstants.for_online(
            N, optimized=True, memory_ft=True, modified_checksums=True
        )
        naive = OnlineABFT(N, memory_ft=True, constants=opt_flavor)
        assert naive.constants.mem_m is not None
        spectra_close(naive.execute(x).output, np.fft.fft(x))

        from repro.core.base import OptimizationFlags

        classic_flags = OptimizationFlags(modified_checksums=False)
        modified_bundle = SchemeConstants.for_online(
            N, optimized=True, memory_ft=True, modified_checksums=True
        )
        scheme = OptimizedOnlineABFT(
            N, memory_ft=True, flags=classic_flags, constants=modified_bundle
        )
        # Rebuilt with the classic pair (all-ones first locating vector).
        np.testing.assert_array_equal(
            scheme.constants.w1_m, np.ones(scheme.plan.m, dtype=np.complex128)
        )


class TestOptimizationFlagsShapeTheRun:
    """Each Section 4 toggle changes what a fault-free optimized run executes."""

    def _calls(self, monkeypatch, flags, x):
        import repro.core.optimized as optimized_mod

        scheme = OptimizedOnlineABFT(N, memory_ft=True, flags=flags)
        consts = scheme.constants
        # c_m first: with modified checksums w1_m *is* c_m and keeps its name
        names = {}
        for label in ("u2_k", "u1_k", "w2_m", "w1_m", "c_m"):
            names[id(getattr(consts, label))] = label
        calls = []
        with monkeypatch.context() as patch:
            weighted_sum = optimized_mod.weighted_sum

            def recording_sum(weights, data, axis=0):
                calls.append(names.get(id(weights), "other"))
                return weighted_sum(weights, data, axis=axis)

            columns = scheme.plan.stage1_columns
            verify = scheme._verify_input_columns
            patch.setattr(optimized_mod, "weighted_sum", recording_sum)
            patch.setattr(
                scheme.plan, "stage1_columns",
                lambda *args: calls.append("stage1_columns") or columns(*args),
            )
            patch.setattr(
                scheme, "_verify_input_columns",
                lambda *args: calls.append("input-mcv") or verify(*args),
            )
            result = scheme.execute(x)
        assert not result.report.detected
        return calls

    @pytest.mark.parametrize(
        "field, probe, default, ablated",
        [
            # Section 4.4: the group's columns gathered into a contiguous buffer
            ("contiguous_buffer", "stage1_columns", 1, 0),
            # Section 4.3: the row checksums re-read from the intermediate array
            ("incremental_checksums", "u2_k", 0, 1),
            # Section 4.2: the input memory check before the sub-FFTs
            ("postpone_verification", "input-mcv", 0, 1),
            # Section 4.1: a separate pass for the first locating checksum
            ("modified_checksums", "w1_m", 0, 1),
        ],
    )
    def test_each_flag_changes_the_fault_free_run(
        self, monkeypatch, x, field, probe, default, ablated
    ):
        from repro.core.base import OptimizationFlags

        on = self._calls(monkeypatch, OptimizationFlags(), x)
        off = self._calls(monkeypatch, OptimizationFlags(**{field: False}), x)
        assert (on.count(probe), off.count(probe)) == (default, ablated)
