"""Real-input FTPlans: packed-layout protection, fault recovery, wisdom keys."""

import numpy as np
import pytest

import repro
from repro.core.config import FTConfig
from repro.core.ftplan import FTPlan
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultKind, FaultSite, FaultSpec


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def bitflip(site, element, bit=55, **kwargs):
    return FaultInjector(
        specs=[FaultSpec(site=site, element=element, kind=FaultKind.BIT_FLIP, bit=bit, **kwargs)]
    )


class TestRealConfig:
    def test_name_round_trip(self):
        config = FTConfig.from_name("opt-online+mem+real")
        assert config.real
        assert config.to_name() == "opt-online+mem+real"
        assert not FTConfig.from_name("opt-online+mem").real

    def test_real_flag_in_cache_key(self):
        complex_plan = repro.plan(128, "opt-online+mem")
        real_plan = repro.plan(128, "opt-online+mem", real=True)
        assert complex_plan is not real_plan
        assert repro.plan(128, "opt-online+mem", real=True) is real_plan

    def test_schemes_built_real_return_packed(self, rng):
        x = rng.standard_normal(64)
        for name in ("fftw", "opt-offline+mem", "online", "opt-online+mem"):
            scheme = FTConfig.from_name(name, real=True).build(64)
            result = scheme.execute(x)
            assert result.output.shape == (33,)
            assert np.allclose(result.output, np.fft.rfft(x), atol=1e-9), name


class TestRealExecution:
    @pytest.mark.parametrize("n", [64, 96, 250, 81, 255])  # even, odd
    @pytest.mark.parametrize("name", ["opt-online+mem", "opt-offline+mem", "fftw"])
    def test_matches_numpy_rfft(self, n, name, rng):
        plan = repro.plan(n, name, real=True)
        x = rng.standard_normal(n)
        result = plan.execute(x)
        assert result.output.shape == (n // 2 + 1,)
        assert np.allclose(result.output, np.fft.rfft(x), atol=1e-10)
        assert not result.report.detected

    @pytest.mark.parametrize("n", [64, 81])
    def test_batched_matches_numpy_rfft(self, n, rng):
        plan = repro.plan(n, real=True)
        X = rng.standard_normal((7, n))
        batch = plan.execute_many(X)
        assert batch.output.shape == (7, n // 2 + 1)
        assert np.allclose(batch.output, np.fft.rfft(X, axis=-1), atol=1e-10)
        # arbitrary axis
        batch = plan.execute_many(X.T, axis=0)
        assert batch.output.shape == (n // 2 + 1, 7)
        assert np.allclose(batch.output, np.fft.rfft(X, axis=-1).T, atol=1e-10)

    def test_inverse_round_trip(self, rng):
        plan = repro.plan(128, real=True)
        x = rng.standard_normal(128)
        spectrum = plan.execute(x).output
        back = plan.inverse(spectrum)
        assert np.isrealobj(back.output)
        assert np.allclose(back.output, x, atol=1e-9)

    @pytest.mark.parametrize("name", ["opt-online+mem", "opt-offline"])
    @pytest.mark.parametrize("n", [4096, 2187])
    def test_inverse_of_a_tone_is_clean(self, n, name):
        # A tone's spectrum is two bins over roundoff: a sampled robust scale
        # of the bins drops exactly those, and its threshold would flag the
        # clean inverse.  The thresholds come from the bins' exact energy.
        x = np.cos(2 * np.pi * 5 * np.arange(n) / n)
        plan = repro.plan(n, name, real=True)
        result = plan.inverse(np.fft.rfft(x))
        assert result.report.clean
        assert np.allclose(result.output, x, atol=1e-12)
        # ... and a fault in that spectrum is still caught (and, with memory
        # fault tolerance, repaired)
        injector = bitflip(FaultSite.INPUT, element=5, bit=56)
        result = plan.inverse(np.fft.rfft(x), injector)
        assert injector.fired_count == 1 and result.report.detected
        if plan.config.memory_ft:
            assert not result.uncorrectable
            assert np.allclose(result.output, x, atol=1e-9)

    def test_rejects_complex_input(self, rng):
        plan = repro.plan(64, real=True)
        with pytest.raises(ValueError):
            plan.execute(rng.standard_normal(64) + 1j)

    def test_complex64_dtype_halves_precision(self, rng):
        plan = repro.plan(64, real=True, dtype="complex64")
        x = rng.standard_normal(64)
        assert plan.execute(x).output.dtype == np.complex64
        assert plan.inverse(np.fft.rfft(x)).output.dtype == np.float32


class TestRealFaultRecovery:
    @pytest.mark.parametrize("bit", [50, 55, 62])
    def test_packed_output_bitflip_corrected_scalar(self, bit, rng):
        n = 256
        plan = repro.plan(n, real=True)
        x = rng.standard_normal(n)
        injector = bitflip(FaultSite.OUTPUT, element=9, bit=bit)
        result = plan.execute(x, injector)
        assert injector.fired_count == 1
        assert result.output.shape == (n // 2 + 1,)
        assert np.allclose(result.output, np.fft.rfft(x), atol=1e-8)
        assert result.report.detected and result.report.corrected

    def test_interior_fault_corrected_through_online_machinery(self, rng):
        n = 256
        plan = repro.plan(n, real=True)
        x = rng.standard_normal(n)
        injector = FaultInjector(
            specs=[
                FaultSpec(
                    site=FaultSite.STAGE1_COMPUTE,
                    index=3,
                    element=2,
                    kind=FaultKind.ADD_CONSTANT,
                    magnitude=25.0,
                )
            ]
        )
        result = plan.execute(x, injector)
        assert injector.fired_count == 1
        assert np.allclose(result.output, np.fft.rfft(x), atol=1e-8)
        assert result.report.corrected

    def test_batched_input_bitflip_recovered(self, rng):
        n = 128
        plan = repro.plan(n, real=True)
        X = rng.standard_normal((6, n))
        injector = bitflip(FaultSite.INPUT, element=n + 5)  # row 1, element 5
        batch = plan.execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert np.allclose(batch.output, np.fft.rfft(X, axis=-1), atol=1e-8)
        assert batch.detected and len(batch.fallback_rows) >= 1

    def test_batched_packed_output_fault_recovered(self, rng):
        n = 128
        plan = repro.plan(n, real=True)
        X = rng.standard_normal((4, n))
        injector = FaultInjector(
            specs=[
                FaultSpec(
                    site=FaultSite.OUTPUT,
                    element=40,
                    kind=FaultKind.SET_CONSTANT,
                    magnitude=77.0,
                )
            ]
        )
        batch = plan.execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert np.allclose(batch.output, np.fft.rfft(X, axis=-1), atol=1e-8)

    def test_inverse_packed_input_fault_corrected(self, rng):
        n = 128
        plan = repro.plan(n, real=True)
        x = rng.standard_normal(n)
        spectrum = np.fft.rfft(x)
        injector = bitflip(FaultSite.INPUT, element=11, bit=56)
        result = plan.inverse(spectrum, injector)
        assert injector.fired_count == 1
        assert np.allclose(result.output, x, atol=1e-8)
        assert result.report.corrected

    def test_offline_real_output_fault_restarts(self, rng):
        n = 128
        plan = repro.plan(n, "opt-offline+mem", real=True)
        x = rng.standard_normal(n)
        injector = FaultInjector(
            specs=[
                FaultSpec(
                    site=FaultSite.OUTPUT,
                    element=3,
                    kind=FaultKind.ADD_CONSTANT,
                    magnitude=40.0,
                )
            ]
        )
        result = plan.execute(x, injector)
        assert injector.fired_count == 1
        assert np.allclose(result.output, np.fft.rfft(x), atol=1e-8)
        assert result.report.corrected


class TestInteriorRealVerification:
    class _CorruptingProgram:
        """Wraps the cached RealStageProgram, corrupting the half-length
        sub-transform result (of the tile's first row) a fixed number of
        times."""

        def __init__(self, inner, strikes=1, magnitude=80.0):
            self._inner = inner
            self.remaining = strikes
            self.magnitude = magnitude

        @property
        def half(self):
            return self._inner.half

        def pack(self, x):
            return self._inner.pack(x)

        def transform_half(self, z):
            out = self._inner.transform_half(z)
            if self.remaining:
                self.remaining -= 1
                out = out.copy()
                out[..., 5] += self.magnitude
            return out

        def disentangle(self, spectrum):
            return self._inner.disentangle(spectrum)

        def execute(self, x):
            return self._inner.execute(x)

        def execute_inverse(self, spectrum):
            return self._inner.execute_inverse(spectrum)

    def test_fault_free_run_runs_the_interior_check(self):
        ftp = FTPlan(2048, FTConfig(real=True))
        xr = np.random.default_rng(21).standard_normal(2048)
        result = ftp.execute(xr)
        # the end-to-end check and the interior pair, each counted once
        assert result.report.counters["verifications"] == 2
        assert not result.detected
        assert np.allclose(result.output, np.fft.rfft(xr))

    def test_interior_fault_caught_before_disentangle(self):
        ftp = FTPlan(2048, FTConfig(real=True))
        ftp._real_program = self._CorruptingProgram(ftp._real_program, strikes=1)
        xr = np.random.default_rng(22).standard_normal(2048)
        result = ftp.execute(xr)
        interior = [
            v for v in result.report.verifications if v.site == "real-interior-ccv"
        ]
        assert any(v.detected for v in interior)
        assert not result.uncorrectable
        assert np.allclose(result.output, np.fft.rfft(xr))
        # the recovery happened mid-pipeline: a restart correction is logged
        assert any(
            c.site == "real-interior" for c in result.report.corrections
        )

    def test_persistent_interior_fault_reported_uncorrectable(self):
        ftp = FTPlan(2048, FTConfig(real=True))
        ftp._real_program = self._CorruptingProgram(ftp._real_program, strikes=99)
        xr = np.random.default_rng(23).standard_normal(2048)
        result = ftp.execute(xr)
        assert result.uncorrectable

    def test_input_memory_corruption_still_repaired_with_interior_check(self):
        # Regression: corrupted input trips the interior check (z aliases
        # xr), so the interior branch must route through the locating-pair
        # repair instead of restarting from the same corrupted data.
        ftp = FTPlan(1024, FTConfig.from_name("opt-online+mem+real"))
        xr = np.random.default_rng(25).standard_normal(1024)
        reference = np.fft.rfft(xr)

        inner = ftp._real_program
        corrupted = {"done": False}

        class CorruptPack:
            """Corrupts xr (through the packed view) after encoding, once."""

            half = inner.half

            def pack(self, x):
                z = inner.pack(x)
                if not corrupted["done"]:
                    corrupted["done"] = True
                    z[..., 9] += 50.0  # writes through to xr: a memory fault
                return z

            def transform_half(self, z):
                return inner.transform_half(z)

            def disentangle(self, spectrum):
                return inner.disentangle(spectrum)

            def execute(self, x):
                return inner.execute(x)

        ftp._real_program = CorruptPack()
        result = ftp.execute(xr)
        assert not result.uncorrectable
        assert result.report.memory_correction_count >= 1
        assert np.allclose(result.output, reference)

    def test_odd_size_has_no_interior_pair_but_works(self):
        ftp = FTPlan(2187, FTConfig(real=True))  # odd: no half-length packing
        assert ftp.constants.c_h is None
        xr = np.random.default_rng(24).standard_normal(2187)
        result = ftp.execute(xr)
        assert np.allclose(result.output, np.fft.rfft(xr))
