"""Tests for in-place protected plans: ``FTConfig.inplace`` and the ``out=`` paths.

The load-bearing property: ABFT recovery still works *after the input
buffer has been overwritten* - the locating pair re-encoded onto the output
side (the checksum-carried surrogate) locates and repairs corruption of the
destroyed buffer, the paper's Fig. 4 backup discipline without the backups.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import FTConfig
from repro.core.constants import SchemeConstants
from repro.core.ftplan import FTPlan
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultKind, FaultSite, FaultSpec

N = 4096


@pytest.fixture
def signal(rng):
    return rng.standard_normal(N) + 1j * rng.standard_normal(N)


def _spec(site, element=137, magnitude=50.0):
    return FaultSpec(
        site=site, element=element, kind=FaultKind.ADD_CONSTANT, magnitude=magnitude
    )


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "opt-online+mem+ip",
            "opt-offline+mem+ip",
            "online+ip",
            "fftw+ip",
            "opt-online+mem+real+ip",
            "opt-online+mem+ip+numpy",
            "opt-online+mem+real+ip+fftlib",
        ],
    )
    def test_ip_suffix_round_trips(self, name):
        config = FTConfig.from_name(name)
        assert config.inplace
        assert config.to_name() == name

    def test_suffix_order_is_real_then_ip_then_backend(self):
        config = FTConfig(real=True, inplace=True, backend="numpy")
        assert config.to_name() == "opt-online+mem+real+ip+numpy"
        assert FTConfig.from_name(config.to_name()) == config
        # the retired kernel-tier flag still parses, to the same config
        assert FTConfig.from_name("opt-online+mem+real+ip+numpy+native") == config

    def test_explicit_override_composes_with_plain_name(self):
        config = FTConfig.from_name("opt-online+mem", inplace=True)
        assert config.inplace and config.to_name() == "opt-online+mem+ip"

    def test_plan_cache_keys_are_distinct(self):
        a = repro.plan(256, "opt-online+mem+ip")
        b = repro.plan(256, "opt-online+mem")
        assert a is not b
        assert a is repro.plan(256, "opt-online+mem+ip")

    def test_describe_mentions_inplace(self):
        assert "inplace=True" in FTConfig(inplace=True).describe()
        assert ", inplace" in FTPlan(64, FTConfig(inplace=True)).describe()


class TestInPlaceConstants:
    def test_carried_pair_matches_output_side_identity(self, rng):
        """``(F w) . x`` must equal ``w . fft(x)`` - the surrogate identity."""

        config = FTConfig.from_name("opt-online+mem+ip")
        consts = SchemeConstants.for_config(N, config)
        assert consts.inplace and consts.fw1_n is not None
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        X = np.fft.fft(x)
        carried = consts.fw1_n @ x
        direct = consts.w1_n @ X
        assert abs(carried - direct) / max(abs(direct), 1e-300) < 1e-9

    def test_real_carried_pair_folds_onto_packed_layout(self, rng):
        config = FTConfig.from_name("opt-online+mem+real+ip")
        consts = SchemeConstants.for_config(N, config)
        assert consts.fp1_h is not None
        x = rng.standard_normal(N)
        packed = np.fft.rfft(x)
        carried = consts.fp1_h @ x
        direct = consts.p1_h @ packed
        assert abs(carried - direct) / max(abs(direct), 1e-300) < 1e-9

    def test_no_memory_ft_means_no_surrogate(self):
        consts = SchemeConstants.for_config(N, FTConfig.from_name("opt-online+ip"))
        assert consts.inplace and consts.fw1_n is None


class TestComplexOverwrite:
    def test_fault_free_matches_out_of_place(self, signal, spectra_close):
        plan = repro.plan(N, "opt-online+mem+ip")
        reference = plan.execute(signal).output  # scheme path, input preserved
        buf = signal.copy()
        result = plan.execute(buf, out=buf)
        assert result.output is buf
        assert not result.report.detected
        spectra_close(buf, np.fft.fft(signal))
        assert np.allclose(buf, reference, atol=1e-9 * np.max(np.abs(reference)))

    def test_output_fault_repaired_after_input_destroyed(self, signal):
        plan = repro.plan(N, "opt-online+mem+ip")
        reference = np.fft.fft(signal)
        injector = FaultInjector(specs=[_spec(FaultSite.OUTPUT)])
        buf = signal.copy()
        result = plan.execute(buf, injector, out=buf)
        assert injector.fired_count == 1
        assert result.report.detected and result.report.corrected
        assert not result.report.has_uncorrectable
        err = np.max(np.abs(buf - reference)) / np.max(np.abs(reference))
        assert err < 1e-9

    def test_input_fault_repaired_before_overwrite(self, signal):
        plan = repro.plan(N, "opt-online+mem+ip")
        reference = np.fft.fft(signal)
        injector = FaultInjector(specs=[_spec(FaultSite.INPUT, element=55)])
        buf = signal.copy()
        result = plan.execute(buf, injector, out=buf)
        assert result.report.detected
        err = np.max(np.abs(buf - reference)) / np.max(np.abs(reference))
        assert err < 1e-9

    def test_without_memory_ft_detected_but_uncorrectable(self, signal):
        plan = repro.plan(N, "opt-online+ip")
        injector = FaultInjector(specs=[_spec(FaultSite.OUTPUT, magnitude=100.0)])
        buf = signal.copy()
        result = plan.execute(buf, injector, out=buf)
        assert result.report.detected
        assert result.report.has_uncorrectable  # honest: nothing to recompute from

    def test_separate_out_buffer_preserves_input(self, signal, spectra_close):
        plan = repro.plan(N, "opt-online+mem+ip")
        snapshot = signal.copy()
        out = np.empty(N, dtype=np.complex128)
        plan.execute(signal, out=out)
        assert np.array_equal(signal, snapshot)
        spectra_close(out, np.fft.fft(signal))

    def test_unsupported_size_keeps_overwrite_semantics(self, rng, spectra_close):
        n = 134  # half = 67 -> Bluestein, no Stockham lowering
        plan = repro.plan(n, "opt-online+mem+ip")
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        buf = x.copy()
        result = plan.execute(buf, out=buf)
        assert result.output is buf
        spectra_close(buf, np.fft.fft(x))

    def test_complex64_dtype_rejected_on_overwrite_path(self, signal):
        plan = repro.plan(N, "opt-online+mem+ip", dtype="complex64")
        with pytest.raises(ValueError):
            plan.execute(signal.copy(), out=signal.copy())

    def test_out_on_plan_without_ip_config_still_recovers(self, signal):
        """A memory_ft plan never configured with +ip builds the carried
        surrogate lazily when out= is first used - recovery must not
        silently degrade just because the config lacked the flag."""

        plan = repro.plan(N, "opt-online+mem")
        reference = np.fft.fft(signal)
        injector = FaultInjector(specs=[_spec(FaultSite.OUTPUT)])
        buf = signal.copy()
        result = plan.execute(buf, injector, out=buf)
        assert result.report.detected and not result.report.has_uncorrectable
        err = np.max(np.abs(buf - reference)) / np.max(np.abs(reference))
        assert err < 1e-9
        assert plan.constants.fw1_n is not None  # upgraded once, reused


class TestRealOverwrite:
    def test_fault_free_destroys_input(self, rng, spectra_close):
        plan = repro.plan(N, "opt-online+mem+real+ip")
        x = rng.standard_normal(N)
        reference = np.fft.rfft(x)
        buf = x.copy()
        out = np.empty(N // 2 + 1, dtype=np.complex128)
        result = plan.execute(buf, out=out)
        assert result.output is out
        spectra_close(out, reference)
        assert not np.allclose(buf, x)  # the paper's in-place discipline

    def test_packed_output_fault_repaired_from_surrogate(self, rng):
        plan = repro.plan(N, "opt-online+mem+real+ip")
        x = rng.standard_normal(N)
        reference = np.fft.rfft(x)
        injector = FaultInjector(specs=[_spec(FaultSite.OUTPUT, element=99, magnitude=40.0)])
        out = np.empty(N // 2 + 1, dtype=np.complex128)
        result = plan.execute(x.copy(), injector, out=out)
        assert result.report.detected and not result.report.has_uncorrectable
        err = np.max(np.abs(out - reference)) / np.max(np.abs(reference))
        assert err < 1e-9

    def test_input_fault_repaired_before_overwrite(self, rng):
        plan = repro.plan(N, "opt-online+mem+real+ip")
        x = rng.standard_normal(N)
        reference = np.fft.rfft(x)
        injector = FaultInjector(specs=[_spec(FaultSite.INPUT, element=7, magnitude=30.0)])
        out = np.empty(N // 2 + 1, dtype=np.complex128)
        result = plan.execute(x.copy(), injector, out=out)
        assert result.report.detected
        err = np.max(np.abs(out - reference)) / np.max(np.abs(reference))
        assert err < 1e-9


class TestBatchedOverwrite:
    def test_fault_free_in_buffer(self, rng, spectra_close):
        plan = repro.plan(N, "opt-online+mem+ip")
        X = rng.standard_normal((6, N)) + 1j * rng.standard_normal((6, N))
        reference = np.fft.fft(X, axis=-1)
        B = X.copy()
        batch = plan.execute_many(B, out=B)
        assert batch.output is B
        assert not batch.report.detected
        spectra_close(B, reference)

    def test_output_fault_row_repaired(self, rng):
        plan = repro.plan(N, "opt-online+mem+ip")
        X = rng.standard_normal((6, N)) + 1j * rng.standard_normal((6, N))
        reference = np.fft.fft(X, axis=-1)
        injector = FaultInjector(specs=[_spec(FaultSite.OUTPUT, element=7, magnitude=80.0)])
        B = X.copy()
        batch = plan.execute_many(B, injector=injector, out=B)
        assert len(batch.fallback_rows) == 1
        assert not batch.uncorrectable
        err = np.max(np.abs(B - reference)) / np.max(np.abs(reference))
        assert err < 1e-9

    def test_input_fault_row_repaired_before_overwrite(self, rng):
        plan = repro.plan(N, "opt-online+mem+ip")
        X = rng.standard_normal((6, N)) + 1j * rng.standard_normal((6, N))
        reference = np.fft.fft(X, axis=-1)
        injector = FaultInjector(specs=[_spec(FaultSite.INPUT, element=123, magnitude=60.0)])
        B = X.copy()
        batch = plan.execute_many(B, injector=injector, out=B)
        assert not batch.uncorrectable
        err = np.max(np.abs(B - reference)) / np.max(np.abs(reference))
        assert err < 1e-9

    def test_axis0_layout_scattered_back(self, rng, spectra_close):
        plan = repro.plan(N, "opt-online+mem+ip")
        X = rng.standard_normal((N, 4)) + 1j * rng.standard_normal((N, 4))
        reference = np.fft.fft(X, axis=0)
        B = X.copy()
        batch = plan.execute_many(B, axis=0, out=B)
        assert batch.output is B
        spectra_close(B, reference)

    def test_real_batched_separate_out(self, rng, spectra_close):
        plan = repro.plan(N, "opt-online+mem+real+ip")
        X = rng.standard_normal((4, N))
        out = np.empty((4, N // 2 + 1), dtype=np.complex128)
        batch = plan.execute_many(X, out=out)
        assert batch.output is out
        spectra_close(out, np.fft.rfft(X, axis=-1))

    def test_out_shape_mismatch_rejected(self, rng):
        plan = repro.plan(N, "opt-online+mem+ip")
        X = rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N))
        with pytest.raises(ValueError):
            plan.execute_many(X, out=np.empty((4, N // 2), dtype=np.complex128))

    def test_real_out_shape_mismatch_rejected_before_work(self, rng):
        plan = repro.plan(N, "opt-online+mem+real+ip")
        X = rng.standard_normal((4, N))
        with pytest.raises(ValueError):
            plan.execute_many(X, out=np.empty((4, N), dtype=np.complex128))


class TestInverseAndUnprotected:
    def test_plain_scheme_overwrite(self, rng, spectra_close):
        plan = repro.plan(N, "fftw+ip")
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        buf = x.copy()
        result = plan.execute(buf, out=buf)
        assert result.output is buf
        spectra_close(buf, np.fft.fft(x))

    def test_protected_inverse_still_out_of_place(self, rng, spectra_close):
        # inverse() has no out= path; the +ip config must not break it
        plan = repro.plan(N, "opt-online+mem+ip")
        x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        spectrum = np.fft.fft(x)
        result = plan.inverse(spectrum)
        spectra_close(result.output, x, rtol_scale=1e-8)
