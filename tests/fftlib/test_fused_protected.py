"""Differential tests: the fused protected program vs the legacy scheme path.

The fused path wraps the plan's own lowering in the paper's end-to-end
check; these tests pin down the equivalences that make that safe:

* the fused spectrum is *bitwise* identical to the plan's own program
  (``get_program(n)``, the object ``execute_many`` runs too);
* the reference checksum ``c . x`` is bitwise identical to the legacy
  scheme's (same operators from the same constants);
* the one check covers every stage boundary: analytically (the weight of
  every intermediate element in ``r . X`` is non-zero) and by injection (a
  bump after any stage of the NumPy lowering is detected and undone);
* the detection thresholds are bitwise identical between the paths (the
  plan-time threshold closures reproduce ``eta_offline`` / ``eta_memory``
  exactly);
* clean runs make the same no-fault decision on both paths, and a live
  injector never reaches the fused program - every instrumented fault site
  still fires through the paper-exact scheme machinery;
* the fused verification loop detects and repairs faults arriving between
  encode and transform (memory) or inside the transform (computational).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import repro
from repro.core.checksums import weighted_sum
from repro.core.config import FTConfig
from repro.core.constants import SchemeConstants
from repro.core.ftplan import FTPlan, clear_plan_cache
from repro.core.thresholds import ThresholdMode, ThresholdPolicy
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib import executor
from repro.fftlib.executor import StageProgram, clear_program_cache, get_program
from repro.fftlib.native import NativeProgram, native_supported
from repro.fftlib.protected import ProtectedStageProgram, get_protected_program

HAVE_NATIVE = native_supported()

# codelet-only, mixed-radix, and prime (Bluestein) sizes
SIZES = [64, 720, 4096, 1009]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _data(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestFusedSpectrum:
    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_identical_to_compiled_program(self, n):
        x = _data(n)
        fused = repro.plan(n).execute(x).output
        direct = get_program(n).execute(x.reshape(1, n)).reshape(n)
        assert np.array_equal(fused, direct)

    @pytest.mark.parametrize("n", SIZES)
    def test_fused_and_batched_paths_share_one_program(self, n):
        p = repro.plan(n)
        assert p._fused_program.program is p._batch_program is get_program(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_legacy_scheme_within_roundoff(self, n):
        x = _data(n)
        p = repro.plan(n)
        assert p._fused_program is not None
        fused = p._execute_fused(x).output
        legacy = p.scheme.execute(x).output
        assert np.allclose(fused, legacy, rtol=1e-9, atol=1e-9)

    def test_inverse_round_trip_through_fused_path(self):
        n = 720
        x = _data(n)
        p = repro.plan(n)
        spectrum = p.execute(x).output
        back = p.inverse(spectrum).output
        assert np.allclose(back, x, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 720, 4096, 262144])
    def test_inverse_equals_reversed_forward_over_n(self, n, monkeypatch):
        # ifft(X)[j] = F(X)[(n - j) mod n] / n, bitwise: the NumPy finish
        # (1, 720) and the C finish (4096, 262144) reorder and scale exactly.
        finishes = []
        original = NativeProgram.finish_inverse
        monkeypatch.setattr(
            NativeProgram,
            "finish_inverse",
            lambda self, y, sums: finishes.append(1) or original(self, y, sums),
        )
        spectrum = _data(n, seed=3)
        p = repro.plan(n)
        forward = p.execute(spectrum).output
        expected = forward[(-np.arange(n)) % n] * (1.0 / n)
        assert np.array_equal(p.inverse(spectrum).output, expected)
        assert len(finishes) == (n >= executor._NATIVE_MIN_ELEMENTS and HAVE_NATIVE)

    @pytest.mark.parametrize("n", [720, 4096, 262144])
    def test_execute_tapped_is_the_program_plus_one_dot(self, n):
        prog = ProtectedStageProgram.build(n, optimized=True, memory_ft=True)
        x = _data(n)
        out, rx = prog.execute_tapped(x)
        assert np.array_equal(out, get_program(n).execute(x))
        assert rx == complex(np.dot(prog.r, out))


class TestReferenceChecksums:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("optimized", [True, False])
    def test_final_reference_bitwise_equals_legacy_cx(self, n, optimized):
        config = FTConfig(optimized=optimized)
        consts = SchemeConstants.for_config(n, config)
        prog = get_protected_program(n, optimized=optimized, memory_ft=True)
        x = _data(n)
        assert np.array_equal(prog.c, consts.c_n)
        assert np.array_equal(prog.r, consts.r_n)
        assert prog.encode(x) == complex(weighted_sum(consts.c_n, x))

    def test_memory_pair_matches_scheme_constants(self):
        n = 720
        consts = SchemeConstants.for_config(n, FTConfig())
        prog = get_protected_program(n, optimized=True, memory_ft=True)
        assert np.array_equal(prog.w1, consts.w1_n)
        assert np.array_equal(prog.w2, consts.w2_n)
        assert prog.w1_rms == consts.w1_n_rms

    @pytest.mark.parametrize("n", [4096, 6144, 1009])
    def test_encoding_is_r_times_the_dft_matrix(self, n):
        """``c = r A`` column by column: ``c . e_j`` is ``r . DFT(e_j)``."""

        prog = get_protected_program(n, optimized=True, memory_ft=True)
        columns = np.random.default_rng(n).integers(0, n, 8)
        for j in columns:
            unit = np.zeros(n, dtype=complex)
            unit[j] = 1.0
            spectrum = get_program(n, native=False).execute(unit)
            assert np.isclose(prog.c[j], np.dot(prog.r, spectrum), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [720, 4096, 6144, 262144])
    def test_check_verifies_clean_data(self, n):
        """The output checksum agrees with the reference on clean input."""

        prog = get_protected_program(n, optimized=True, memory_ft=True)
        x = _data(n)
        _, rx = prog.execute_tapped(x)
        scale = float(np.sqrt(n)) * float(np.linalg.norm(x))
        assert abs(rx - prog.encode(x)) < 1e-10 * scale


class TestThresholdEquivalence:
    @pytest.mark.parametrize("mode", [ThresholdMode.PAPER, ThresholdMode.RELATIVE])
    @pytest.mark.parametrize("n", [1, 2, 720, 4096, 1 << 20])
    def test_offline_closure_bitwise_equals_eta_offline(self, mode, n):
        pol = ThresholdPolicy(mode=mode)
        fn = pol.offline_threshold_fn(n)
        rng = np.random.default_rng(5)
        for _ in range(25):
            sigma0 = float(rng.uniform(0.1, 4.0)) * 10.0 ** int(rng.integers(-20, 20))
            assert fn(sigma0) == pol.eta_offline(n, None, sigma0=sigma0)
        assert fn(0.0) == pol.eta_offline(n, None, sigma0=0.0)

    @pytest.mark.parametrize("mode", [ThresholdMode.PAPER, ThresholdMode.RELATIVE])
    def test_memory_closure_bitwise_equals_eta_memory(self, mode):
        pol = ThresholdPolicy(mode=mode)
        n = 720
        fn = pol.memory_threshold_fn(n)
        weights = np.ones(n)
        rng = np.random.default_rng(6)
        for _ in range(25):
            wr = float(rng.uniform(0.5, 2.0))
            dr = float(rng.uniform(0.0, 8.0))
            assert fn(wr, dr) == pol.eta_memory(
                weights, None, weight_rms=wr, data_rms=dr
            )

    def test_fused_run_decides_clean_on_clean_data(self):
        p = repro.plan(720)
        result = p._execute_fused(_data(720))
        assert not result.report.uncorrectable
        assert not result.report.corrections
        records = [r for r in result.report.verifications if r.site == "fused-ccv"]
        assert records and not any(r.detected for r in records)


class TestRouting:
    def test_live_injector_takes_the_scheme_path(self):
        # Table 6 methodology: power-of-two size, high-bit flip (bits 50-62)
        # so detection is guaranteed on the legacy path.
        n = 4096
        p = repro.plan(n)
        assert p._fused_program is not None
        calls = []
        original = p._execute_fused
        p._execute_fused = lambda x: calls.append(1) or original(x)
        x = _data(n)
        injector = FaultInjector().arm_bitflip(
            FaultSite.STAGE1_INPUT, element=5, bit=60
        )
        result = p.execute(x, injector)
        assert not calls, "live injector must route through the legacy scheme"
        assert result.report.corrections
        direct = get_program(n).execute(x.reshape(1, n)).reshape(n)
        assert np.allclose(result.output, direct, rtol=1e-8, atol=1e-8)

    def test_fault_free_run_takes_the_fused_path(self):
        n = 720
        p = repro.plan(n)
        calls = []
        original = p._execute_fused
        p._execute_fused = lambda x: calls.append(1) or original(x)
        p.execute(_data(n))
        assert calls, "fault-free execute must use the fused program"
        calls.clear()
        # a FaultInjector instance is always live, even with no specs armed
        p.execute(_data(n), FaultInjector())
        assert not calls

    @pytest.mark.parametrize(
        "site", [FaultSite.STAGE1_INPUT, FaultSite.INTERMEDIATE, FaultSite.OUTPUT]
    )
    @pytest.mark.parametrize("scheme", ["opt-offline+mem", "opt-online+mem"])
    def test_injected_faults_still_corrected_per_site(self, site, scheme):
        # High-bit flip at a power-of-two size, per the Table 6 campaign's
        # fault model ("one random high bit", bits 50-62): always far above
        # the detection thresholds, so correction must always succeed.
        n = 4096
        p = repro.plan(n, scheme)
        x = _data(n)
        clean = p.execute(x).output
        injector = FaultInjector().arm_bitflip(site, element=17, bit=60)
        result = p.execute(x, injector)
        assert injector.events, "fault site must have fired"
        assert not result.report.uncorrectable
        assert np.allclose(result.output, clean, rtol=1e-8, atol=1e-8)


class TestFusedRecovery:
    def test_memory_corruption_between_encode_and_transform(self, monkeypatch):
        """Corruption of x after encode is located, repaired, and re-run."""

        n = 720
        p = repro.plan(n)
        prog = p._fused_program
        assert prog is not None
        state = {"hits": 0}
        original = ProtectedStageProgram.execute_tapped

        def corrupt_once(self, x):
            state["hits"] += 1
            if state["hits"] == 1:
                x[13] += 1e6  # in-place: simulates memory corruption
            return original(self, x)

        monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", corrupt_once)
        x = _data(n)
        keep = x.copy()
        result = p._execute_fused(x)
        kinds = [c.kind for c in result.report.corrections]
        assert "memory-correct" in kinds and "restart" in kinds
        assert not result.report.uncorrectable
        # repair reconstructs element 13 from the locating pair (roundoff
        # accurate, not bitwise), so the recovered spectrum matches the
        # clean transform to roundoff
        clean = get_program(n).execute(keep.reshape(1, n)).reshape(n)
        assert np.allclose(result.output, clean, rtol=1e-8, atol=1e-8)

    def test_computational_fault_recovered_by_restart(self, monkeypatch):
        n = 720
        p = repro.plan(n)
        state = {"hits": 0}
        original = ProtectedStageProgram.execute_tapped

        def corrupt_output_once(self, x):
            out, rx = original(self, x)
            state["hits"] += 1
            if state["hits"] == 1:
                out = out.copy()
                out[3] += 1e6  # computational fault in the transform
                rx = complex(np.dot(self.r, out))
            return out, rx

        monkeypatch.setattr(
            ProtectedStageProgram, "execute_tapped", corrupt_output_once
        )
        x = _data(n)
        result = p._execute_fused(x)
        assert state["hits"] == 2, "verification failure must trigger a re-run"
        assert not result.report.uncorrectable
        assert [c.kind for c in result.report.corrections] == ["restart"]
        monkeypatch.undo()
        direct = get_program(n).execute(x.reshape(1, n)).reshape(n)
        assert np.array_equal(result.output, direct)

    def test_persistent_corruption_reported_uncorrectable(self, monkeypatch):
        n = 720
        p = repro.plan(n)
        original = ProtectedStageProgram.execute_tapped

        def always_corrupt(self, x):
            out, _ = original(self, x)
            out = out.copy()
            out[3] += 1e6
            return out, complex(np.dot(self.r, out))

        monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", always_corrupt)
        result = p._execute_fused(_data(n))
        assert result.report.uncorrectable


class TestFusedInverseRecovery:
    """The fused inverse's check and recovery loop are the forward's.

    720 finishes in NumPy, 4096 in C.  Faults are injected through the
    program run the inverse shares with the forward (``StageProgram.execute``):
    into ``X`` before the transform (memory), into ``F(X)`` before the finish
    (computational).
    """

    @pytest.mark.parametrize("n", [720, 4096])
    def test_memory_corruption_between_encode_and_transform(self, n, monkeypatch):
        p = repro.plan(n, "opt-online+mem")
        X = _data(n)
        keep = X.copy()
        state = {"hits": 0}
        original = StageProgram.execute

        def corrupt_input_once(self, x):
            state["hits"] += 1
            if state["hits"] == 1:
                x[13] += 1e6  # in-place: simulates memory corruption
            return original(self, x)

        monkeypatch.setattr(StageProgram, "execute", corrupt_input_once)
        result = p.inverse(X)
        monkeypatch.undo()
        kinds = [c.kind for c in result.report.corrections]
        assert "memory-correct" in kinds and "restart" in kinds
        assert not result.report.uncorrectable
        # reprolint: fft-ok - independent oracle for the inverse
        assert np.allclose(result.output, np.fft.ifft(keep), rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("n", [720, 4096])
    def test_computational_fault_recovered_by_restart(self, n, monkeypatch):
        p = repro.plan(n)
        X = _data(n)
        clean = p.inverse(X).output
        state = {"hits": 0}
        original = StageProgram.execute

        def corrupt_output_once(self, x):
            out = original(self, x)
            state["hits"] += 1
            if state["hits"] == 1:
                out[3] += 1e6  # computational fault in the transform
            return out

        monkeypatch.setattr(StageProgram, "execute", corrupt_output_once)
        result = p.inverse(X)
        monkeypatch.undo()
        assert state["hits"] == 2, "verification failure must trigger a re-run"
        assert not result.report.uncorrectable
        assert [c.kind for c in result.report.corrections] == ["restart"]
        assert np.array_equal(result.output, clean)

    @pytest.mark.parametrize("n", [720, 4096])
    def test_persistent_corruption_reported_uncorrectable(self, n, monkeypatch):
        p = repro.plan(n)
        original = StageProgram.execute

        def always_corrupt(self, x):
            out = original(self, x)
            out[3] += 1e6
            return out

        monkeypatch.setattr(StageProgram, "execute", always_corrupt)
        result = p.inverse(_data(n))
        assert result.report.uncorrectable

    @pytest.mark.skipif(not HAVE_NATIVE, reason="no C finish without the native tier")
    @pytest.mark.parametrize("n", [4096, 262144])
    def test_c_and_numpy_finishes_agree(self, n, monkeypatch):
        native = FTPlan(n)
        assert native._fused_program.program.native is not None
        numpy_finish = FTPlan(n)
        numpy_finish._fused_program = dataclasses.replace(
            native._fused_program, program=StageProgram(n)
        )
        X = _data(n)
        for corrupt in (False, True):
            if corrupt:
                original = StageProgram.execute

                def always_corrupt(self, x):
                    out = original(self, x)
                    out[7] += 1e3
                    return out

                monkeypatch.setattr(StageProgram, "execute", always_corrupt)
            a, b = native.inverse(X), numpy_finish.inverse(X)
            monkeypatch.undo()
            assert np.allclose(a.output, b.output, rtol=1e-12, atol=1e-14)
            for report in (a.report, b.report):
                assert report.detected == corrupt
                assert bool(report.uncorrectable) == corrupt
            ra, rb = (
                [v.residual for v in r.report.verifications if v.site == "fused-ccv"]
                for r in (a, b)
            )
            assert np.allclose(ra, rb, rtol=1e-6, atol=1e-9 * float(np.sqrt(n)))

    @pytest.mark.skipif(not HAVE_NATIVE, reason="the NumPy finish copies its output")
    def test_fault_free_inverse_allocates_only_its_output(self):
        n = 1 << 18
        p = repro.plan(n)
        X = _data(n)
        p.inverse(X)  # warm: the program's work buffers are thread-local
        tracemalloc.start()
        try:
            result = p.inverse(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not result.report.detected
        assert peak < 1.5 * X.nbytes, peak / X.nbytes


class TestBatchAmortization:
    def test_execute_many_matches_single_vector_decisions(self):
        n = 256
        p = repro.plan(n)
        rows = np.stack([_data(n, seed=s) for s in range(6)])
        batch = p.execute_many(rows)
        singles = np.stack([p.execute(rows[i]).output for i in range(6)])
        assert np.allclose(batch.output, singles, rtol=1e-9, atol=1e-9)
        assert not batch.report.uncorrectable

    def test_component_sigma_rows_matches_private_helper(self):
        pol = ThresholdPolicy()
        rows = np.stack([_data(512, seed=s) for s in range(4)])
        assert np.array_equal(
            pol.component_sigma_rows(rows), pol._component_sigma_rows(rows)
        )


#: sizes of the coverage claim: 3 | n (720, 6144, 12288, 196608) and powers
#: of two, with and without a radix-16 tail
COVERAGE_SIZES = [720, 4096, 6144, 12288, 196608, 262144]


def _boundaries(program):
    """``(span L, rows count)`` of the state after the base and each stage."""

    spans = [program.base] + [stage.radix * stage.span for stage in program.stages]
    return [(span, program.n // span) for span in spans]


class _BumpAfter:
    """numpy as the executor module sees it, except that the ``boundary``-th
    ``matmul`` of the run (0 = the base kernel, then one per combine stage)
    adds 1 to one element of row ``row`` of the state it writes, once."""

    def __init__(self, boundary, row, element):
        self.boundary, self.row, self.element = boundary, row, element
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        result = np.matmul(a, b, out=out)
        if self.calls == self.boundary:
            state = result[self.row]
            state[np.unravel_index(self.element % state.size, state.shape)] += 1.0
        self.calls += 1
        return result


@pytest.fixture
def numpy_lowering(monkeypatch):
    """Plans built inside the test lower to the NumPy stage bodies."""

    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    clear_program_cache()
    yield
    # drop the NumPy-bodied programs cached under the default keys
    clear_program_cache()
    clear_plan_cache()


class TestStageCoverage:
    """The end-to-end check sees an error after any stage of the transform."""

    @pytest.mark.parametrize("n", COVERAGE_SIZES)
    def test_every_stage_boundary_has_nonzero_weight(self, n):
        # An error e in element k' of row b after the stage of span L moves
        # r . X by e * sum_t r[k' + t L] omega_count^(b t): a DFT over t.
        prog = get_protected_program(n, optimized=True, memory_ft=True)
        program = get_program(n, native=False)
        assert program.stages, "the claim is about interior stage boundaries"
        for span, count in _boundaries(program):
            rows = prog.r.reshape(count, span)
            # reprolint: fft-ok - independent oracle for the weights
            weights = np.abs(np.fft.fft(rows, axis=0))
            assert weights.min() > 0.4, (n, span, float(weights.min()))

    @pytest.mark.parametrize("n", COVERAGE_SIZES)
    def test_bump_after_any_stage_is_detected_and_restarted(
        self, n, numpy_lowering, monkeypatch
    ):
        p = FTPlan(n)
        assert p._fused_program.program.native is None
        rng = np.random.default_rng(n)
        x = _data(n, seed=n)
        clean = p.execute(x).output
        for boundary in range(len(_boundaries(p._fused_program.program))):
            for _ in range(20):
                bump = _BumpAfter(boundary, 0, int(rng.integers(0, n)))
                monkeypatch.setattr(executor, "np", bump)
                result = p.execute(x)
                monkeypatch.undo()
                assert bump.calls > boundary
                report = result.report
                detected = [v for v in report.verifications if v.detected]
                assert detected, (n, boundary, bump.element)
                assert [c.kind for c in report.corrections] == ["restart"]
                assert not report.uncorrectable
                assert np.array_equal(result.output, clean)

    @pytest.mark.parametrize("n", COVERAGE_SIZES)
    def test_bump_in_a_batch_row_is_detected_and_recomputed(
        self, n, numpy_lowering, monkeypatch
    ):
        p = FTPlan(n)
        rng = np.random.default_rng(n + 1)
        X = np.stack([_data(n, seed=s) for s in range(2)])
        clean = p.execute_many(X).output
        # the recovery re-runs the row under the full scheme: fewer trials
        # at the sizes where that costs tens of milliseconds
        trials = 20 if n <= 12288 else 3
        for boundary in range(len(_boundaries(p._batch_program))):
            for _ in range(trials):
                bump = _BumpAfter(boundary, 1, int(rng.integers(0, n)))
                monkeypatch.setattr(executor, "np", bump)
                result = p.execute_many(X)
                monkeypatch.undo()
                assert result.fallback_rows == (1,), (n, boundary, bump.element)
                assert "recompute" in [c.kind for c in result.report.corrections]
                assert not result.uncorrectable
                assert np.array_equal(result.output[0], clean[0])
                assert np.allclose(result.output[1], clean[1], rtol=1e-9, atol=1e-9)


class TestLowering:
    def test_protected_plan_uses_numpy_bodies_without_the_native_tier(self, numpy_lowering):
        n = 4096
        p = FTPlan(n)
        program = p._fused_program.program
        assert program.native is None
        assert "REPRO_NO_NATIVE" in program.native_fallback_reason
        x = _data(n)
        expected = get_program(n, native=False).execute(x)
        assert np.array_equal(p.execute(x).output, expected)
        assert "native-fallback" in p.describe()
