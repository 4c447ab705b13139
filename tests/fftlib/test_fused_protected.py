"""Differential tests: the protected kernel's tap vs the legacy scheme path.

The kernel wraps the plan's own lowering in the paper's end-to-end check;
these tests pin down the equivalences that make that safe:

* the protected spectrum is *bitwise* identical to the plan's own program
  (``get_program(n)``, for single calls and batches alike);
* the tap's weights are the plan's ``SchemeConstants`` arrays themselves,
  so the reference checksum ``c . x`` is bitwise the legacy scheme's;
* the one check covers every stage boundary: analytically (the weight of
  every intermediate element in ``r . X`` is non-zero) and by injection (a
  bump after any stage of the NumPy lowering is detected and undone);
* the tile thresholds are the scalar ``eta_offline`` / ``eta_memory`` per
  row;
* clean runs make the same no-fault decision on both paths, and a live
  injector never reaches the kernel - every instrumented fault site still
  fires through the paper-exact scheme machinery;
* the kernel's retry loop detects and repairs faults arriving between
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
from repro.core.ftplan import TILE_ELEMENTS, FTPlan, clear_plan_cache
from repro.core.thresholds import ThresholdMode, ThresholdPolicy
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib import executor
from repro.fftlib.executor import StageProgram, clear_program_cache, get_program
from repro.fftlib.native import NativeProgram, native_supported
from repro.fftlib.protected import ProtectedStageProgram

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


def _tap(n, optimized=True):
    """The check of a fresh ``n``-point bundle around the size's lowering."""

    return ProtectedStageProgram.build(SchemeConstants.for_config(n, FTConfig(optimized=optimized)))


class TestFusedSpectrum:
    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_identical_to_compiled_program(self, n):
        x = _data(n)
        fused = repro.plan(n).execute(x).output
        direct = get_program(n).execute(x.reshape(1, n)).reshape(n)
        assert np.array_equal(fused, direct)

    @pytest.mark.parametrize("n", SIZES)
    def test_single_and_batched_calls_share_one_program(self, n):
        p = repro.plan(n)
        assert p._tap.program is p._program is get_program(n)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_legacy_scheme_within_roundoff(self, n):
        x = _data(n)
        p = repro.plan(n)
        fused = p.execute(x).output
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
        prog = _tap(n)
        x = _data(n)
        out, rx = prog.execute_tapped(x)
        assert np.array_equal(out, get_program(n).execute(x))
        assert rx == complex(np.dot(prog.r, out))
        # a tile: one checksum per row (a matrix-vector product, so equal
        # to each row's own dot up to the summation order)
        tile = np.stack([x, _data(n, seed=1)])
        outs, rxs = prog.execute_tapped(tile)
        assert np.array_equal(outs, get_program(n).execute(tile))
        assert np.allclose(rxs, [np.dot(prog.r, row) for row in outs], rtol=1e-13)


class TestReferenceChecksums:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("optimized", [True, False])
    def test_final_reference_bitwise_equals_legacy_cx(self, n, optimized):
        config = FTConfig(optimized=optimized)
        consts = SchemeConstants.for_config(n, config)
        prog = ProtectedStageProgram.build(consts)
        x = _data(n)
        assert prog.c is consts.c_n and prog.r is consts.r_n
        assert prog.encode(x) == complex(weighted_sum(consts.c_n, x))

    @pytest.mark.parametrize("name", ["opt-online+mem", "opt-offline+mem", "online+mem"])
    def test_one_copy_of_each_weight_vector(self, name):
        """The tap and the kernel hold the plan's own arrays: no second copy."""

        n = 4096
        p = FTPlan(n, name)
        consts = p.constants
        assert p._tap.c is consts.c_n and p._tap.r is consts.r_n
        assert p._forward.pair[0] is consts.w1_n and p._forward.pair[1] is consts.w2_n
        held = [consts.__dict__[f] for f in ("r_n", "c_n", "w1_n", "w2_n")]
        held += [p._tap.c, p._tap.r, *p._forward.pair]
        distinct = {id(a) for a in held}
        # c doubles as w1 for the modified weights of the optimized schemes
        assert len(distinct) == (3 if name.startswith("opt-") else 4)

    @pytest.mark.parametrize("n", [4096, 6144, 1009])
    def test_encoding_is_r_times_the_dft_matrix(self, n):
        """``c = r A`` column by column: ``c . e_j`` is ``r . DFT(e_j)``."""

        prog = _tap(n)
        columns = np.random.default_rng(n).integers(0, n, 8)
        for j in columns:
            unit = np.zeros(n, dtype=complex)
            unit[j] = 1.0
            spectrum = get_program(n, native=False).execute(unit)
            assert np.isclose(prog.c[j], np.dot(prog.r, spectrum), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [720, 4096, 6144, 262144])
    def test_check_verifies_clean_data(self, n):
        """The output checksum agrees with the reference on clean input."""

        prog = _tap(n)
        x = _data(n)
        _, rx = prog.execute_tapped(x)
        scale = float(np.sqrt(n)) * float(np.linalg.norm(x))
        assert abs(rx - prog.encode(x)) < 1e-10 * scale


class TestThresholdEquivalence:
    @pytest.mark.parametrize("mode", [ThresholdMode.PAPER, ThresholdMode.RELATIVE])
    @pytest.mark.parametrize("n", [2, 720, 4096, 1 << 20])
    def test_tile_thresholds_are_the_scalar_thresholds_per_row(self, mode, n):
        pol = ThresholdPolicy(mode=mode)
        weights = np.ones(min(n, 4096))
        w_rms = 1.5
        units = np.array([pol.offline_unit(n), pol.memory_unit(weights.size, w_rms)])
        rows = np.stack([_data(min(n, 4096), seed=s) * 10.0 ** (3 * s - 6) for s in range(5)])
        rows[2] = 0.0
        rows[2, min(5, rows.shape[1] - 1)] = 1.0  # an impulse, which a strided sample can miss
        etas = pol.tile_thresholds(rows, units)
        for row, (eta, eta_mem) in zip(rows, etas):
            # the row's exact sigma0 = ||x||_2 / sqrt(2 width); |x|'s RMS is sqrt(2) sigma0
            sigma0 = np.linalg.norm(row) / np.sqrt(2.0 * row.size)
            assert eta == pytest.approx(pol.eta_offline(n, None, sigma0=sigma0), rel=1e-12)
            assert eta_mem == pytest.approx(
                pol.eta_memory(weights, None, weight_rms=w_rms, data_rms=np.sqrt(2.0) * sigma0),
                rel=1e-12,
            )

    @pytest.mark.parametrize("mode", [ThresholdMode.PAPER, ThresholdMode.RELATIVE])
    @pytest.mark.parametrize("n", [4096, 2187])
    def test_packed_thresholds_are_the_exact_scalar_thresholds(self, mode, n):
        pol = ThresholdPolicy(mode=mode)
        bins, w_rms = n // 2 + 1, 1.5
        units = np.array([pol.offline_unit(n), pol.memory_unit(bins, w_rms)])
        signals = np.random.default_rng(3).standard_normal((3, n))
        signals[1] = np.cos(2 * np.pi * 5 * np.arange(n) / n)  # a tone: two spiky bins
        # reprolint: fft-ok - independent oracle for the packed spectra
        packed = np.fft.rfft(signals, axis=-1)
        etas = pol.packed_thresholds(packed, n, units)
        for x, spectrum, (eta, eta_mem) in zip(signals, packed, etas):
            # the signal's own exact sigma0, and the bins' exact magnitude RMS
            sigma0 = np.sqrt(np.mean(x**2) / 2.0)
            assert eta == pytest.approx(pol.eta_offline(n, None, sigma0=sigma0), rel=1e-10)
            rms = np.sqrt(np.mean(np.abs(spectrum) ** 2))
            expected = pol.eta_memory(np.ones(bins), None, weight_rms=w_rms, data_rms=rms)
            assert eta_mem == pytest.approx(expected, rel=1e-10)

    def test_clean_run_decides_clean_on_clean_data(self):
        p = repro.plan(720)
        result = p.execute(_data(720))
        assert not result.report.uncorrectable
        assert not result.report.corrections
        assert not result.report.detected
        assert result.report.counters["verifications"] == 1
        assert result.report.summary()["verifications"] == 1


class TestRouting:
    def test_live_injector_takes_the_scheme_path(self):
        # Table 6 methodology: power-of-two size, high-bit flip (bits 50-62)
        # so detection is guaranteed on the legacy path.
        n = 4096
        p = repro.plan(n)
        calls = []
        original = p._kernel
        p._kernel = lambda *args: calls.append(1) or original(*args)
        x = _data(n)
        injector = FaultInjector().arm_bitflip(
            FaultSite.STAGE1_INPUT, element=5, bit=60
        )
        result = p.execute(x, injector)
        assert not calls, "live injector must route through the legacy scheme"
        assert result.report.corrections
        direct = get_program(n).execute(x.reshape(1, n)).reshape(n)
        assert np.allclose(result.output, direct, rtol=1e-8, atol=1e-8)

    def test_fault_free_run_takes_the_kernel(self):
        n = 720
        p = repro.plan(n)
        calls = []
        original = p._kernel
        p._kernel = lambda *args: calls.append(1) or original(*args)
        p.execute(_data(n))
        assert calls, "fault-free execute must run the protected kernel"
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
        state = {"hits": 0}
        original = ProtectedStageProgram.execute_tapped

        def corrupt_once(self, x, *args, **kwargs):
            state["hits"] += 1
            if state["hits"] == 1:
                x[..., 13] += 1e6  # in-place: simulates memory corruption
            return original(self, x, *args, **kwargs)

        monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", corrupt_once)
        x = _data(n)
        keep = x.copy()
        result = p.execute(x)
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

        def corrupt_output_once(self, x, *args, **kwargs):
            out, rx = original(self, x, *args, **kwargs)
            state["hits"] += 1
            if state["hits"] == 1:
                out = out.copy()
                out[..., 3] += 1e6  # computational fault in the transform
                rx = np.dot(out, self.r)
            return out, rx

        monkeypatch.setattr(
            ProtectedStageProgram, "execute_tapped", corrupt_output_once
        )
        x = _data(n)
        result = p.execute(x)
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

        def always_corrupt(self, x, *args, **kwargs):
            out, _ = original(self, x, *args, **kwargs)
            out = out.copy()
            out[..., 3] += 1e6
            return out, np.dot(out, self.r)

        monkeypatch.setattr(ProtectedStageProgram, "execute_tapped", always_corrupt)
        result = p.execute(_data(n))
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

        def corrupt_input_once(self, x, out=None):
            state["hits"] += 1
            if state["hits"] == 1:
                x[..., 13] += 1e6  # in-place: simulates memory corruption
            return original(self, x, out)

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

        def corrupt_output_once(self, x, out=None):
            out = original(self, x, out)
            state["hits"] += 1
            if state["hits"] == 1:
                out[..., 3] += 1e6  # computational fault in the transform
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

        def always_corrupt(self, x, out=None):
            out = original(self, x, out)
            out[..., 3] += 1e6
            return out

        monkeypatch.setattr(StageProgram, "execute", always_corrupt)
        result = p.inverse(_data(n))
        assert result.report.uncorrectable

    @pytest.mark.skipif(not HAVE_NATIVE, reason="no C finish without the native tier")
    @pytest.mark.parametrize("n", [4096, 262144])
    def test_c_and_numpy_finishes_agree(self, n, monkeypatch):
        native = FTPlan(n)
        assert native._tap.program.native is not None
        numpy_finish = FTPlan(n)
        numpy_finish._tap = dataclasses.replace(native._tap, program=StageProgram(n))
        X = _data(n)
        for corrupt in (False, True):
            if corrupt:
                original = StageProgram.execute

                def always_corrupt(self, x, out=None):
                    out = original(self, x, out)
                    out[..., 7] += 1e3
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
    adds 1 to one element of row ``row`` of the state it writes, once.
    ``skip`` matmuls pass untouched first (the transforms of earlier tiles)."""

    def __init__(self, boundary, row, element, skip=0):
        self.boundary, self.row, self.element = skip + boundary, row, element
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
        prog = _tap(n)
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
        assert p._tap.program.native is None
        rng = np.random.default_rng(n)
        x = _data(n, seed=n)
        clean = p.execute(x).output
        for boundary in range(len(_boundaries(p._tap.program))):
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
        # fewer trials at the sizes where a NumPy-bodied batch costs tens of
        # milliseconds
        trials = 20 if n <= 12288 else 3
        boundaries = len(_boundaries(p._program))
        # rows of n > TILE_ELEMENTS run as one-row tiles: row 1 is then the
        # first row of the second tile
        tiled = 2 * n > TILE_ELEMENTS
        for boundary in range(boundaries):
            for _ in range(trials):
                bump = _BumpAfter(
                    boundary,
                    0 if tiled else 1,
                    int(rng.integers(0, n)),
                    skip=boundaries if tiled else 0,
                )
                monkeypatch.setattr(executor, "np", bump)
                result = p.execute_many(X)
                monkeypatch.undo()
                assert result.fallback_rows == (1,), (n, boundary, bump.element)
                assert [c.kind for c in result.report.corrections] == ["restart"]
                assert not result.uncorrectable
                # the row is recomputed through the same program: bitwise clean
                assert np.array_equal(result.output, clean)


class TestLowering:
    def test_protected_plan_uses_numpy_bodies_without_the_native_tier(self, numpy_lowering):
        n = 4096
        p = FTPlan(n)
        program = p._tap.program
        assert program.native is None
        assert "REPRO_NO_NATIVE" in program.native_fallback_reason
        x = _data(n)
        expected = get_program(n, native=False).execute(x)
        assert np.array_equal(p.execute(x).output, expected)
        assert "native-fallback" in p.describe()
