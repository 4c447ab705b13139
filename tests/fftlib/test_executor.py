"""Tests for the compiled stage-program executor (the plan-time fast path)."""

import threading

import numpy as np
import pytest

from repro.fftlib import executor
from repro.fftlib.codelets import SUPPORTED_CODELET_SIZES
from repro.fftlib.dft import direct_dft
from repro.fftlib.executor import (
    StageProgram,
    clear_program_cache,
    compile_program,
    get_program,
    program_cache_info,
)
from repro.fftlib.plan import Plan, PlanDirection


MIXED_RADIX_SIZES = [12, 18, 30, 36, 60, 100, 120, 210, 243, 360, 500, 1024, 4096]
SMALL_PRIME_SIZES = [11, 13, 23, 37, 61]
LARGE_PRIME_SIZES = [67, 97, 127, 211]


class TestProgramLowering:
    def test_lowering_covers_the_size(self):
        program = compile_program(360)
        total = program.base
        for stage in program.stages:
            total *= stage.radix
        assert total == 360

    def test_codelet_size_is_a_single_kernel(self):
        program = compile_program(16)
        assert program.base_kind == "codelet"
        assert program.stages == ()

    def test_small_prime_uses_direct_matrix(self):
        program = compile_program(37)
        assert program.base_kind == "direct"
        assert program.base_matrix.shape == (37, 37)

    def test_large_prime_uses_bluestein(self):
        program = compile_program(127)
        assert program.base_kind == "bluestein"

    def test_stage_tables_have_stage_shapes(self):
        program = compile_program(4096)
        for stage in program.stages:
            assert stage.twiddle.shape == (stage.radix, stage.span)
            assert stage.matrix.shape == (stage.radix, stage.radix)
            assert stage.count * stage.radix * stage.span == 4096

    def test_describe_mentions_base_and_combines(self):
        text = compile_program(4096).describe()
        assert "base=" in text and "combine=" in text

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            StageProgram(0)
        with pytest.raises(ValueError):
            compile_program(360).execute(np.zeros(8, dtype=complex))


class TestExecutorMatchesDirectDFT:
    """Property tests: the compiled path equals the O(N^2) ground truth."""

    @pytest.mark.parametrize("n", MIXED_RADIX_SIZES)
    def test_mixed_radix_single(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(executor.fft(x), direct_dft(x))

    @pytest.mark.parametrize("n", SMALL_PRIME_SIZES)
    def test_small_primes_single(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(executor.fft(x), direct_dft(x))

    @pytest.mark.parametrize("n", LARGE_PRIME_SIZES)
    def test_large_primes_bluestein_single(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(executor.fft(x), direct_dft(x))

    @pytest.mark.parametrize("n", list(SUPPORTED_CODELET_SIZES))
    def test_codelet_sizes_single(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(executor.fft(x), direct_dft(x))

    @pytest.mark.parametrize(
        "n", MIXED_RADIX_SIZES[:6] + SMALL_PRIME_SIZES[:2] + LARGE_PRIME_SIZES[:2] + [16]
    )
    def test_batched_matches_single(self, n, random_complex, spectra_close):
        batch = random_complex(5 * n).reshape(5, n)
        got = executor.fft(batch)
        for row in range(5):
            spectra_close(got[row], direct_dft(batch[row]))

    @pytest.mark.parametrize("n", [36, 61, 97, 256])
    def test_inverse_round_trips(self, n, random_complex, spectra_close):
        x = random_complex(n)
        spectra_close(executor.ifft(executor.fft(x)), x)

    def test_along_axis(self, random_complex, spectra_close):
        x = random_complex(6 * 20).reshape(20, 6)
        spectra_close(executor.fft_along_axis(x, axis=0), np.fft.fft(x, axis=0))
        spectra_close(executor.ifft_along_axis(x, axis=0), np.fft.ifft(x, axis=0))

    def test_package_names_are_the_executor_functions(self):
        import repro.fftlib as fftlib

        assert fftlib.rfft is executor.rfft
        assert fftlib.irfft is executor.irfft
        assert fftlib.fft_along_axis is executor.fft_along_axis

    def test_noncontiguous_input(self, random_complex, spectra_close):
        x = random_complex(2 * 48).reshape(48, 2).T  # non-contiguous rows
        spectra_close(executor.fft(x), np.fft.fft(x, axis=-1))

    def test_input_is_not_mutated(self, random_complex):
        x = random_complex(360)
        saved = x.copy()
        executor.fft(x)
        np.testing.assert_array_equal(x, saved)


class TestProgramCache:
    def test_hit_miss_counters(self):
        clear_program_cache()
        get_program(240)
        info = program_cache_info()
        assert (info.hits, info.misses) == (0, 1)
        get_program(240)
        info = program_cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.size == 1

    def test_same_object_returned(self):
        clear_program_cache()
        assert get_program(360) is get_program(360)

    def test_plan_carries_the_cached_program(self):
        clear_program_cache()
        plan = Plan(480, backend="fftlib")
        assert plan.program is get_program(480)

    def test_backward_plan_uses_the_same_forward_program(self, random_complex, spectra_close):
        plan = Plan(96, PlanDirection.BACKWARD, backend="fftlib")
        x = random_complex(96)
        spectra_close(plan.execute(x), np.fft.ifft(x))

    def test_thread_safety_of_execution(self, random_complex):
        """Concurrent executes share a program but never scratch buffers."""

        program = get_program(480)
        x = random_complex(480)
        want = np.fft.fft(x)
        errors = []

        def worker():
            for _ in range(20):
                got = program.execute(x)
                if not np.allclose(got, want):
                    errors.append("mismatch")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_no_compile_stampede(self, monkeypatch):
        # Concurrent get_program calls for the same new key must compile
        # exactly once (per-key once-guard), not once per thread.
        clear_program_cache()
        compiled = []
        real_cls = executor.StageProgram

        class Counting(real_cls):
            def __init__(self, n, **kwargs):
                compiled.append(n)
                super().__init__(n, **kwargs)

        monkeypatch.setattr(executor, "StageProgram", Counting)
        n = 3 * 5 * 7 * 11  # a size nothing else compiles
        results = []
        barrier = threading.Barrier(8, timeout=30)

        def fetch():
            barrier.wait()
            results.append(executor.get_program(n))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(results) == 8
        assert compiled.count(n) == 1
        assert all(r is results[0] for r in results)

    def test_failed_compile_releases_guard(self, monkeypatch):
        clear_program_cache()
        calls = []
        real_cls = executor.StageProgram

        class FlakyOnce(real_cls):
            def __init__(self, n, **kwargs):
                calls.append(n)
                if len(calls) == 1:
                    raise RuntimeError("transient compile failure")
                super().__init__(n)

        monkeypatch.setattr(executor, "StageProgram", FlakyOnce)
        n = 3 * 5 * 7 * 13
        with pytest.raises(RuntimeError):
            executor.get_program(n)
        # the in-flight guard must not wedge subsequent requests
        assert executor.get_program(n).n == n
