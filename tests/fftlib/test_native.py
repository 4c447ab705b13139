"""Tests for the generated-C native kernel tier.

The contract under test: the native lowering (the default) NEVER changes
results (differential equivalence against the pure-NumPy stage bodies) and
NEVER fails (graceful fallback with a reason when the tier cannot run); the
executor hands a call to the C kernels only past the size crossover and
only for shapes they run faster.  The compile-once kernel cache is
exercised across processes, including the concurrent first-compile
stampede.
"""

import os
import re
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.fftlib import executor
from repro.fftlib import native as native_mod
from repro.fftlib.executor import (
    RealStageProgram,
    StageProgram,
    StockhamStageProgram,
    get_program,
)
from repro.fftlib.native import (
    CODELET_RADICES,
    GENERIC_BASE_MAX,
    build_native_program,
    native_info,
    native_supported,
    native_unavailable_reason,
)
from repro.fftlib.native.generator import LANES
from repro.fftlib.planner import Planner, plan_fft

HAVE_NATIVE = native_supported()

needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no usable C compiler / native tier disabled"
)

#: sizes the default lowering runs on the C kernels: codelet bases, the
#: small generic bases (3, 5, 6, 7) alone and under radix-16 combines, zero to
#: three combine stages
NATIVE_SIZES = [2, 3, 5, 6, 7, 8, 16, 64, 96, 1536, 4096, 20480, 24576]

#: the line-blocked combines: one size per generic base 5, 6 and 7, whose
#: first span (the base) is not a multiple of LANES so the remainder loop
#: runs, and 2^18, whose spans all are
LINE_BLOCKED_SIZES = [20480, 24576, 28672, 1 << 18]


def _rng(n):
    rng = np.random.default_rng(1234 + n)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _rows_past_crossover(n):
    """Fewest rows of length ``n`` the executor hands to the C kernels."""

    return -(-executor._NATIVE_MIN_ELEMENTS // n)


def _batch(n, rows, seed=99):
    rng = np.random.default_rng(seed + n)
    return rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Rows of each call that reached a C driver (either entry point)."""

    calls = []
    for name in ("execute", "execute_into"):
        original = getattr(native_mod.NativeProgram, name)

        def counting(self, *args, _original=original):
            calls.append(args[0].shape[0])
            return _original(self, *args)

        monkeypatch.setattr(native_mod.NativeProgram, name, counting)
    return calls


class TestDifferentialEquivalence:
    """Native and pure lowerings must agree to near machine precision."""

    @needs_native
    @pytest.mark.parametrize("n", NATIVE_SIZES)
    def test_complex_forward_matches_pure(self, n, kernel_calls):
        rows = _rows_past_crossover(n)
        X = _batch(n, rows, seed=1234)
        pure = StageProgram(n).execute(X)
        native = StageProgram(n, native=True).execute(X)
        assert kernel_calls == [rows]
        assert np.allclose(native, pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    @pytest.mark.parametrize("n", LINE_BLOCKED_SIZES)
    def test_line_blocked_combines_match_pure(self, n, kernel_calls):
        program = get_program(n)
        assert {stage.radix for stage in program.stages} == {16}
        assert (program.stages[0].span % LANES != 0) == (n != 1 << 18)
        rows = _rows_past_crossover(n)
        X = _batch(n, rows, seed=5)
        pure = StageProgram(n).execute(X)
        # execute runs the twiddled codelet at every stage; execute_into
        # (three stages, an odd count) runs the plain one at the first
        outs = [program.execute(X), program.execute_into(X.copy(), np.empty_like(X))]
        assert kernel_calls == [rows, rows]
        for out in outs:
            assert np.allclose(out, pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    @pytest.mark.parametrize("n", [256, 1536, 4096])
    def test_batched_matches_pure(self, n, kernel_calls):
        rows = max(5, _rows_past_crossover(n))
        X = _batch(n, rows)
        pure = StageProgram(n).execute(X)
        native = StageProgram(n, native=True).execute(X)
        assert kernel_calls == [rows]
        assert np.allclose(native, pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    @pytest.mark.parametrize("n", [16, 192, 4096, 40960])
    def test_real_program_matches_pure(self, n, kernel_calls):
        rows = _rows_past_crossover(n // 2)
        xr = np.random.default_rng(7).standard_normal((rows, n))
        pure = RealStageProgram(n).execute(xr)
        native = RealStageProgram(n, native=True).execute(xr)
        assert kernel_calls == [rows]
        assert np.allclose(native, pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    @pytest.mark.parametrize("n", [16, 256, 3072, 4096])
    def test_inplace_stockham_matches_pure(self, n, kernel_calls):
        # half lengths 8, 128, 1536, 2048: zero, one (the C driver's odd
        # staging pass) and two combine stages
        rows = _rows_past_crossover(n // 2)
        X = _batch(n, rows, seed=1234)
        pure = StockhamStageProgram(n).execute(X)
        buf = np.array(X)
        StockhamStageProgram(n, native=True).execute_inplace(buf)
        assert kernel_calls and set(kernel_calls) == {rows}
        assert np.allclose(buf, pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    def test_bluestein_size_falls_back_but_matches(self):
        # 12289 is prime past the direct-DFT bound: Bluestein base, no
        # native lowering - the program must report why and still be right.
        n = 12289
        program = StageProgram(n, native=True)
        assert program.native is None
        assert "Bluestein" in program.native_fallback_reason
        x = _rng(n)
        pure = StageProgram(n).execute(x)
        assert np.allclose(program.execute(x), pure, atol=1e-12 * np.max(np.abs(pure)))

    @needs_native
    def test_plan_level_native_roundtrip(self, kernel_calls):
        n = 4096
        x = _rng(n)
        plan = plan_fft(n, backend="fftlib", native=True)
        reference = StageProgram(n).execute(x)
        spectrum = plan.execute(x)
        assert kernel_calls == [1]
        assert np.allclose(spectrum, reference, atol=1e-12 * np.max(np.abs(reference)))
        back = plan.inverse_plan().execute(spectrum)
        assert np.allclose(back, x, atol=1e-12 * np.max(np.abs(x)))


class TestDispatch:
    """Which calls the executor hands to the C kernels."""

    @needs_native
    @pytest.mark.parametrize("n", [16, 96, 1024, 4096, 24576])
    def test_codelet_and_small_generic_bases_lower_natively(self, n):
        assert get_program(n).native is not None

    @needs_native
    @pytest.mark.parametrize(
        "n, base",
        [
            (61, 61), (121, 11), (360, 45), (500, 20), (720, 45), (1000, 25),
            (2187, 27), (5040, 21), (6144, 24), (196608, 48),
        ],
    )
    def test_large_generic_bases_keep_numpy_bodies(self, n, base, kernel_calls):
        program = get_program(n)
        assert program.base == base and program.native is None
        assert f"generic base order {base}" in program.native_fallback_reason
        X = _batch(n, _rows_past_crossover(n))
        pure = StageProgram(n, native=False).execute(X)
        assert np.array_equal(program.execute(X), pure)
        assert kernel_calls == []

    def test_bases_the_kernels_run_combine_with_radix_16_only(self):
        # Why the C side needs no generic combine kernel: every schedule
        # whose base is a codelet or a small generic order combines with
        # unrolled radix-16 stages only.
        sizes = list(range(1, 8193)) + [3 << 16, 5 << 16, 7 << 16, 1 << 20]
        for n in sizes:
            base, radices = executor.lower(n)
            if base in native_mod.CODELET_RADICES or base <= GENERIC_BASE_MAX:
                assert set(radices) <= {16}, (n, base, radices)

    def test_generated_source_combines_with_radix_16_only(self):
        source = native_mod.generate_source()
        defined = set(re.findall(r"static void (\w+)\(", source))
        assert {name for name in defined if name.startswith("combine_")} == {
            "combine_16_tw",
            "combine_16_plain",
        }
        assert {f"base_{r}" for r in CODELET_RADICES} <= defined

    def test_other_combine_radices_fall_back_with_a_reason(self):
        program = StageProgram(4096)
        odd = SimpleNamespace(
            n=program.n,
            base=program.base,
            base_kind=program.base_kind,
            stages=[SimpleNamespace(radix=8)],
        )
        native, reason = build_native_program(odd)
        assert native is None and "combine radix 8" in reason

    @needs_native
    def test_calls_below_the_crossover_run_numpy_bodies(self, kernel_calls):
        n = 1024
        program = get_program(n)
        assert program.native is not None
        rows = _rows_past_crossover(n)
        assert rows >= 2
        X = np.stack([_rng(n) for _ in range(rows)])
        pure = StageProgram(n)
        assert np.array_equal(program.execute(X[0]), pure.execute(X[0]))
        assert kernel_calls == []
        out = program.execute(X)
        assert kernel_calls == [rows]
        assert np.allclose(out, pure.execute(X), atol=1e-12 * np.max(np.abs(out)))

    @needs_native
    def test_concurrent_first_calls_build_the_lowering_once(self):
        n, workers, rounds = 4096, 8, 20
        x = _rng(n)
        want = StageProgram(n).execute(x)
        results, errors = [], []

        def worker(program, barrier):
            try:
                barrier.wait(timeout=30)
                results.append(program.execute(x))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(rounds):
                program = StageProgram(n, native=True)
                barrier = threading.Barrier(workers)
                before = native_info()["programs_built"]
                threads = [
                    threading.Thread(target=worker, args=(program, barrier))
                    for _ in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert native_info()["programs_built"] == before + 1
        finally:
            sys.setswitchinterval(interval)
        assert not errors and len(results) == workers * rounds
        for got in results:
            assert np.allclose(got, want, atol=1e-12 * np.max(np.abs(want)))

    def test_library_loads_only_when_a_call_reaches_the_crossover(self, tmp_path):
        # A fresh kernel cache: calls below the crossover, sizes that keep
        # the NumPy bodies, and planning never load (or compile) the library.
        import json as _json

        probe = """
import json
import numpy as np
import repro
from repro.fftlib.executor import get_program
from repro.fftlib.native import cache_stats
from repro.fftlib.planner import plan_fft

x = np.arange(64) * (1.0 + 0.5j)
plan = repro.plan(64)
back = plan.inverse(plan.execute(x).output).output
plan_fft(4096)
for n in (720, 6144, 196608):
    program = get_program(n)
    program.execute(np.ones(n, dtype=complex))
    assert program.native_fallback_reason.startswith("generic base order")
stats = cache_stats()
print(json.dumps({"ok": bool(np.allclose(back, x)), "loaded": stats.loaded,
                  "compiles": stats.compiles, "disk_hits": stats.disk_hits}))
"""
        env = _probe_env(tmp_path / "cold")
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        report = _json.loads(done.stdout)
        assert report == {"ok": True, "loaded": False, "compiles": 0, "disk_hits": 0}


class TestGracefulFallback:
    """native=True must never fail - only degrade, with a reason."""

    def test_env_disable_forces_pure_lowering(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert not native_supported()
        assert "REPRO_NO_NATIVE" in native_unavailable_reason()
        program = StageProgram(4096, native=True)
        assert program.native is None
        assert "REPRO_NO_NATIVE" in program.native_fallback_reason
        x = _rng(4096)
        pure = StageProgram(4096).execute(x)
        assert np.allclose(program.execute(x), pure, atol=1e-12 * np.max(np.abs(pure)))

    def test_env_disable_is_not_sticky(self, monkeypatch):
        # Baseline with the kill switch absent (the outer test run may itself
        # set REPRO_NO_NATIVE, so HAVE_NATIVE is not the right reference).
        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        baseline = native_supported()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert not native_supported()
        monkeypatch.delenv("REPRO_NO_NATIVE")
        assert native_supported() == baseline

    def test_missing_compiler_reports_reason(self, monkeypatch):
        from repro.fftlib.native import cache

        monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
        monkeypatch.setattr(cache, "compiler_command", lambda: None)
        cache.reset_cache_state()
        try:
            assert not native_supported()
            reason = native_unavailable_reason()
            assert reason and "compiler" in reason
            program = StageProgram(256, native=True)
            assert program.native is None
            assert "compiler" in program.native_fallback_reason
            x = _rng(256)
            pure = StageProgram(256).execute(x)
            assert np.allclose(program.execute(x), pure, atol=1e-12 * np.max(np.abs(pure)))
        finally:
            monkeypatch.undo()
            cache.reset_cache_state()

    def test_get_native_kernels_raises_when_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        with pytest.raises(RuntimeError, match="REPRO_NO_NATIVE"):
            native_mod.get_native_kernels()

    def test_planner_keeps_request_and_reports_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        # The program LRU is process-wide: a 512-point program whose native
        # lowering an earlier test already resolved would report "native".
        executor.clear_program_cache()
        plan = Planner().plan(512, native=True)
        assert plan.native
        assert "native-fallback" in plan.describe()

    def test_foreign_backend_request_is_inert(self):
        plan = plan_fft(512, backend="numpy", native=True)
        assert not plan.native

    def test_native_info_counters(self):
        info = native_info()
        assert set(info) >= {
            "supported", "reason", "compiles", "disk_hits",
            "failures", "programs_built", "fallbacks",
        }
        assert info["supported"] == HAVE_NATIVE


class TestPlannerSurface:
    def test_wisdom_key_distinguishes_native(self):
        planner = Planner()
        a = planner.plan(256)
        b = planner.plan(256, native=False)
        assert a is not b and a.native and not b.native
        assert a is planner.plan(256, native=True)

    def test_wisdom_export_import_round_trip(self):
        planner = Planner()
        planner.plan(512)
        planner.plan(512, native=False)
        data = planner.export_wisdom()
        assert {"512:forward:fftlib", "512:forward:fftlib:pure"} <= set(data)
        fresh = Planner()
        fresh.import_wisdom(data)
        assert fresh.plan(512).native
        assert not fresh.plan(512, native=False).native
        # the retired ":nat" key part imports as the default plan
        legacy = Planner()
        legacy.import_wisdom({"256:forward:fftlib:nat": "native"})
        assert legacy.plan(256).native and len(legacy.wisdom) == 1


SUBPROCESS_PROBE = """
import json
import numpy as np
from repro.fftlib.executor import StageProgram
from repro.fftlib.native import native_info

program = StageProgram(4096, native=True)
x = np.arange(4096) * (1.0 + 0.5j)
got = program.execute(x)
assert program.native is not None
ref = StageProgram(4096).execute(x)
ok = bool(np.allclose(got, ref, atol=1e-12 * float(np.max(np.abs(ref)))))
info = native_info()
print(json.dumps({"ok": ok, "compiles": info["compiles"],
                  "disk_hits": info["disk_hits"], "supported": info["supported"]}))
"""


def _probe_env(cache_dir):
    import repro

    env = dict(os.environ)
    env["REPRO_NATIVE_CACHE"] = str(cache_dir)
    env.pop("REPRO_NO_NATIVE", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    return env


@needs_native
class TestKernelCacheAcrossProcesses:
    def test_second_process_reuses_compiled_kernel(self, tmp_path):
        import json as _json

        env = _probe_env(tmp_path / "cache")
        first = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_PROBE], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert first.returncode == 0, first.stderr
        report = _json.loads(first.stdout)
        assert report["ok"] and report["supported"]
        assert report["compiles"] == 1 and report["disk_hits"] == 0
        second = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_PROBE], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert second.returncode == 0, second.stderr
        report = _json.loads(second.stdout)
        assert report["ok"] and report["supported"]
        # cache hit: the shared object is loaded straight from disk
        assert report["compiles"] == 0 and report["disk_hits"] == 1

    def test_concurrent_first_compile_is_stampede_safe(self, tmp_path):
        import json as _json

        env = _probe_env(tmp_path / "stampede")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", SUBPROCESS_PROBE], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(4)
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            reports.append(_json.loads(out))
        # every racer must end up with a working tier and a correct result
        assert all(r["ok"] and r["supported"] for r in reports)
        # the atomic-rename discipline means racers either compiled their own
        # temp (then renamed over the same key) or hit the finished artifact
        assert all(r["compiles"] + r["disk_hits"] == 1 for r in reports)
