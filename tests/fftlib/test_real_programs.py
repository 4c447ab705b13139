"""Compiled real-input programs, real plans, backends, and wisdom persistence."""

import json

import numpy as np
import pytest

from repro.fftlib import executor
from repro.fftlib.backends import FFTBackend, get_backend
from repro.fftlib.executor import (
    StockhamStageProgram,
    get_program,
    get_real_program,
    irfft,
    rfft,
)
from repro.fftlib.plan import PlanDirection
from repro.fftlib.planner import Planner, plan_fft

EVEN_SIZES = [2, 4, 16, 48, 250, 1024]
ODD_SIZES = [3, 9, 15, 27, 81, 255]
PRIME_SIZES = [17, 31, 97, 211]

#: A wisdom snapshot in the format ``export_wisdom`` wrote before the thread
#: layer and the strategy race were removed: strategy names as per-key
#: values, a ``:t2`` thread-count key part, and the ``__measurements__`` /
#: ``__thread_measurements__`` / ``__programs__`` reserved entries, plus the
#: in-place race's ``__inplace_measurements__`` (recording a Stockham loss).
PRE_REMOVAL_SNAPSHOT = {
    "64:forward:fftlib": "mixed-radix",
    "8192:forward:fftlib:t2": "mixed-radix",
    "48:forward:fftlib:real": "mixed-radix",
    "1024:forward:fftlib:ip": "mixed-radix",
    "__measurements__": {
        "64": {"mixed-radix": 1.1e-04, "direct": 2.6e-04, "bluestein": 1.5e-04},
        "8192": {"mixed-radix": 9.5e-04, "bluestein": 2.8e-03},
    },
    "__thread_measurements__": {"8192:t2": {"serial": 2.3e-03, "threaded": 7.8e-04}},
    "__inplace_measurements__": {"1024": {"pingpong": 5.5e-05, "stockham": 8.5e-05}},
    "__programs__": {
        "64:forward:fftlib": "StageProgram(n=64, base=64[direct], combine=-)",
        "8192:forward:fftlib:t2": (
            "ThreadedSixStep(n=8192 = 128 x 64, threads=2, "
            "row=StageProgram(n=128, base=8[direct], combine=16), "
            "col=StageProgram(n=64, base=64[direct], combine=-))"
        ),
    },
}

#: The wisdom key each per-key entry of that snapshot imports to.
PRE_REMOVAL_KEYS = {
    "64:forward:fftlib": (64, PlanDirection.FORWARD, "fftlib", False, False, True),
    "8192:forward:fftlib:t2": (8192, PlanDirection.FORWARD, "fftlib", False, False, True),
    "48:forward:fftlib:real": (48, PlanDirection.FORWARD, "fftlib", True, False, True),
    "1024:forward:fftlib:ip": (1024, PlanDirection.FORWARD, "fftlib", False, True, True),
}


@pytest.fixture
def rng():
    return np.random.default_rng(20170712)


class TestRealStageProgram:
    @pytest.mark.parametrize("n", EVEN_SIZES + ODD_SIZES + PRIME_SIZES + [1])
    def test_rfft_matches_numpy(self, n, rng):
        x = rng.standard_normal(n)
        assert np.allclose(rfft(x), np.fft.rfft(x), atol=1e-10)

    @pytest.mark.parametrize("n", EVEN_SIZES + ODD_SIZES + PRIME_SIZES + [1])
    def test_round_trip(self, n, rng):
        x = rng.standard_normal(n)
        assert np.allclose(irfft(rfft(x), n), x, atol=1e-10)

    @pytest.mark.parametrize("n", [16, 27, 97, 250])
    def test_batched_leading_axes(self, n, rng):
        X = rng.standard_normal((3, 5, n))
        program = get_real_program(n)
        assert np.allclose(program.execute(X), np.fft.rfft(X, axis=-1), atol=1e-10)
        assert np.allclose(program.execute_inverse(program.execute(X)), X, atol=1e-10)

    def test_non_contiguous_input(self, rng):
        Y = rng.standard_normal((64, 4)).T  # last axis strided
        assert np.allclose(get_real_program(64).execute(Y), np.fft.rfft(Y, axis=-1), atol=1e-10)

    def test_even_length_uses_half_program(self):
        program = get_real_program(256)
        assert program.half == 128
        assert program.program is get_program(128)
        assert "packed" in program.describe()

    def test_odd_length_routes_through_compiled_program(self):
        # The seed's odd fallback re-entered the recursive engine; the
        # compiled path must reference the cached full-length program.
        program = get_real_program(81)
        assert program.half == 0
        assert program.program is get_program(81)
        assert "odd" in program.describe()

    def test_shared_lru_with_complex_programs(self):
        executor.clear_program_cache()
        get_real_program(48)
        info = executor.program_cache_info()
        # one real program + the half-length complex program it wraps
        assert info.size == 2
        assert get_real_program(48) is get_real_program(48)
        assert executor.program_cache_info().hits >= 1

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            get_real_program(16).execute(np.zeros(15))
        with pytest.raises(ValueError):
            get_real_program(16).execute_inverse(np.zeros(5, dtype=complex))

    def test_module_level_batched_rfft(self, rng):
        X = rng.standard_normal((4, 30))
        assert np.allclose(rfft(X), np.fft.rfft(X, axis=-1), atol=1e-10)


class TestRealPlans:
    @pytest.mark.parametrize("n", [48, 81, 256])
    def test_forward_and_inverse_plan(self, n, rng):
        x = rng.standard_normal(n)
        plan = plan_fft(n, real=True)
        assert plan.real and plan.bins == n // 2 + 1
        assert np.allclose(plan.execute(x), np.fft.rfft(x), atol=1e-10)
        inverse = plan.inverse_plan()
        assert inverse.real
        assert np.allclose(inverse.execute(plan.execute(x)), x, atol=1e-10)

    def test_real_plans_cached_separately(self):
        planner = Planner()
        assert planner.plan(64) is not planner.plan(64, real=True)
        assert planner.plan(64, real=True) is planner.plan(64, real=True)

    def test_shape_validation(self, rng):
        plan = plan_fft(32, real=True)
        with pytest.raises(ValueError):
            plan.execute(rng.standard_normal(31))
        with pytest.raises(ValueError):
            plan.inverse_plan().execute(np.zeros(32, dtype=complex))


class TestBackendRealTransforms:
    @pytest.mark.parametrize("name", ["fftlib", "numpy"])
    @pytest.mark.parametrize("n", [30, 33])
    def test_builtin_backends(self, name, n, rng):
        backend = get_backend(name)
        X = rng.standard_normal((4, n))
        assert np.allclose(backend.rfft(X, axis=-1), np.fft.rfft(X, axis=-1), atol=1e-10)
        assert np.allclose(backend.irfft(backend.rfft(X, axis=-1), n=n, axis=-1), X, atol=1e-10)
        # arbitrary axis
        assert np.allclose(backend.rfft(X, axis=0), np.fft.rfft(X, axis=0), atol=1e-10)

    def test_base_class_fallback_covers_third_party_backends(self, rng):
        class Fallback(FFTBackend):
            name = "fallback-test"

            def fft(self, x, axis=-1):
                return np.fft.fft(x, axis=axis)

            def ifft(self, x, axis=-1):
                return np.fft.ifft(x, axis=axis)

        backend = Fallback()
        for n in (8, 9):
            x = rng.standard_normal((2, n))
            assert np.allclose(backend.rfft(x), np.fft.rfft(x), atol=1e-10)
            assert np.allclose(backend.irfft(backend.rfft(x), n=n), x, atol=1e-10)


class TestWisdomPersistence:
    def test_export_describes_each_key(self):
        planner = Planner()
        planner.plan(64)
        planner.plan(48, real=True)
        data = planner.export_wisdom()
        assert data["64:forward:fftlib"] == planner.plan(64).program.describe()
        assert "RealStageProgram" in data["48:forward:fftlib:real"]
        assert not any(key in data for key in ("__measurements__", "__programs__"))
        # JSON-serialisable end to end
        json.dumps(data)

    def test_import_round_trip_restores_real_plans(self):
        planner = Planner()
        planner.plan(64)
        planner.plan(48, real=True)
        other = Planner()
        other.import_wisdom(planner.export_wisdom())
        key = (48, PlanDirection.FORWARD, "fftlib", True, False, True)
        assert key in other.wisdom
        restored = other.plan(48, real=True)
        assert restored is other.wisdom[key]
        assert restored.real

    def test_legacy_flat_formats_still_accepted(self):
        planner = Planner()
        planner.import_wisdom({"16:forward": "mixed-radix"})
        key = (16, PlanDirection.FORWARD, "fftlib", False, False, True)
        assert planner.plan(16) is planner.wisdom[key]
        planner.import_wisdom({"32:backward:numpy": "mixed-radix"})
        key = (32, PlanDirection.BACKWARD, "numpy", False, False, False)
        assert planner.plan(32, PlanDirection.BACKWARD, "numpy") is planner.wisdom[key]

    def test_snapshot_from_before_thread_removal_imports_serial_plans(self):
        planner = Planner()
        planner.import_wisdom(json.loads(json.dumps(PRE_REMOVAL_SNAPSHOT)))
        # the :t2 key lands on the serial key and lowers to the serial program
        serial = planner.plan(8192)
        assert serial is planner.wisdom[(8192, PlanDirection.FORWARD, "fftlib", False, False, True)]
        assert serial.program is get_program(8192)
        assert not hasattr(serial, "threads")
        x = np.random.default_rng(8).standard_normal(8192) + 0j
        assert np.allclose(serial.execute(x), np.fft.fft(x))
        # the recorded timings are ignored: the in-place key lowers to Stockham
        inplace = planner.plan(1024, inplace=True)
        assert inplace.inplace
        assert isinstance(inplace.program, StockhamStageProgram)
        exported = planner.export_wisdom()
        assert not any(key.startswith("__") for key in exported)
        assert not any(":t" in key for key in exported)

    @pytest.mark.parametrize("key", list(PRE_REMOVAL_KEYS))
    def test_each_pre_removal_key_imports_to_a_working_plan(self, key):
        expected = PRE_REMOVAL_KEYS[key]
        planner = Planner()
        planner.import_wisdom({key: PRE_REMOVAL_SNAPSHOT[key]})
        assert list(planner.wisdom) == [expected]
        plan = planner.wisdom[expected]
        n = expected[0]
        rng = np.random.default_rng(n)
        if plan.real:
            x = rng.standard_normal(n)
            want = np.fft.rfft(x)
        else:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            want = np.fft.fft(x)
        assert np.allclose(plan.execute(x), want)

    def test_measurement_entries_import_as_no_ops(self):
        # Earlier planners raced lowerings and stored the timings under
        # reserved keys; these all favour the other lowering, and none of
        # them changes what a key lowers to.
        snapshot = {
            "1024:forward:fftlib:ip": "stockham",
            "4096:forward:fftlib": "native",
            "2048:forward:fftlib:nat": "native",
            "__inplace_measurements__": {"1024": {"pingpong": 1e-06, "stockham": 1.0}},
            "__fused_measurements__": {"4096": {"fused": 1.0, "scheme": 1e-06}},
            "__native_measurements__": {"4096": {"native": 1.0, "numpy": 1e-06}},
        }
        planner = Planner()
        planner.import_wisdom(json.loads(json.dumps(snapshot)))
        inplace = planner.wisdom[(1024, PlanDirection.FORWARD, "fftlib", False, True, True)]
        assert isinstance(inplace.program, StockhamStageProgram)
        default = planner.wisdom[(4096, PlanDirection.FORWARD, "fftlib", False, False, True)]
        assert default.native and default.program is get_program(4096)
        assert (2048, PlanDirection.FORWARD, "fftlib", False, False, True) in planner.wisdom
        assert not any(key.startswith("__") for key in planner.export_wisdom())
        for plan in planner.wisdom.values():
            x = np.random.default_rng(plan.n).standard_normal(plan.n) + 0j
            assert np.allclose(plan.execute(x), np.fft.fft(x))
