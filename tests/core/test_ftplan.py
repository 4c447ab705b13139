"""Tests for the plan-centric API: FTConfig, repro.plan, FTPlan, batching."""

import dataclasses
import threading

import numpy as np
import pytest

import repro
from repro.core.config import FTConfig, legacy_scheme_names
from repro.core.ftplan import (
    FTPlan,
    clear_plan_cache,
    plan,
    plan_cache_info,
    set_plan_cache_limit,
)
from repro.core.base import OptimizationFlags
from repro.core.thresholds import ThresholdPolicy
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite

ALL_NAMES = list(legacy_scheme_names())
PROTECTED_NAMES = [name for name in ALL_NAMES if name != "fftw"]
MEMORY_FT_NAMES = [name for name in PROTECTED_NAMES if name.endswith("+mem")]
COMP_ONLY_NAMES = [name for name in PROTECTED_NAMES if not name.endswith("+mem")]


def _complex_batch(batch, n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from plan-cache state (and restore the limit)."""

    clear_plan_cache()
    set_plan_cache_limit(32)
    yield
    clear_plan_cache()
    set_plan_cache_limit(32)


class TestFTConfig:
    def test_default_is_the_papers_scheme(self):
        config = FTConfig()
        assert config.to_name() == "opt-online+mem"

    @pytest.mark.parametrize("name", list(legacy_scheme_names()))
    def test_from_name_round_trips_every_legacy_name(self, name):
        assert FTConfig.from_name(name).to_name() == name

    def test_from_name_unknown(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            FTConfig.from_name("nope")

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            FTConfig(kind="quantum")

    def test_plain_has_no_variants(self):
        with pytest.raises(ValueError, match="plain"):
            FTConfig(kind="plain", optimized=True, memory_ft=False)
        with pytest.raises(ValueError, match="plain"):
            FTConfig(kind="plain", optimized=False, memory_ft=True)

    def test_invalid_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            FTConfig(dtype="float64")

    def test_dtype_normalised(self):
        assert FTConfig(dtype=np.complex64).dtype == "complex64"

    def test_invalid_factor(self):
        with pytest.raises(ValueError, match="positive integer"):
            FTConfig(m=-4)

    def test_hashable_with_policy_and_flags(self):
        config = FTConfig(thresholds=ThresholdPolicy(), flags=OptimizationFlags(group_size=8))
        assert hash(config) == hash(config.replace())

    def test_build_respects_factors_and_backend(self):
        scheme = FTConfig.from_name("opt-online+mem", m=64, k=8, backend="numpy").build(512)
        assert (scheme.m, scheme.k) == (64, 8)
        assert scheme.plan.backend == "numpy"

    def test_legacy_scheme_names_cover_the_registry(self):
        assert {"fftw", "offline", "opt-offline", "online", "opt-online",
                "offline+mem", "opt-offline+mem", "online+mem",
                "opt-online+mem"} <= set(legacy_scheme_names())

    def test_build_forwards_constructor_kwargs(self):
        scheme = FTConfig.from_name("opt-online+mem").build(512, m=64, k=8)
        assert (scheme.m, scheme.k) == (64, 8)

    def test_thresholds_and_flags_execute(self, random_complex, spectra_close):
        config = FTConfig(thresholds=ThresholdPolicy(), flags=OptimizationFlags(group_size=8))
        x = random_complex(256)
        spectra_close(plan(256, config).execute(x).output, np.fft.fft(x))

    def test_build_every_kind_executes(self, random_complex, spectra_close):
        x = random_complex(128)
        for name in legacy_scheme_names():
            scheme = FTConfig.from_name(name).build(128)
            spectra_close(scheme.execute(x).output, np.fft.fft(x))

    @pytest.mark.parametrize(
        "name",
        ["opt-online+mem+t4", "opt-online+mem+real+t2", "fftw+t0", "opt-online+mem+ip+t2"],
    )
    def test_thread_count_suffix_is_an_unknown_name(self, name):
        # Names written with a thread-count suffix get the outcome of any
        # other unknown name rather than silently planning something else.
        with pytest.raises(KeyError, match="unknown scheme"):
            FTConfig.from_name(name)

    def test_config_and_plan_carry_no_thread_count(self):
        assert "threads" not in {field.name for field in dataclasses.fields(FTConfig)}
        assert not hasattr(plan(64), "threads")


class TestPlanCache:
    def test_repeated_calls_return_same_object(self):
        p = plan(256)
        assert plan(256) is p
        assert plan(256, FTConfig()) is p

    def test_distinct_configs_get_distinct_plans(self):
        assert plan(256) is not plan(256, "opt-offline")
        assert plan(256) is not plan(256, backend="numpy")
        assert plan(256) is not plan(512)

    def test_hit_miss_accounting(self):
        plan(128)
        plan(128)
        plan(64)
        info = plan_cache_info()
        assert info.hits == 1 and info.misses == 2 and info.size == 2

    def test_lru_eviction(self):
        set_plan_cache_limit(2)
        first = plan(64)
        plan(128)
        plan(64)          # refresh 64 -> 128 is now least recently used
        plan(256)          # evicts 128
        assert plan(64) is first
        info = plan_cache_info()
        assert info.size == 2
        old_misses = plan_cache_info().misses
        plan(128)          # was evicted: must be rebuilt
        assert plan_cache_info().misses == old_misses + 1

    def test_clear(self):
        p = plan(64)
        clear_plan_cache()
        assert plan(64) is not p

    def test_string_and_override_configs(self):
        a = plan(128, "opt-online", backend="numpy")
        b = plan(128, FTConfig.from_name("opt-online", backend="numpy"))
        assert a is b

    def test_default_backend_resolved_into_cache_key(self):
        assert plan(128) is plan(128, backend="fftlib")
        repro.set_default_backend("numpy")
        try:
            p = plan(128)
            assert p.backend == "numpy"
            assert p is plan(128, backend="numpy")
            assert p is not plan(128, backend="fftlib")
        finally:
            repro.set_default_backend("fftlib")

    @pytest.mark.parametrize("config", [None, "opt-online+mem", FTConfig(kind="offline")])
    def test_hit_constructs_no_config(self, monkeypatch, config):
        first = plan(256, config)
        built = []
        post_init = FTConfig.__post_init__
        monkeypatch.setattr(
            FTConfig, "__post_init__", lambda self: built.append(1) or post_init(self)
        )
        hits = plan_cache_info().hits
        assert plan(256, config) is first and plan(256, config) is first
        assert not built
        assert plan_cache_info().hits == hits + 2
        # overrides still resolve a config, to the same cached plan
        assert plan(256, config, backend="fftlib") is first and built

    def test_a_hit_follows_the_current_default_backend(self):
        fftlib = plan(128, "opt-online+mem")
        repro.set_default_backend("numpy")
        try:
            numpy = plan(128, "opt-online+mem")
            assert numpy.backend == "numpy" and numpy is not fftlib
        finally:
            repro.set_default_backend("fftlib")
        assert plan(128, "opt-online+mem") is fftlib

    def test_bad_config_type(self):
        with pytest.raises(TypeError, match="config"):
            plan(64, 3.14)

    def test_thread_safety_returns_one_instance(self):
        results = []

        def worker():
            results.append(plan(1024))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(p) for p in results}) == 1


class TestFTPlanExecution:
    def test_execute_matches_numpy(self, random_complex, spectra_close):
        p = plan(400)
        x = random_complex(400)
        spectra_close(p.execute(x).output, np.fft.fft(x))

    def test_inverse_round_trip(self, random_complex, spectra_close):
        p = plan(1024)
        x = random_complex(1024)
        spectra_close(p.inverse(p.execute(x).output).output, x, rtol_scale=1e-8)

    def test_inverse_round_trip_under_fault_injection(self, random_complex, spectra_close):
        p = plan(512)
        x = random_complex(512)
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=9.0)
        result = p.inverse(np.fft.fft(x), injector)
        assert result.report.detected
        assert not result.report.has_uncorrectable
        spectra_close(result.output, x, rtol_scale=1e-8)

    def test_dtype_cast(self, random_complex):
        p = plan(128, dtype="complex64")
        x = random_complex(128)
        assert p.execute(x).output.dtype == np.complex64
        assert p.execute_many(np.stack([x, x])).output.dtype == np.complex64

    def test_uncached_direct_construction(self, random_complex, spectra_close):
        p = FTPlan(128, "opt-offline")
        x = random_complex(128)
        spectra_close(p.execute(x).output, np.fft.fft(x))
        assert plan_cache_info().size == 0

    def test_default_plan_reports_the_papers_scheme(self, random_complex, spectra_close):
        x = random_complex(256)
        result = repro.plan(256).execute(x)
        spectra_close(result.output, np.fft.fft(x))
        assert result.scheme == "opt-online+mem"

    def test_named_scheme_detects_an_injected_fault(self, random_complex, spectra_close):
        x = random_complex(256)
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, magnitude=5.0)
        result = plan(256, "opt-online").execute(x, injector)
        spectra_close(result.output, np.fft.fft(x))
        assert result.detected

    def test_inverse_matches_numpy(self, random_complex, spectra_close):
        x = random_complex(1024)
        spectra_close(plan(1024).inverse(np.fft.fft(x)).output, x, rtol_scale=1e-8)

    def test_round_trip_at_a_non_power_of_two(self, random_complex, spectra_close):
        p = plan(400)
        x = random_complex(400)
        spectra_close(p.inverse(p.execute(x).output).output, x, rtol_scale=1e-8)

    def test_plan_is_reusable_across_inputs(self, random_complex, spectra_close):
        p = plan(128)
        for _ in range(4):
            x = random_complex(128)
            spectra_close(p.execute(x).output, np.fft.fft(x))

    def test_explicit_factors_reach_the_scheme(self):
        p = plan(512, m=64, k=8)
        assert (p.m, p.k) == (64, 8)
        assert (p.scheme.m, p.scheme.k) == (64, 8)

    def test_describe_names_the_scheme(self):
        assert "opt-online+mem" in plan(64).describe()


class TestEveryScheme:
    """Each legacy scheme name plans, transforms and batches correctly."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_execute_and_inverse_round_trip(self, name, random_complex, spectra_close):
        p = plan(384, name)
        x = random_complex(384)
        forward = p.execute(x)
        spectra_close(forward.output, np.fft.fft(x))
        spectra_close(p.inverse(forward.output).output, x, rtol_scale=1e-8)
        assert not forward.detected

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_execute_many_matches_numpy_and_looped_execute(self, name, spectra_close):
        n, batch = 1024, 10
        X = _complex_batch(batch, n)
        p = plan(n, name)
        result = p.execute_many(X)
        spectra_close(result.output, np.fft.fft(X, axis=-1))
        spectra_close(result.output, np.stack([p.execute(row).output for row in X]))
        assert not result.detected
        assert result.fallback_rows == ()

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_out_buffer_holds_the_same_spectra(self, name):
        n = 1024
        X = _complex_batch(5, n, seed=12)
        p = plan(n, name)
        fresh = p.execute_many(X)
        buffer = np.empty_like(X)
        written = p.execute_many(X, out=buffer)
        assert written.output is buffer
        assert np.array_equal(buffer, fresh.output)
        assert written.fallback_rows == ()


class TestExecuteMany:
    def test_batch_matches_per_row_fft(self, rng, spectra_close):
        p = plan(4096)
        X = rng.standard_normal((64, 4096)) + 1j * rng.standard_normal((64, 4096))
        batch = p.execute_many(X)
        spectra_close(batch.output, np.fft.fft(X, axis=-1))
        # clean input: everything verified in the vectorized path, no fallback
        assert batch.fallback_rows == ()
        assert not batch.detected
        assert batch.report.counters["verifications"] == 64

    def test_batch_matches_looped_execute(self, rng, spectra_close):
        p = plan(256)
        X = rng.standard_normal((8, 256)) + 1j * rng.standard_normal((8, 256))
        batch = p.execute_many(X)
        looped = np.stack([p.execute(row).output for row in X])
        spectra_close(batch.output, looped)

    def test_axis_argument(self, rng, spectra_close):
        p = plan(128)
        X = rng.standard_normal((128, 5)) + 1j * rng.standard_normal((128, 5))
        batch = p.execute_many(X, axis=0)
        assert batch.output.shape == (128, 5)
        spectra_close(batch.output, np.fft.fft(X, axis=0))

    def test_single_vector_input(self, rng, spectra_close):
        p = plan(64)
        x = rng.standard_normal(64) + 0j
        batch = p.execute_many(x)
        spectra_close(batch.output, np.fft.fft(x))

    def test_wrong_length_rejected(self, rng):
        p = plan(64)
        with pytest.raises(ValueError, match="expected 64"):
            p.execute_many(rng.standard_normal((4, 65)) + 0j)

    def test_does_not_mutate_caller_array(self, rng):
        p = plan(128)
        X = rng.standard_normal((4, 128)) + 0j
        before = X.copy()
        injector = FaultInjector().arm_bitflip(FaultSite.INPUT, bit=60)
        p.execute_many(X, injector=injector)
        np.testing.assert_array_equal(X, before)

    def test_retry_budget_matches_wrapped_scheme(self):
        p = plan(64)
        assert p._max_retries == p.scheme.flags.max_retries
        offline = plan(64, "opt-offline+mem")
        assert offline._max_retries == offline.scheme.max_retries

    def test_input_fault_repaired_when_n_divisible_by_3(self, rng, spectra_close):
        # 3 | n makes the closed-form rA vector nearly degenerate, so the
        # end-to-end computational residual alone is blind to input faults;
        # the vectorized memory verification (classic locating pair via the
        # memory_weights_modified guard) must catch and repair them.
        p = plan(384)
        X = rng.standard_normal((8, 384)) + 1j * rng.standard_normal((8, 384))
        reference = np.fft.fft(X, axis=-1)
        injector = FaultInjector().arm_bitflip(FaultSite.INPUT, bit=60)
        batch = p.execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert batch.detected and batch.corrected
        assert not batch.uncorrectable
        spectra_close(batch.output, reference, rtol_scale=1e-8)

    def test_input_memory_fault_detected_and_repaired(self, rng, spectra_close):
        p = plan(1024)
        X = rng.standard_normal((16, 1024)) + 1j * rng.standard_normal((16, 1024))
        reference = np.fft.fft(X, axis=-1)
        injector = FaultInjector().arm_bitflip(FaultSite.INPUT, bit=61)
        batch = p.execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert batch.detected and batch.corrected
        assert len(batch.fallback_rows) == 1
        assert not batch.uncorrectable
        spectra_close(batch.output, reference, rtol_scale=1e-8)

    def test_unprotected_plain_batch(self, rng, spectra_close):
        p = plan(256, "fftw")
        X = rng.standard_normal((6, 256)) + 0j
        batch = p.execute_many(X)
        spectra_close(batch.output, np.fft.fft(X, axis=-1))
        assert "verifications" not in batch.report.counters

    @pytest.mark.parametrize("name", ["fftw", "fftw+numpy"])
    @pytest.mark.parametrize("n", [384, 4096, 65536])
    def test_unprotected_single_call_is_a_batch_row(self, name, n, rng, spectra_close):
        """An unprotected plan runs the kernel's unchecked route, not PlainFFT:
        a single call equals a one-row batch bitwise, and inverts it."""

        p = plan(n, name)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        forward = p.execute(x)
        np.testing.assert_array_equal(forward.output, p.execute_many(x[None]).output[0])
        spectra_close(forward.output, np.fft.fft(x))
        back = p.inverse(forward.output)
        spectra_close(back.output, x, rtol_scale=1e-8)
        assert "verifications" not in forward.report.counters
        assert "verifications" not in back.report.counters

    def test_unprotected_live_injector_still_takes_the_plain_scheme(self, rng):
        p = plan(1024, "fftw")
        x = rng.standard_normal(1024) + 0j
        injector = FaultInjector().arm_computational(FaultSite.STAGE1_COMPUTE, index=3)
        p.execute(x, injector)
        assert injector.fired_count == 1  # an interior site only the scheme visits

    def test_numpy_backend_batch(self, rng, spectra_close):
        p = plan(512, backend="numpy")
        X = rng.standard_normal((8, 512)) + 0j
        spectra_close(p.execute_many(X).output, np.fft.fft(X, axis=-1))


class TestBatchFaultRecovery:
    """One fault in a batch is located to its row and repaired there."""

    @pytest.mark.parametrize("name", PROTECTED_NAMES)
    def test_output_fault_is_located_to_its_row_and_corrected(self, name):
        n, row = 1024, 5
        X = _complex_batch(8, n, seed=13)
        injector = FaultInjector().arm_memory(
            site=FaultSite.OUTPUT, element=row * n + 17, magnitude=300.0
        )
        result = plan(n, name).execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert result.detected and not result.uncorrectable
        assert result.fallback_rows == (row,)
        assert np.allclose(result.output, np.fft.fft(X, axis=-1))

    def test_unpinned_output_fault_strikes_exactly_once(self):
        n = 1024
        X = _complex_batch(8, n, seed=14)
        injector = FaultInjector().arm_memory(site=FaultSite.OUTPUT, magnitude=300.0)
        result = plan(n).execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert len(result.fallback_rows) == 1
        assert not result.uncorrectable
        assert np.allclose(result.output, np.fft.fft(X, axis=-1))

    @pytest.mark.parametrize("name", MEMORY_FT_NAMES)
    def test_input_fault_is_repaired(self, name):
        n, row = 1024, 2
        X = _complex_batch(8, n, seed=15)
        injector = FaultInjector().arm_memory(
            site=FaultSite.INPUT, element=row * n + 5, magnitude=200.0
        )
        result = plan(n, name).execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert result.fallback_rows == (row,)
        assert not result.uncorrectable
        assert np.allclose(result.output, np.fft.fft(X, axis=-1))

    @pytest.mark.parametrize("name", COMP_ONLY_NAMES)
    def test_input_fault_without_memory_ft_is_reported_not_hidden(self, name):
        # Without locating checksums the corrupted input is transformed
        # faithfully; the end-to-end check must still flag the row rather
        # than return a silently wrong spectrum.
        n, row = 1024, 2
        X = _complex_batch(8, n, seed=15)
        injector = FaultInjector().arm_memory(
            site=FaultSite.INPUT, element=row * n + 5, magnitude=200.0
        )
        result = plan(n, name).execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert result.detected
        assert result.uncorrectable_rows == (row,)

    def test_real_output_fault_in_one_row_recovered(self):
        n, row = 1024, 1
        X = np.random.default_rng(16).standard_normal((8, n))
        p = plan(n, real=True)
        injector = FaultInjector().arm_memory(
            site=FaultSite.OUTPUT, element=row * p.bins + 40, magnitude=250.0
        )
        result = p.execute_many(X, injector=injector)
        assert injector.fired_count == 1
        assert result.fallback_rows == (row,)
        assert not result.uncorrectable
        assert np.allclose(result.output, np.fft.rfft(X, axis=-1))

    def test_repeated_batches_are_bitwise_identical(self):
        n = 1024
        X = _complex_batch(6, n, seed=5)
        p = plan(n)
        first = p.execute_many(X).output
        for _ in range(3):
            assert np.array_equal(first, p.execute_many(X).output)


@dataclasses.dataclass
class _ThreadRecorder(FaultInjector):
    """An unarmed live injector that notes which threads visit fault sites."""

    visitors: set = dataclasses.field(default_factory=set)

    def visit(self, site, array, *, index=None, rank=None):
        self.visitors.add(threading.get_ident())
        return super().visit(site, array, index=index, rank=rank)


class TestRunsOnTheCallersThread:
    """The library has no worker pool: every call runs where it is made."""

    @pytest.mark.parametrize(
        "call", ["execute", "inverse", "execute_many", "execute_many_out", "real_execute_many"]
    )
    def test_fault_sites_are_visited_on_the_calling_thread(self, call):
        n = 4096
        X = _complex_batch(4, n, seed=3)
        recorder = _ThreadRecorder()
        p = plan(n, real=call.startswith("real"))
        if call == "execute":
            result = p.execute(X[0], recorder)
        elif call == "inverse":
            result = p.inverse(X[0], recorder)
        elif call == "execute_many":
            result = p.execute_many(X, injector=recorder)
        elif call == "execute_many_out":
            result = p.execute_many(X, injector=recorder, out=np.empty_like(X))
        else:
            result = p.execute_many(X.real, injector=recorder)
        assert not result.detected
        assert recorder.visitors == {threading.get_ident()}


class TestConcurrentPlanning:
    def test_many_threads_same_key_get_one_plan(self):
        clear_plan_cache()
        results = []
        barrier = threading.Barrier(8, timeout=30)

        def fetch():
            barrier.wait()
            results.append(repro.plan(1536, "opt-offline"))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(results) == 8
        assert all(p is results[0] for p in results)
        info = plan_cache_info()
        assert info.misses == 1

    def test_concurrent_distinct_sizes(self):
        clear_plan_cache()
        sizes = [512, 768, 1024, 1280, 1536, 2048]
        plans = {}
        lock = threading.Lock()

        def fetch(n):
            p = repro.plan(n, "opt-online+mem")
            with lock:
                plans.setdefault(n, []).append(p)

        threads = [
            threading.Thread(target=fetch, args=(n,)) for n in sizes for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for n in sizes:
            assert len(plans[n]) == 3
            assert all(p is plans[n][0] for p in plans[n])
            x = np.random.default_rng(n).standard_normal(n) + 0j
            assert np.allclose(plans[n][0].execute(x).output, np.fft.fft(x))

    def test_concurrent_executions_share_one_plan(self):
        shared = plan(1024)
        X = np.random.default_rng(31).standard_normal((6, 1024)) + 0j
        ref = np.fft.fft(X, axis=-1)
        errors = []

        def work():
            try:
                out = shared.execute_many(X)
                assert np.allclose(out.output, ref)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(6)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
