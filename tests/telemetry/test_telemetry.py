"""Unit tests for the telemetry subsystem: trace ring, metrics registry,
Prometheus export, profile formatting, and the top-level info surfaces."""

import json
import threading

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.telemetry import trace
from repro.telemetry.metrics import Registry
from repro.telemetry.profile import ProfileEntry, ProfileResult


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled and the ring empty."""

    telemetry.disable_trace()
    telemetry.clear_events()
    yield
    telemetry.disable_trace()
    telemetry.clear_events()


class TestTrace:
    def test_disabled_by_default(self):
        assert trace.active is False
        assert telemetry.trace_path() is None

    def test_enable_disable_toggles_gate(self):
        telemetry.enable_trace()
        assert trace.active is True
        telemetry.disable_trace()
        assert trace.active is False

    def test_events_land_in_ring(self):
        telemetry.enable_trace()
        telemetry.emit("unit-test", value=7)
        records = telemetry.events("unit-test")
        assert len(records) == 1
        assert records[0]["value"] == 7
        assert records[0]["event"] == "unit-test"
        assert "seq" in records[0] and "ts" in records[0]

    def test_kind_filter(self):
        telemetry.enable_trace()
        telemetry.emit("alpha")
        telemetry.emit("beta")
        assert [r["event"] for r in telemetry.events("beta")] == ["beta"]
        assert len(telemetry.events()) == 2

    def test_event_may_carry_its_own_kind_field(self):
        # the `fallback` events do: emit's first parameter is positional-only
        telemetry.enable_trace()
        telemetry.emit("fallback", kind="native", reason="no compiler")
        record = telemetry.events("fallback")[0]
        assert record["kind"] == "native"

    def test_ring_is_bounded(self):
        telemetry.enable_trace(ring_capacity=4)
        for i in range(10):
            telemetry.emit("tick", i=i)
        records = telemetry.events("tick")
        assert len(records) == 4
        assert [r["i"] for r in records] == [6, 7, 8, 9]

    def test_clear_events(self):
        telemetry.enable_trace()
        telemetry.emit("x")
        telemetry.clear_events()
        assert telemetry.events() == []

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry.enable_trace(str(path))
        assert telemetry.trace_path() == str(path)
        telemetry.emit("sink-test", n=4096)
        telemetry.disable_trace()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "sink-test"
        assert record["n"] == 4096
        assert telemetry.trace_path() is None

    def test_non_json_fields_are_stringified(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry.enable_trace(str(path))
        telemetry.emit("odd", arr=np.arange(3))
        telemetry.disable_trace()
        record = json.loads(path.read_text(encoding="utf-8"))
        assert isinstance(record["arr"], str)


class TestRegistry:
    def test_inc_and_merge_labels(self):
        reg = Registry()
        reg.inc("hits")
        reg.inc("hits", 2)
        reg.inc("faults", site="input", scheme="online")
        reg.inc("faults", scheme="online", site="input")  # label order irrelevant
        merged = reg.counters()
        assert merged[("hits", ())] == 3
        assert merged[("faults", (("scheme", "online"), ("site", "input")))] == 2

    def test_counters_merge_across_threads(self):
        reg = Registry()

        def worker():
            for _ in range(1000):
                reg.inc("shared", worker="yes")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counters()[("shared", (("worker", "yes"),))] == 8000

    def test_gauges(self):
        reg = Registry()
        reg.set_gauge("depth", 3)
        assert reg.gauges() == {"depth": 3.0}

    def test_collector_error_is_isolated(self):
        reg = Registry()

        def broken():
            raise RuntimeError("down")

        reg.register_collector("broken", broken)
        reg.register_collector("fine", lambda: {"ok": 1})
        surfaces = reg.collect()
        assert surfaces["fine"] == {"ok": 1}
        assert "RuntimeError" in surfaces["broken"]["error"]

    def test_snapshot_shape(self):
        reg = Registry()
        reg.inc("c", kind="a")
        reg.set_gauge("g", 1.5)
        reg.register_collector("surf", lambda: {"size": 2})
        snap = reg.snapshot()
        assert snap["counters"] == {'c{kind="a"}': 1}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["caches"] == {"surf": {"size": 2}}
        json.loads(reg.to_json())  # snapshot must be JSON-serializable

    def test_reset_zeroes_counters_keeps_collectors(self):
        reg = Registry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.register_collector("surf", lambda: {"size": 2})
        reg.reset()
        assert reg.counters() == {}
        assert reg.gauges() == {}
        assert reg.collect() == {"surf": {"size": 2}}

    def test_render_prometheus_format(self):
        reg = Registry()
        reg.inc("plan_hits", backend="fftlib")
        reg.set_gauge("workers", 4)
        reg.register_collector("pool", lambda: {"size": 2, "running": True})
        text = reg.render_prometheus()
        assert "# TYPE repro_plan_hits_total counter" in text
        assert 'repro_plan_hits_total{backend="fftlib"} 1' in text
        assert "# TYPE repro_workers gauge" in text
        assert "repro_workers 4.0" in text
        assert "repro_pool_size 2" in text
        assert "repro_pool_running 1" in text  # bools coerce to ints
        assert text.endswith("\n")


class TestProcessWideSurfaces:
    def test_snapshot_folds_every_info_surface(self):
        caches = telemetry.snapshot()["caches"]
        assert {"plan_cache", "program_cache", "twiddle_cache", "native"} <= set(caches)
        for surface in caches.values():
            assert "error" not in surface, surface

    def test_native_cache_info_matches_snapshot_surface(self):
        info = repro.native_cache_info()
        assert isinstance(info, dict)
        assert set(info) == set(telemetry.snapshot()["caches"]["native"])

    def test_execute_records_abft_counters(self):
        n = 256
        p = repro.plan(n)
        x = np.random.default_rng(3).standard_normal(n) + 0j
        before = sum(
            v for (name, _), v in telemetry.counters().items()
            if name == "abft_verifications"
        )
        report = p.execute(x).report
        after = sum(
            v for (name, _), v in telemetry.counters().items()
            if name == "abft_verifications"
        )
        assert after - before == report.counters.get("verifications", 0)
        assert report.counters.get("verifications", 0) >= 1


class TestProfile:
    def test_format_lists_entries_and_total(self):
        result = ProfileResult(
            n=8,
            description="toy",
            entries=(ProfileEntry("alpha", 0.75), ProfileEntry("beta", 0.25)),
            total_seconds=1.0,
            output=None,
        )
        text = result.format()
        assert "toy" in text
        assert "alpha" in text and "beta" in text
        assert "75.0%" in text and "25.0%" in text

    def test_plan_profile_entries_sum_to_total(self):
        from repro.fftlib.planner import plan_fft

        n = 256
        p = plan_fft(n)
        x = np.random.default_rng(5).standard_normal(n) + 0j
        p.execute(x)  # warm caches before the timed run
        result = p.program.profile(x)
        assert result.n == n
        assert result.entries, "compiled plans must expose per-stage entries"
        assert sum(e.seconds for e in result.entries) == pytest.approx(
            result.total_seconds, rel=1e-6
        )
        np.testing.assert_allclose(result.output, np.fft.fft(x), rtol=1e-8, atol=1e-8)

    def test_ftplan_profile_includes_protection_phases(self):
        n = 256
        p = repro.plan(n)
        x = np.random.default_rng(7).standard_normal(n) + 0j
        p.execute(x)
        result = p.profile(x)
        labels = " ".join(e.label for e in result.entries)
        assert "verification" in labels or "protection" in labels or "protected" in labels
        assert sum(e.seconds for e in result.entries) == pytest.approx(
            result.total_seconds, rel=1e-6
        )
        np.testing.assert_allclose(result.output, np.fft.fft(x), rtol=1e-8, atol=1e-8)


class TestConcurrentExecuteCounters:
    def test_counters_from_concurrent_workers_merge_exactly(self):
        """8 concurrent execute_many workers: the merged registry delta for
        ``abft_verifications`` equals the sum of the per-report
        ``verifications`` counters - the sharded registry loses nothing
        under contention."""

        n = 256
        workers = 8
        iterations = 5
        p = repro.plan(n)
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, n)) + 0j
        p.execute_many(X)  # warm plan/program caches outside the timed region

        def delta_basis():
            return sum(
                v for (name, _), v in telemetry.counters().items()
                if name == "abft_verifications"
            )

        before = delta_basis()
        reports = []
        reports_lock = threading.Lock()
        barrier = threading.Barrier(workers)

        def worker():
            barrier.wait()
            local = []
            for _ in range(iterations):
                local.append(p.execute_many(X.copy()).report)
            with reports_lock:
                reports.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected = sum(r.counters.get("verifications", 0) for r in reports)
        assert expected == workers * iterations * len(X)
        assert delta_basis() - before == expected
