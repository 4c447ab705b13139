"""The in-process workload, ``large``: one caller thread making protected
round trips through ``FTPlan.execute`` and ``FTPlan.inverse``."""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import numpy as np

from common import (
    Tally,
    counter_totals,
    delta,
    latency_stats,
    least_contended,
    median,
    peak_rss_mb,
    within_tolerance,
)
from spans import LAYERS, Tracer
from workloads import PERIOD, FaultSchedule, input_order, inputs

#: untimed round trips before the measurement: programs and caches fill
WARMUP_OPS = 3
#: fault-free round trips measured with tracemalloc for core.transient_mb
TRANSIENT_OPS = 3
#: a traced run alternates untraced and traced stretches this long
TRACE_WINDOW_S = 1.0


class Ops:
    """The plan, the seeded inputs and their references, and the op bodies."""

    def __init__(self, workload, seed: int) -> None:
        import repro
        from repro.fftlib.backends import get_backend
        from repro.fftlib.planner import plan_fft

        self.workload = workload
        self.plan = repro.plan(workload.n, workload.config)
        self.inputs = inputs(workload, seed)
        # reprolint: fft-ok - independent correctness oracle, computed untimed
        self.references = [np.fft.fft(x) for x in self.inputs]
        self.order = input_order(workload, seed)
        self.faults = FaultSchedule(seed)
        self.numpy_fft = get_backend("numpy").fft
        self.program = plan_fft(workload.n).execute

    def body(self, index: int, injector):
        """The round trip on input ``index``, returning ``(forward, inverse)``."""

        plan, x = self.plan, self.inputs[index]

        def round_trip():
            forward = plan.execute(x, injector)
            return forward, plan.inverse(forward.output)

        return round_trip

    def failures(self, index: int, results, injector) -> list:
        """Why the op failed (empty when it did not), checked untimed."""

        forward, inverse = results
        reasons = []
        if not within_tolerance(forward.output, self.references[index]):
            reasons.append("wrong output")
        if not within_tolerance(inverse.output, self.inputs[index]):
            reasons.append("wrong inverse")
        if forward.report.uncorrectable or inverse.report.uncorrectable:
            reasons.append("uncorrectable")
        if injector is None and (forward.report.detected or inverse.report.detected):
            reasons.append("false alarm")
        if injector is not None and injector.fired_count != 1:
            reasons.append("fault never fired")
        return reasons

    def replay(self, index: int):
        """The round trip's two transforms timed unprotected (the inverse
        transforms the conjugated spectrum): ``(numpy_s, program_s)``."""

        numpy_s = program_s = 0.0
        for data in (self.inputs[index], np.conj(self.references[index])):
            t0 = perf_counter()
            self.numpy_fft(data)
            t1 = perf_counter()
            self.program(data)
            program_s += perf_counter() - t1
            numpy_s += t1 - t0
        return numpy_s, program_s


def _one_op(ops: Ops, tally: Tally, index: int, injector, tracer) -> bool:
    """Run, time and check one op; returns whether it ran fault-free."""

    body = ops.body(index, injector)
    faulty = injector is not None
    tally.attempted += 1
    tally.armed += faulty
    try:
        if tracer is None:
            t0 = perf_counter()
            results = body()
            end = perf_counter()
            latency = end - t0
        else:
            results, summary = tracer.op(body, (faulty, index))
            end, latency = perf_counter(), summary.latency
    except Exception as exc:  # a failed op is counted, the run goes on
        tally.fail([f"exception {type(exc).__name__}"])
        return False
    tally.fired += faulty and injector.fired_count > 0
    reasons = ops.failures(index, results, injector)
    if reasons:
        tally.fail(reasons)
    tally.records.append((end, latency, faulty, index))
    return not faulty


def run_ops(ops: Ops, tally: Tally, seconds: float, first: int, tracer=None, replays=None) -> int:
    """Ops until ``seconds`` have passed; returns the number of the next op."""

    deadline = perf_counter() + seconds
    j = first
    while perf_counter() < deadline:
        index = int(ops.order[j % PERIOD])
        fault = ops.workload.fault_of(j)
        injector = None if fault is None else ops.faults.injector(fault)
        clean = _one_op(ops, tally, index, injector, tracer)
        if replays is not None and clean:
            replays.append(ops.replay(index))
        j += 1
    return j


def _counters() -> dict:
    from repro import telemetry

    # counters only: snapshot() would also run the info-surface collectors
    return counter_totals(telemetry.counters())


def prepare(workload, seed: int):
    """The ops, after untimed warm-up ops (checked and counted like any op)."""

    ops = Ops(workload, seed)
    warm = Tally()
    for j in range(WARMUP_OPS):
        _one_op(ops, warm, j % len(ops.inputs), None, None)
    # a first pass through the recovery path
    _one_op(ops, warm, 0, ops.faults.injector(PERIOD - 1), None)
    warm.records.clear()
    return ops, warm


def timings(tally: Tally, start: float, seconds: float) -> dict:
    """Throughput and latencies over the faster half of the windows."""

    records = least_contended(tally.records, start, seconds)
    clean = [latency for _, latency, faulty, _ in records if not faulty]
    # a round trip is two transforms
    return {"transforms_per_s": 2 * len(clean) / sum(clean), **latency_stats(records)}


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics (all but ``setup_s``)."""

    ops, warm = prepare(workload, seed)
    tally = Tally()
    start = perf_counter()
    run_ops(ops, tally, seconds, 0)
    timed = timings(tally, start, seconds)
    tally.add(warm)
    names = ("transforms_per_s", "latency_p50_ms", "latency_p90_ms", "recovery_p50_ms")
    metrics = {name: timed[name] for name in names}
    metrics["ok_share"] = 1.0 - tally.failed / tally.attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {
        "tally": tally,
        "samples": timed["samples"],
        "p99_ms": timed["latency_p99_ms"],
        "metrics": metrics,
    }


def _transient_mb(ops: Ops) -> float:
    peaks = []
    tracemalloc.start()
    try:
        for j in range(TRANSIENT_OPS):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ops.body(j % len(ops.inputs), None)()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return median(peaks) / 2**20


def trace(workload, seed: int, seconds: float, spans_path) -> dict:
    """The traced run: untraced and traced stretches alternate; per-layer
    metrics come from the traced stretches' spans, replays and counters."""

    ops, warm = prepare(workload, seed)
    tracer = Tracer()
    untraced, traced = Tally(), Tally()
    replays: list = []
    before = _counters()
    start = perf_counter()
    j = 0
    for window in range(max(int(seconds / TRACE_WINDOW_S), 2)):
        if window % 2 == 0:
            j = run_ops(ops, untraced, TRACE_WINDOW_S, j)
            continue
        tracer.install()
        try:
            j = run_ops(ops, traced, TRACE_WINDOW_S, j, tracer, replays)
        finally:
            tracer.uninstall()
    after = _counters()
    transient = _transient_mb(ops)
    measured = Tally().add(untraced).add(traced)
    summaries = tracer.ops
    # fault-free round trips take the fused path, faulty ones the scheme path
    clean = [s for s in summaries if not s.tag[0]]
    faulty = [s for s in summaries if s.tag[0]]

    numpy_us = median([r[0] for r in replays]) * 1e6
    program_us = median([r[1] for r in replays]) * 1e6
    forward = [s.incl("core.execute") for s in clean]
    by_input: dict = {}
    for s in clean:
        by_input.setdefault(s.tag[1], []).append(s.latency)
    clean_all = [s.latency for s in clean]
    recovery = [s.latency - median(by_input.get(s.tag[1], clean_all)) for s in faulty]

    def mean_us(values) -> float:
        return float(np.mean(values)) * 1e6

    fired = max(measured.fired, 1)
    verifications = delta(after, before, "abft_verifications") / measured.attempted
    traced_p50 = timings(traced, start, seconds)["latency_p50_ms"]
    overhead = traced_p50 / timings(untraced, start, seconds)["latency_p50_ms"]
    metrics = {
        "fftlib.numpy_fft_us": numpy_us,
        "fftlib.program_us": program_us,
        "fftlib.encode_us": mean_us([s.incl("fftlib.encode") for s in clean]),
        "fftlib.taps_us": mean_us([s.incl("fftlib.execute_tapped") for s in clean]) - program_us,
        "core.thresholds_us": mean_us([s.self_time("core.thresholds") for s in clean]),
        "core.checksums_us": mean_us([s.self_time("core.checksums") for s in faulty]),
        "core.execute_other_us": mean_us([s.self_time("core.execute") for s in clean]),
        "core.inverse_other_us": mean_us([s.self_time("core.inverse") for s in clean]),
        "core.execute_us": mean_us(forward),
        # the paper's Fig. 7 overhead: one protected forward over one
        # unprotected transform (the replays time two per round trip)
        "core.overhead_vs_compiled": 2 * mean_us(forward) / program_us,
        "core.overhead_vs_numpy": 2 * mean_us(forward) / numpy_us,
        "core.transient_mb": transient,
        "core.recovery_us": median(recovery) * 1e6,
        "core.verifications_per_op": verifications,
        "core.restarts_per_fault": delta(after, before, "abft_retries") / fired,
        "core.corrected_per_fault": delta(after, before, "abft_corrected") / fired,
        "core.false_alarms": float(measured.failures.get("false alarm", 0)),
        "faults.fired_share": measured.fired / measured.armed,
        "faults.visit_us": mean_us([s.self_by_layer["faults"] for s in faulty]),
        "trace.overhead": overhead,
        "trace.latency_us": mean_us(clean_all),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_us"] = mean_us([s.self_by_layer[layer] for s in clean])
    return {
        "tally": Tally().add(warm).add(measured),
        "summaries": summaries,
        "spans": tracer.write(spans_path),
        "metrics": metrics,
    }
