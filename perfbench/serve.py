"""The ``serve`` workload: the ``repro serve`` daemon as a subprocess, driven
by two closed-loop callers with seeded think times."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter

import numpy as np

from common import (
    RUN_DIR,
    Tally,
    counter_totals,
    delta,
    latency_stats,
    least_contended,
    median,
    peak_rss_mb,
    window_of,
    within_tolerance,
)
from spans import LAYERS, Tracer
from workloads import PERIOD, FaultSchedule, first_input, input_order, inputs, think_times

CALLERS = 2
#: daemon spawns per run; the median of their set-up times is setup_s and
#: the last daemon serves the measured load
SPAWNS = 3
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: the first /stats in a checkout compiles the native kernel cache (its
#: collector probes the tier), which takes a while
STATS_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 30.0
#: repetitions of each in-process replay (core and fftlib rows)
REPLAYS = 200


class Daemon:
    """One ``repro serve --unix <socket> --warm <n>`` subprocess.

    The socket path is relative to the checkout root, the daemon's working
    directory, so it stays far below the 108-byte unix path limit wherever
    the checkout lives.  Leaving the ``with`` block always stops the
    daemon: SIGTERM, a kill after a timeout, reaping, removing the socket.
    ``drained`` tells whether it exited cleanly with its ``drained; bye``.
    """

    def __init__(self, root, n: int, tag: str) -> None:
        self.root = root
        self.n = n
        self.socket = f"{RUN_DIR}/serve-{os.getpid()}-{tag}.sock"
        self.address = "unix:" + self.socket
        self.output: list = []
        self.drained = False
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "Daemon":
        self.started = perf_counter()
        command = [sys.executable, "-m", "repro.cli", "serve", "--unix", self.socket]
        self._process = subprocess.Popen(
            command + ["--warm", str(self.n)],
            cwd=self.root,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        return self

    def _read(self) -> None:
        for line in self._process.stdout:
            self.output.append(line.rstrip("\n"))

    def __exit__(self, *exc_info) -> None:
        process = self._process
        try:
            if process.poll() is None:
                self.peak_rss_mb = peak_rss_mb(process.pid)
                process.send_signal(signal.SIGTERM)
                process.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            self._reader.join(timeout=STOP_TIMEOUT_S)
            try:
                os.unlink(os.path.join(self.root, self.socket))
            except FileNotFoundError:
                pass
        self.drained = process.returncode == 0 and "drained; bye" in self.output

    def client(self, timeout: float = REQUEST_TIMEOUT_S):
        from repro.client import Client

        return Client(self.address, timeout=timeout)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/healthz`` answers ok."""

        while True:
            if self._process.poll() is not None:
                raise RuntimeError(f"daemon exited early: {self.output}")
            try:
                with self.client(timeout=5.0) as client:
                    if client.healthz().get("status") == "ok":
                        return perf_counter() - self.started
            except (OSError, EOFError):  # not listening yet
                pass
            if perf_counter() - self.started > READY_TIMEOUT_S:
                raise TimeoutError(f"daemon not ready after {READY_TIMEOUT_S} s: {self.output}")
            time.sleep(0.01)

    def stats(self) -> dict:
        """Counter totals from ``/stats``.  The connection closes at once: an
        idle open connection would raise the batcher's coalescing target."""

        with self.client(timeout=STATS_TIMEOUT_S) as client:
            return counter_totals(client.stats()["counters"])


def _first_reply(daemon: Daemon, x) -> tuple:
    """Set-up sample: ``(setup_s, ready_s, correct)``."""

    ready = daemon.wait_ready()
    with daemon.client() as client:
        reply = client.transform(x)
        setup = perf_counter() - daemon.started
    # reprolint: fft-ok - independent correctness oracle, computed untimed
    correct = within_tolerance(reply.output, np.fft.fft(x)) and not reply.detected
    return setup, ready, correct


class Load:
    """The seeded inputs, their references and the callers' schedules."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.inputs = inputs(workload, seed)
        # reprolint: fft-ok - independent correctness oracle, computed untimed
        self.references = [np.fft.fft(x) for x in self.inputs]
        self.order = input_order(workload, seed)
        self.think = [think_times(seed, caller) for caller in range(CALLERS)]
        self.faults = FaultSchedule(seed)

    def failures(self, index: int, reply, injected: bool) -> list:
        """Why the request failed (empty when it did not), checked untimed."""

        reasons = []
        if not within_tolerance(reply.output, self.references[index]):
            reasons.append("wrong output")
        if reply.uncorrectable:
            reasons.append("uncorrectable")
        if not injected and reply.detected:
            reasons.append("false alarm")
        if injected and reply.report.get("faults_fired") != 1:
            reasons.append("fault never fired")
        return reasons


def _caller(client, load: Load, caller: int, start: float, seconds: float, tracer, out) -> None:
    """One closed-loop caller.  In a traced run (``tracer`` given) only its
    requests in odd windows are traced."""

    untraced, traced = Tally(), Tally()
    think = load.think[caller]
    deadline = start + seconds
    j = 0
    try:
        while perf_counter() < deadline:
            op = j * CALLERS + caller
            index = int(load.order[op % PERIOD])
            fault = load.workload.fault_of(op)
            inject = None if fault is None else load.faults.inject_spec(fault)
            x = load.inputs[index]
            tally = untraced
            if tracer is not None and window_of(perf_counter(), start, seconds) % 2:
                tally = traced
            tally.attempted += 1
            tally.armed += inject is not None
            try:
                if tally is traced:
                    reply, summary = tracer.op(
                        lambda: client.transform(x, inject=inject), (inject is not None, index)
                    )
                    end, latency = perf_counter(), summary.latency
                else:
                    t0 = perf_counter()
                    reply = client.transform(x, inject=inject)
                    end = perf_counter()
                    latency = end - t0
            except Exception as exc:  # an error reply or a dropped connection fails the op
                tally.fail([f"exception {type(exc).__name__}"])
                end = perf_counter()
            else:
                tally.records.append((end, latency, inject is not None, index))
                tally.fired += reply.report.get("faults_fired", 0) > 0
                reasons = load.failures(index, reply, inject is not None)
                if reasons:
                    tally.fail(reasons)
            # the check above runs inside the think time
            pause = think[j % PERIOD] - (perf_counter() - end)
            if pause > 0:
                time.sleep(pause)
            j += 1
    finally:
        out[caller] = (untraced, traced)


def load_phase(daemon, load: Load, seconds: float, tracer=None) -> tuple:
    """Both callers for ``seconds``: ``(untraced tally, traced tally, start)``."""

    out: list = [None] * CALLERS
    clients = [daemon.client() for _ in range(CALLERS)]
    start = perf_counter()
    threads = [
        threading.Thread(target=_caller, args=(clients[c], load, c, start, seconds, tracer, out))
        for c in range(CALLERS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 4 * REQUEST_TIMEOUT_S)
    finally:
        for client in clients:
            client.close()
    if any(thread.is_alive() for thread in threads) or None in out:
        raise RuntimeError("a serve caller did not finish")
    untraced, traced = Tally(), Tally()
    for caller_untraced, caller_traced in out:
        untraced.add(caller_untraced)
        traced.add(caller_traced)
    return untraced, traced, start


def timings(tally: Tally, start: float, seconds: float) -> dict:
    """Throughput and latencies over the faster half of the windows."""

    records = least_contended(tally.records, start, seconds)
    # completion rate inside each kept window: completions after its first
    # one over the time from its first to its last
    ends: dict = {}
    for end, _, faulty, _ in records:
        if not faulty:
            ends.setdefault(window_of(end, start, seconds), []).append(end)
    completed = sum(len(times) - 1 for times in ends.values())
    elapsed = sum(max(times) - min(times) for times in ends.values())
    return {"transforms_per_s": completed / elapsed, **latency_stats(records)}


def _replays(load: Load) -> dict:
    """In-process replays of the daemon's layers on the same inputs, median
    seconds per row: numpy, the compiled program, ``FTPlan.execute``, and
    ``FTPlan.execute_many`` over 1- and 2-row batches."""

    import repro
    from repro.fftlib.backends import get_backend
    from repro.fftlib.planner import plan_fft

    workload = load.workload
    plan = repro.plan(workload.n, workload.config)
    numpy_fft = get_backend("numpy").fft
    program = plan_fft(workload.n).execute
    x, y = load.inputs[0], load.inputs[1]
    one, two = np.stack([x]), np.stack([x, y])
    bodies = {
        "numpy": lambda: numpy_fft(x),
        "program": lambda: program(x),
        "execute": lambda: plan.execute(x),
        "many1": lambda: plan.execute_many(one),
        "many2": lambda: plan.execute_many(two),
    }
    samples: dict = {name: [] for name in bodies}
    for body in bodies.values():
        body()
    for _ in range(REPLAYS):
        for name, body in bodies.items():
            t0 = perf_counter()
            body()
            samples[name].append(perf_counter() - t0)
    timings = {name: median(values) for name, values in samples.items()}
    timings["many2"] /= 2
    return timings


def run(root, workload, seed: int, seconds: float, traced: bool, spans_path) -> dict:
    """One run: set-up samples, then the load, untraced or with traced and
    untraced windows alternating.  The daemons are always stopped."""

    load = Load(workload, seed)
    x0 = first_input(workload, seed)
    setups: list = []
    readies: list = []
    tally = Tally()
    drained = []

    def sample(daemon: Daemon) -> None:
        setup, ready, correct = _first_reply(daemon, x0)
        setups.append(setup)
        readies.append(ready)
        tally.attempted += 1
        if not correct:
            tally.fail(["wrong first reply"])

    for spawn in range(SPAWNS - 1):
        daemon = Daemon(root, workload.n, str(spawn))
        with daemon:
            sample(daemon)
        drained.append(daemon.drained)

    daemon = Daemon(root, workload.n, str(SPAWNS - 1))
    tracer = Tracer() if traced else None
    with daemon:
        sample(daemon)
        # the first /stats also settles the info surfaces before any timing
        before = daemon.stats()
        if tracer is not None:
            tracer.install()
        try:
            untraced, traced_tally, start = load_phase(daemon, load, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        after = daemon.stats()
    drained.append(daemon.drained)
    tally.add(untraced).add(traced_tally)
    if not all(drained):
        tally.fail(["daemon did not drain"])
    result = {"tally": tally, "setups": setups}
    if not traced:
        timed = timings(untraced, start, seconds)
        names = ("transforms_per_s", "latency_p50_ms", "latency_p90_ms", "recovery_p50_ms")
        result["metrics"] = {name: timed[name] for name in names}
        result["metrics"]["ok_share"] = 1.0 - tally.failed / tally.attempted
        result["metrics"]["peak_rss_mb"] = daemon.peak_rss_mb
        result["samples"] = timed["samples"]
        result["p99_ms"] = timed["latency_p99_ms"]
        return result

    replay = _replays(load)
    summaries = tracer.ops
    clean = [s for s in summaries if not s.tag[0]]
    batches = max(delta(after, before, "server_batches"), 1)
    rows = delta(after, before, "server_transforms") / batches
    # with two callers a batch holds one or two rows; weight the replayed
    # per-row cost by the share of rows served in two-row batches
    pairs = min(max(rows - 1.0, 0.0), 1.0)
    paired = 2 * pairs / (1 + pairs)
    row_us = ((1 - paired) * replay["many1"] + paired * replay["many2"]) * 1e6

    def mean_us(values) -> float:
        return float(np.mean(values)) * 1e6

    encode = mean_us([s.incl("client.encode") for s in clean])
    decode = mean_us([s.incl("client.decode") for s in clean])
    latency = mean_us([s.latency for s in clean])
    plain = timings(untraced, start, seconds)
    overhead = timings(traced_tally, start, seconds)["latency_p50_ms"] / plain["latency_p50_ms"]
    measured = Tally().add(untraced).add(traced_tally)
    fired = max(measured.fired, 1)
    served = max(delta(after, before, "server_transforms"), 1)
    metrics = {
        "fftlib.numpy_fft_us": replay["numpy"] * 1e6,
        "fftlib.program_us": replay["program"] * 1e6,
        "core.execute_us": replay["execute"] * 1e6,
        "core.execute_many_row_us": row_us,
        "core.overhead_vs_compiled": replay["execute"] / replay["program"],
        "core.overhead_vs_numpy": replay["execute"] / replay["numpy"],
        "core.recovery_us": (plain["recovery_p50_ms"] - plain["latency_p50_ms"]) * 1e3,
        "core.verifications_per_op": delta(after, before, "abft_verifications") / served,
        "core.restarts_per_fault": delta(after, before, "abft_retries") / fired,
        "core.corrected_per_fault": delta(after, before, "abft_corrected") / fired,
        "core.false_alarms": float(tally.failures.get("false alarm", 0)),
        "faults.fired_share": measured.fired / measured.armed,
        "client.encode_us": encode,
        "client.decode_us": decode,
        "server.other_us": latency - encode - decode - row_us,
        "server.rows_per_batch": rows,
        "server.errors": float(delta(after, before, "server_errors")),
        "server.ready_s": median(readies),
        "trace.overhead": overhead,
        "trace.latency_us": latency,
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_us"] = mean_us([s.self_by_layer[layer] for s in clean])
    # the replayed batch execution is part of the wait for the daemon
    metrics["self.server_us"] -= row_us
    metrics["self.core_us"] += row_us
    result["metrics"] = metrics
    result["summaries"] = summaries
    result["spans"] = tracer.write(spans_path)
    return result
