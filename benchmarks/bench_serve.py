"""Transform-server load benchmark: micro-batched serving vs one-per-execute.

Starts the daemon in-process (:class:`repro.server.app.ServerThread`) twice
per configuration - once with micro-batching on (window 0: requests the
daemon reads in the same event-loop turn share one batch) and once with
``max_batch=1`` (every request runs alone through ``FTPlan.execute``, the
pre-server cost model) - and drives both with the same closed-loop client
threads over keep-alive unix-socket connections.  Per ``(n, concurrency)``
cell it records:

* ``rps``    - completed requests per second over the whole timed phase;
* ``p50_ms`` / ``p99_ms`` - request latency percentiles across every
  client's samples (micro-batching trades a bounded latency floor - at
  most one window - for throughput; both sides of that trade are
  recorded);
* ``mean_batch`` (batched mode) - mean rows per executed batch, from the
  ``server_transforms`` / ``server_batches`` counter deltas: how much
  coalescing actually happened at that concurrency.

``batched_over_single_rps`` is the headline ratio: how much throughput
micro-batching buys over dispatching each request to its own ``execute``
call.  The win comes from ``execute_many`` amortising plan dispatch,
checksum encoding, and threshold statistics across the rows that coalesce
into one batch; at concurrency 1 there is never a peer to coalesce with
and the ratio sits near 1x by construction.

The load threads above fire on every connection in lockstep, so no
connection is ever idle.  One more cell measures that case at
``n = GATE_N``, batched mode: a single closed-loop connection with a
second connection held open and idle, against the same connection alone
(``IDLE_PEER_REQUESTS`` requests per round, rounds interleaved, best p50
of each side).  ``idle_peer_over_solo_p50`` is the ratio of the two p50s:
a batcher that makes a lone request wait for peers shows up here.

Machine-readable results land in ``BENCH_serve.json`` at the repository
root (tracked in version control, like ``BENCH_fft_speed.json``); the
human-readable table lands in ``benchmarks/results/serve_load.txt``.

``--check`` turns the script into the CI regression gate: fresh numbers
are compared against the *committed* reference (which is left untouched)
and the run fails when ``batched_over_single_rps`` collapsed by more than
``REPRO_BENCH_CHECK_TOLERANCE`` (default 2.5x) on any cell present in both
runs.  Two absolute floors are enforced on the committed reference (and at
regeneration time, so bad numbers cannot be blessed): the acceptance
criterion that batched serving sustains at least
``BATCHED_MIN_RATIO`` (1.2x) the single-dispatch requests/sec at
``n >= GATE_N`` (4096) and concurrency >= ``GATE_CONCURRENCY`` (8), and
that no cell's ratio drops below 0.8x (the window must never *cost*
throughput).  The idle-connection cell has an absolute budget on the fresh
numbers: ``idle_peer_over_solo_p50`` at most ``IDLE_PEER_MAX_RATIO``
(1.5x).

``--smoke`` is the CI serve leg: spawn ``python -m repro.cli serve`` as a
real subprocess on a unix socket, assert ``/healthz`` and ``/metrics``
answer, push a small concurrent load through it, then SIGTERM and assert
a clean drained exit (and that the socket file is gone).

Environment knobs: ``REPRO_BENCH_SERVE_SIZES`` (default ``1024 4096``),
``REPRO_BENCH_SERVE_CONCURRENCY`` (default ``1 4 8``),
``REPRO_BENCH_SERVE_REQUESTS`` (default 50: timed requests per client
thread), ``REPRO_BENCH_SERVE_ROUNDS`` (default 3: interleaved
measurement rounds per cell; the best round per mode is reported),
``REPRO_BENCH_SERVE_WINDOW_MS`` (default 0: opportunistic coalescing),
``REPRO_BENCH_SERVE_MAX_BATCH`` (default 32),
``REPRO_BENCH_SERVE_CONFIG`` (default ``opt-online+mem+numpy``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from _harness import env_int, env_int_list, save_table

import repro
from repro import telemetry
from repro.client import Client
from repro.server import ServerThread
from repro.utils.reporting import Table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_serve.json"

DEFAULT_SIZES = (1024, 4096)
DEFAULT_CONCURRENCY = (1, 4, 8)
#: The served plan.  The numpy (pocketfft) sub-FFT backend is where
#: batching pays most on this pure-Python + compiled-kernel stack: a
#: single ``execute`` and a batch both run the protected kernel, whose
#: per-call Python overhead (encode, thresholds, check) is large relative
#: to one compiled FFT, and ``execute_many`` amortises it, and the daemon's
#: per-request dispatch, while pocketfft transforms the whole batch in one
#: call.  The fftlib backend spends its time inside the stage programs
#: themselves, which batching cannot amortise - it serves fine, but its
#: batched/single ratio is structurally capped near parity, so it would
#: measure the backend, not the server.
CONFIG = os.environ.get("REPRO_BENCH_SERVE_CONFIG", "opt-online+mem+numpy")

#: ratio keys guarded by ``--check``; True = higher is better.
CHECKED_RATIOS = {"batched_over_single_rps": True}

#: The acceptance floor: micro-batched serving must sustain at least this
#: multiple of the one-request-per-``execute`` throughput once the window
#: has enough concurrent arrivals to fill (enforced on the committed
#: reference and at regeneration time, never on noisy fresh CI numbers).
#: Single calls run the same kernel as batches, so the window buys only
#: the amortised per-call and per-request overhead: the ratio at 4096 x 8
#: measured a median of 1.50x (quartiles 1.35x and 1.68x, 16 runs on 2
#: vCPUs), and the floor is that median less its interquartile range.
BATCHED_MIN_RATIO = 1.2
GATE_N = 4096
GATE_CONCURRENCY = 8

#: The window may never *cost* throughput: even at concurrency 1 (where a
#: batch holds one row and the ratio measures pure batcher overhead plus
#: one window of added latency) the ratio must stay near parity.
BATCHED_FLOOR_ANYWHERE = 0.8

#: The idle-connection cell: requests per round on the one busy connection,
#: and the budget on its p50 beside an idle connection over its p50 alone.
#: An idle peer must not make a lone request wait; both sides come from the
#: same process, interleaved, so the budget holds on fresh numbers.
IDLE_PEER_REQUESTS = 600
IDLE_PEER_MAX_RATIO = 1.5


def _counter_total(name: str) -> int:
    """Sum of one counter across all label sets (and thread shards)."""

    return sum(
        value for (counter, _labels), value in telemetry.counters().items() if counter == name
    )


#: connections multiplexed per load-generator thread (wrk-style): one
#: thread submits on each of its connections back-to-back, then collects
#: the replies in order.  Python load-generator threads are serialised by
#: the GIL, so one-thread-per-connection would meter arrivals out at the
#: thread-scheduling cadence and measure the generator, not the server;
#: multiplexing lands each thread's requests at the server together, the
#: way ``concurrency`` concurrent requests from real (async or
#: multi-process) clients do.  Both modes are driven identically.
CONNS_PER_THREAD = 4


def _drive(
    address: object,
    n: int,
    concurrency: int,
    requests: int,
    *,
    warmup: int = 2,
) -> Dict[str, float]:
    """Closed-loop load: ``concurrency`` connections x ``requests`` each.

    Connections are multiplexed ``CONNS_PER_THREAD``-per-thread; each
    thread sends its warmup rounds (plan compile, connection setup -
    untimed), parks on a barrier so the timed phase starts simultaneously,
    then repeats submit-all / collect-all rounds.  Each connection has at
    most one request in flight (closed loop); per-request latency runs
    from its own submit to its own reply.  Returns rps over the timed
    phase plus merged latency percentiles.
    """

    rng = np.random.default_rng(20170712 + n)
    x = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    slots = []
    remaining = concurrency
    while remaining > 0:
        slots.append(min(CONNS_PER_THREAD, remaining))
        remaining -= slots[-1]
    barrier = threading.Barrier(len(slots) + 1)
    latencies: List[List[float]] = [[] for _ in slots]
    errors: List[BaseException] = []

    def worker(slot: int, conns: int) -> None:
        clients = [Client(address) for _ in range(conns)]
        sent = [0.0] * conns
        try:
            for _ in range(warmup):
                for client in clients:
                    client.submit(x, CONFIG)
                for client in clients:
                    client.collect()
            barrier.wait()
            samples = latencies[slot]
            for _ in range(requests):
                for i, client in enumerate(clients):
                    sent[i] = time.perf_counter()
                    client.submit(x, CONFIG)
                for i, client in enumerate(clients):
                    reply = client.collect()
                    samples.append(time.perf_counter() - sent[i])
                    if reply.uncorrectable:
                        raise RuntimeError(
                            f"fault-free row reported uncorrectable: {reply.meta}"
                        )
        except BaseException as exc:  # surfaced after join; a hung client trips the barrier
            errors.append(exc)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass
        finally:
            for client in clients:
                client.close()

    threads = [
        threading.Thread(target=worker, args=(slot, conns))
        for slot, conns in enumerate(slots)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    merged = np.asarray([sample for samples in latencies for sample in samples])
    return {
        "rps": float(concurrency * requests / elapsed),
        "p50_ms": float(np.percentile(merged, 50) * 1e3),
        "p99_ms": float(np.percentile(merged, 99) * 1e3),
    }


def _measure_mode(
    n: int,
    concurrency: int,
    requests: int,
    *,
    window: float,
    max_batch: int,
    idle_peer: bool = False,
) -> Dict[str, float]:
    """One server lifecycle: start, drive, drain; returns the load stats.

    ``idle_peer`` holds one more connection open, and idle, while the load
    runs.
    """

    tmp = tempfile.mkdtemp(prefix="repro-bench-serve-")
    sock = os.path.join(tmp, "serve.sock")
    server = ServerThread(port=None, unix_path=sock, window=window, max_batch=max_batch).start()
    idle = Client(server.address)  # connects on its first request
    try:
        if idle_peer:
            idle.healthz()  # the server has accepted it before the load starts
        transforms_before = _counter_total("server_transforms")
        batches_before = _counter_total("server_batches")
        stats = _drive(server.address, n, concurrency, requests)
        batches = _counter_total("server_batches") - batches_before
        transforms = _counter_total("server_transforms") - transforms_before
        stats["mean_batch"] = float(transforms / batches) if batches else 1.0
        return stats
    finally:
        idle.close()
        server.stop()
        if os.path.exists(sock):
            os.unlink(sock)
        os.rmdir(tmp)


def _best_of(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    """The round with the highest throughput.

    Same argument as ``interleaved_best(estimator="min")`` in
    ``_harness.py``: contention noise on a shared box is one-sided - a
    background process can only *steal* CPU from a round, never donate it
    - so each mode's least-disturbed round is the honest estimate, and
    interleaving the modes (round-robin rather than back-to-back blocks)
    keeps a drifting machine from systematically favouring one side.
    """

    return max(rounds, key=lambda stats: stats["rps"])


def run_idle_peer(rounds: int, *, window: float, max_batch: int) -> Dict[str, float]:
    """The idle-connection cell: one closed-loop connection at ``GATE_N``,
    beside an open idle connection and alone, rounds interleaved."""

    solo: List[float] = []
    beside_idle: List[float] = []
    for _ in range(rounds):
        for idle_peer, samples in ((False, solo), (True, beside_idle)):
            stats = _measure_mode(
                GATE_N, 1, IDLE_PEER_REQUESTS,
                window=window, max_batch=max_batch, idle_peer=idle_peer,
            )
            samples.append(stats["p50_ms"])
    # best (lowest) p50 per side: contention noise only ever adds latency
    return {
        "n": GATE_N,
        "requests": IDLE_PEER_REQUESTS,
        "rounds": rounds,
        "solo_p50_ms": min(solo),
        "idle_peer_p50_ms": min(beside_idle),
        "idle_peer_over_solo_p50": min(beside_idle) / min(solo),
    }


def run(write: bool = True) -> dict:
    sizes = env_int_list("REPRO_BENCH_SERVE_SIZES", DEFAULT_SIZES)
    concurrency_levels = env_int_list("REPRO_BENCH_SERVE_CONCURRENCY", DEFAULT_CONCURRENCY)
    requests = env_int("REPRO_BENCH_SERVE_REQUESTS", 50)
    rounds = max(1, env_int("REPRO_BENCH_SERVE_ROUNDS", 3))
    window = env_int("REPRO_BENCH_SERVE_WINDOW_MS", 0) / 1000.0
    max_batch = env_int("REPRO_BENCH_SERVE_MAX_BATCH", 32)

    # Warm the process-wide plan cache once so neither mode pays the
    # compile inside its timed phase (the in-process ServerThread shares
    # this cache, exactly like the daemon's --warm flag).
    for n in sorted(set(sizes) | {GATE_N}):
        warm = repro.plan(int(n), CONFIG)
        warm.execute_many(np.zeros((1, warm.n), dtype=np.complex128))

    table = Table(
        "Transform-server load (closed-loop keep-alive clients, unix socket)",
        [
            "n",
            "clients",
            "batched rps",
            "single rps",
            "ratio",
            "mean batch",
            "batched p50/p99 [ms]",
            "single p50/p99 [ms]",
        ],
    )
    results = []
    for n in sizes:
        for concurrency in concurrency_levels:
            batched_rounds: List[Dict[str, float]] = []
            single_rounds: List[Dict[str, float]] = []
            for _ in range(rounds):
                batched_rounds.append(
                    _measure_mode(
                        int(n), int(concurrency), requests,
                        window=window, max_batch=max_batch,
                    )
                )
                single_rounds.append(
                    _measure_mode(
                        int(n), int(concurrency), requests, window=0.0, max_batch=1
                    )
                )
            batched = _best_of(batched_rounds)
            single = _best_of(single_rounds)
            ratio = batched["rps"] / single["rps"]
            results.append(
                {
                    "n": int(n),
                    "concurrency": int(concurrency),
                    "requests_per_client": int(requests),
                    "rounds": rounds,
                    "batched": batched,
                    "single": {k: v for k, v in single.items() if k != "mean_batch"},
                    "batched_over_single_rps": float(ratio),
                }
            )
            table.add_row(
                str(n),
                str(concurrency),
                f"{batched['rps']:.1f}",
                f"{single['rps']:.1f}",
                f"{ratio:.2f}x",
                f"{batched['mean_batch']:.1f}",
                f"{batched['p50_ms']:.2f}/{batched['p99_ms']:.2f}",
                f"{single['p50_ms']:.2f}/{single['p99_ms']:.2f}",
            )

    idle_peer = run_idle_peer(rounds, window=window, max_batch=max_batch)
    print(
        f"idle-connection cell (n={GATE_N}, 1 busy connection): p50 "
        f"{idle_peer['idle_peer_p50_ms']:.2f} ms beside an idle connection, "
        f"{idle_peer['solo_p50_ms']:.2f} ms alone = "
        f"{idle_peer['idle_peer_over_solo_p50']:.2f}x"
    )

    payload = {
        "benchmark": "bench_serve",
        "description": (
            "closed-loop load against the repro serve daemon over a unix "
            "socket: micro-batched mode (requests grouped per (n, config) "
            "inside the window and executed through FTPlan.execute_many) vs "
            "max_batch=1 (every request dispatched to its own execute call); "
            "rps and latency percentiles per (size, concurrency) cell, "
            "batched_over_single_rps is the throughput the window buys"
        ),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "config": CONFIG,
        "window_ms": window * 1e3,
        "max_batch": max_batch,
        "requests_per_client": requests,
        "results": results,
        "idle_peer": idle_peer,
    }
    if write:
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {JSON_PATH}")
    save_table(table, "serve_load.txt")
    return payload


def check(payload: dict) -> None:
    """Sanity: every cell produced positive throughput on both modes."""

    for row in payload["results"]:
        assert row["batched"]["rps"] > 0.0, row
        assert row["single"]["rps"] > 0.0, row
        assert row["batched"]["p50_ms"] <= row["batched"]["p99_ms"], row


def check_batched_floor(rows: list, label: str) -> list:
    """Absolute floor violations for the batching win, as strings.

    The acceptance gate applies where the window can fill (``GATE_N``
    and up, ``GATE_CONCURRENCY`` clients and up); the parity floor applies
    everywhere.  Cells outside the gate region simply do not trip it, so a
    scaled-down CI sweep stays meaningful.
    """

    violations = []
    for row in rows:
        ratio = row.get("batched_over_single_rps")
        if ratio is None:
            continue
        n = int(row["n"])
        concurrency = int(row["concurrency"])
        if n >= GATE_N and concurrency >= GATE_CONCURRENCY and ratio < BATCHED_MIN_RATIO:
            violations.append(
                f"n={n} c={concurrency}: batched_over_single_rps {ratio:.2f} below "
                f"the {BATCHED_MIN_RATIO}x acceptance floor ({label})"
            )
        if ratio < BATCHED_FLOOR_ANYWHERE:
            violations.append(
                f"n={n} c={concurrency}: batched_over_single_rps {ratio:.2f} below "
                f"the {BATCHED_FLOOR_ANYWHERE}x parity floor ({label})"
            )
    return violations


def check_idle_peer(payload: dict, label: str) -> list:
    """Budget violations of the idle-connection cell, as strings."""

    cell = payload["idle_peer"]
    if cell["idle_peer_over_solo_p50"] <= IDLE_PEER_MAX_RATIO:
        return []
    return [
        f"n={cell['n']} idle connection: idle_peer_over_solo_p50 "
        f"{cell['idle_peer_over_solo_p50']:.2f} over the {IDLE_PEER_MAX_RATIO}x "
        f"budget ({cell['idle_peer_p50_ms']:.2f} vs {cell['solo_p50_ms']:.2f} ms, {label})"
    ]


def check_against_reference(payload: dict, reference: dict, tolerance: float) -> list:
    """Compare fresh ratios to the committed reference; return regressions.

    Cells are matched on ``(n, concurrency)``; only cells present in both
    runs are compared (the CI smoke sweep is a subset of the committed
    one).  Absolute rps is deliberately not compared across machines -
    the batched/single ratio of same-process interleaved runs is.
    """

    ref_rows = {(row["n"], row["concurrency"]): row for row in reference.get("results", [])}
    regressions = []
    for row in payload["results"]:
        ref = ref_rows.get((row["n"], row["concurrency"]))
        if ref is None:
            continue
        for key, higher_is_better in CHECKED_RATIOS.items():
            fresh_value = row.get(key)
            ref_value = ref.get(key)
            if fresh_value is None or ref_value is None:
                continue
            if higher_is_better:
                regressed = fresh_value < ref_value / tolerance
            else:
                regressed = fresh_value > ref_value * tolerance
            if regressed:
                regressions.append(
                    f"n={row['n']} c={row['concurrency']}: {key} regressed to "
                    f"{fresh_value:.2f} (recorded {ref_value:.2f}, tolerance {tolerance}x)"
                )
    return regressions


def run_check() -> int:
    """The ``--check`` CI gate: fresh numbers vs the committed JSON."""

    if not JSON_PATH.exists():
        print(f"error: no committed reference at {JSON_PATH}; run without --check first")
        return 2
    reference = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    tolerance = float(os.environ.get("REPRO_BENCH_CHECK_TOLERANCE", "2.5"))
    # Deterministic absolute gate on the committed numbers: a regenerated
    # reference that lost the batching win fails every subsequent CI run.
    violations = check_batched_floor(reference.get("results", []), "committed reference")
    if violations:
        print("\nabsolute serve-benchmark floors FAILED (committed reference):")
        for line in violations:
            print(f"  - {line}")
        return 1
    payload = run(write=False)  # never clobber the reference in check mode
    check(payload)
    compared = [
        (r["n"], r["concurrency"])
        for r in payload["results"]
        if any(
            ref["n"] == r["n"] and ref["concurrency"] == r["concurrency"]
            for ref in reference.get("results", [])
        )
    ]
    regressions = check_against_reference(payload, reference, tolerance)
    regressions += check_idle_peer(payload, "fresh run")
    if regressions:
        print("\nserve benchmark regression gate FAILED:")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(
        f"\nserve benchmark regression gate passed: cells {compared} within "
        f"{tolerance}x of the committed ratios; idle connection "
        f"{payload['idle_peer']['idle_peer_over_solo_p50']:.2f}x within "
        f"{IDLE_PEER_MAX_RATIO}x"
    )
    return 0


def run_smoke() -> int:
    """The CI serve leg: a real ``repro serve`` subprocess end to end."""

    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    sock = os.path.join(tmp, "serve.sock")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--unix", sock, "--window-ms", "2", "--warm", "256",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not os.path.exists(sock):
            if proc.poll() is not None:
                print(proc.stdout.read() if proc.stdout else "")
                print(f"error: serve exited early with {proc.returncode}")
                return 1
            if time.monotonic() > deadline:
                print("error: serve did not bind its unix socket within 60s")
                return 1
            time.sleep(0.05)

        with Client(f"unix:{sock}") as client:
            health = client.healthz()
            assert health["status"] == "ok", health
            assert any(entry.startswith("unix:") for entry in health["listening"]), health

            stats = _drive(f"unix:{sock}", 256, 2, 8, warmup=1)
            print(f"smoke load: {stats['rps']:.1f} rps, p99 {stats['p99_ms']:.2f} ms")

            rng = np.random.default_rng(7)
            x = rng.uniform(-1.0, 1.0, 256) + 1j * rng.uniform(-1.0, 1.0, 256)
            reply = client.transform(x, CONFIG)
            expected = np.fft.fft(x)  # reprolint: fft-ok - independent oracle for the served spectrum
            assert np.allclose(reply.output, expected), "smoke spectrum mismatch"

            exposition = client.metrics()
            assert exposition.startswith(b"# TYPE repro_"), exposition[:64]
            assert b"repro_server_requests_total" in exposition
            assert b"repro_server_transforms_total" in exposition

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60.0)
        if proc.returncode != 0:
            print(output)
            print(f"error: serve exited {proc.returncode} after SIGTERM")
            return 1
        if "drained; bye" not in output:
            print(output)
            print("error: serve did not report a graceful drain")
            return 1
        if os.path.exists(sock):
            print("error: serve left its unix socket behind")
            return 1
        print("serve smoke passed: healthz, metrics, load, graceful SIGTERM drain")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if os.path.exists(sock):
            os.unlink(sock)
        os.rmdir(tmp)


def test_bench_serve():
    """Pytest entry point (scaled down): both modes serve, cells are sane."""

    os.environ.setdefault("REPRO_BENCH_SERVE_SIZES", "512")
    os.environ.setdefault("REPRO_BENCH_SERVE_CONCURRENCY", "2")
    os.environ.setdefault("REPRO_BENCH_SERVE_REQUESTS", "10")
    check(run(write=False))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh numbers against the committed BENCH_serve.json "
             "and exit non-zero on a regression (the committed file is not "
             "overwritten)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI serve leg: spawn a real 'repro serve' subprocess on a unix "
             "socket, assert /healthz and /metrics, run a tiny load, SIGTERM, "
             "assert a clean drain",
    )
    cli_args = parser.parse_args()
    if cli_args.smoke:
        raise SystemExit(run_smoke())
    if cli_args.check:
        raise SystemExit(run_check())
    payload = run()
    check(payload)
    violations = check_batched_floor(payload["results"], "fresh run")
    violations += check_idle_peer(payload, "fresh run")
    if violations:
        print("\nabsolute serve-benchmark floors FAILED for the regenerated numbers:")
        for line in violations:
            print(f"  - {line}")
        print("do not commit this BENCH_serve.json")
        raise SystemExit(1)
    gate_cells = [
        r for r in payload["results"]
        if r["n"] >= GATE_N and r["concurrency"] >= GATE_CONCURRENCY
    ]
    if gate_cells:
        worst = min(r["batched_over_single_rps"] for r in gate_cells)
        print(f"worst gated batching win (n>={GATE_N}, c>={GATE_CONCURRENCY}): {worst:.2f}x")
