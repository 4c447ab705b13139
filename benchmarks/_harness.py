"""Shared plumbing for the benchmark harnesses.

Every ``bench_*.py`` file regenerates one table or figure of the paper.  The
helpers here provide:

* environment-variable configuration (so the harnesses can be scaled up or
  down without editing code),
* interleaved best-of-N timing (the schemes are timed round-robin so that
  machine noise drifts do not bias the overhead percentages), and
* result persistence - each harness renders its table with
  :class:`repro.utils.reporting.Table` and saves it under
  ``benchmarks/results/`` so the regenerated rows survive pytest's output
  capturing.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.base import FTScheme
from repro.core.config import FTConfig
from repro.core.ftplan import FTPlan, plan
from repro.utils.reporting import Table

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Default problem sizes for the sequential benchmarks (the paper uses
#: 2^25 - 2^28; pure Python needs smaller defaults, and sizes much below
#: 2^16 make the overhead percentages timer-noise bound).
DEFAULT_SEQ_SIZES = (2**16, 2**17)
#: Default simulated rank counts for the parallel benchmarks (paper: 128-1024).
DEFAULT_RANKS = (4, 8, 16)
#: Default trial counts for statistical campaigns (paper: 1000).
DEFAULT_TRIALS = 120


def env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def env_int_list(name: str, default: Sequence[int]) -> List[int]:
    value = os.environ.get(name)
    if not value:
        return list(default)
    return [int(part) for part in value.replace(",", " ").split()]


def seq_sizes() -> List[int]:
    """Sequential benchmark sizes (override with ``REPRO_BENCH_SIZES``)."""

    return env_int_list("REPRO_BENCH_SIZES", DEFAULT_SEQ_SIZES)


def parallel_ranks() -> List[int]:
    """Simulated rank counts (override with ``REPRO_BENCH_RANKS``)."""

    return env_int_list("REPRO_BENCH_RANKS", DEFAULT_RANKS)


def campaign_trials() -> int:
    """Trial count for statistical campaigns (override with ``REPRO_BENCH_TRIALS``)."""

    return env_int("REPRO_BENCH_TRIALS", DEFAULT_TRIALS)


def bench_backend() -> Optional[str]:
    """Sub-FFT backend for the benchmarks (override with ``REPRO_BENCH_BACKEND``).

    ``None`` (the default) keeps the process-wide default backend; setting
    ``REPRO_BENCH_BACKEND=numpy`` reruns every harness on pocketfft, which
    isolates checksum overhead from the pure-Python FFT substrate.
    """

    value = os.environ.get("REPRO_BENCH_BACKEND")
    return value or None


def plan_for(name: str, n: int, backend: Optional[str] = None) -> FTPlan:
    """A cached :class:`FTPlan` for a legacy scheme name.

    All harnesses create their schemes through this helper so they exercise
    the public plan API (and its wisdom cache) exactly as users do, and so
    one environment variable switches every benchmark's backend.
    """

    config = FTConfig.from_name(name, backend=backend or bench_backend())
    return plan(n, config)


def oracle_for(name: str, n: int, backend: Optional[str] = None) -> FTScheme:
    """The paper-exact scheme of a legacy scheme name, held by its cached plan.

    The paper's timing harnesses (Fig. 7, Table 1, the Section 7 tables)
    time ``oracle_for(name, n).execute`` on every row, the baseline
    included: every bar is then a paper-exact scheme over ``PlainFFT`` on
    the same two-layer substrate.  A plan's own ``execute`` runs the
    protected kernel instead, or for ``"fftw"`` the unchecked program, and
    would compare two different substrates.
    """

    return plan_for(name, n, backend).scheme


def make_input(n: int, seed: int = 20170712) -> np.ndarray:
    """The paper's default input: i.i.d. U(-1, 1) real and imaginary parts."""

    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def interleaved_best(
    callables: Dict[str, Callable[[], object]],
    *,
    repeats: int = 3,
    warmup: int = 1,
    inner: int = 1,
    estimator: str = "mean",
) -> Dict[str, float]:
    """Best-of-``repeats`` wall time per labelled callable, measured round-robin.

    Interleaving the candidates keeps slow drifts of the host machine (other
    tenants, thermal throttling) from systematically favouring whichever
    scheme happened to run last, which matters because the overhead
    percentages of Fig. 7 are differences of nearly equal quantities.

    With ``inner > 1`` each sample makes one *untimed* call that re-warms
    the caches the previous candidate evicted, then records the mean of the
    remaining ``inner - 1`` calls: steady-state throughput, which is what
    bandwidth-bound candidates (e.g. the packed real path) are actually
    compared on.

    ``estimator="min"`` times each of those calls individually and records
    the fastest one instead of their mean.  Ratios of near-equal candidates
    guarded by tight absolute budgets want this: the mean-of-a-few estimator
    carries each candidate's own noise variance into the ratio (the noisier
    candidate's best *sample* stays further above its floor), while
    floor-to-floor minima compare the candidates' actual steady states.
    """

    for _ in range(warmup):
        for fn in callables.values():
            fn()
    times: Dict[str, List[float]] = {name: [] for name in callables}
    timed_calls = inner - 1 if inner > 1 else 1
    use_min = estimator == "min" and timed_calls > 1
    for _ in range(repeats):
        for name, fn in callables.items():
            if inner > 1:
                fn()  # cache re-warm, excluded from the sample
            if use_min:
                best_call = float("inf")
                for _ in range(timed_calls):
                    start = time.perf_counter()
                    fn()
                    best_call = min(best_call, time.perf_counter() - start)
                times[name].append(best_call)
            else:
                start = time.perf_counter()
                for _ in range(timed_calls):
                    fn()
                times[name].append((time.perf_counter() - start) / timed_calls)
    return {name: min(values) for name, values in times.items()}


def interleaved_overhead(
    baseline: str,
    callables: Dict[str, Callable[[], object]],
    *,
    repeats: int = 9,
    warmup: int = 1,
) -> Dict[str, float]:
    """Overhead (percent) of each callable relative to ``baseline``.

    All candidates are timed round-robin (see :func:`interleaved_best`) and
    the overhead is computed from the per-scheme minima.
    """

    if baseline not in callables:
        raise KeyError(f"baseline {baseline!r} missing from callables")
    # The development hosts for this reproduction show periodic external
    # interference (a rotating ~30 ms stall that lands on whichever scheme
    # happens to be executing).  The minimum over many interleaved rounds is
    # the estimator that survives it: with enough rounds every scheme gets at
    # least one undisturbed slot, whereas means/medians inherit the stall.
    best = interleaved_best(callables, repeats=max(repeats, 7), warmup=warmup)
    base = best[baseline]
    return {
        name: 100.0 * (value - base) / base
        for name, value in best.items()
        if name != baseline
    }


def save_table(table: Table, filename: str) -> Path:
    """Render ``table`` and persist it under ``benchmarks/results/``."""

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / filename
    path.write_text(table.render() + "\n", encoding="utf-8")
    # Also echo to stdout; visible with ``pytest -s`` and harmless otherwise.
    print()
    print(table.render())
    return path


def relative_error(reference: np.ndarray, candidate: np.ndarray) -> float:
    reference = np.asarray(reference)
    candidate = np.asarray(candidate)
    return float(np.max(np.abs(candidate - reference)) / np.max(np.abs(reference)))
