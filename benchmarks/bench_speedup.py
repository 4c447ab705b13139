"""FFT engine speedup benchmark: compiled stage programs vs their baselines.

Times, per size, on the same machine and interleaved (so machine-noise
drifts cannot bias the ratios):

* ``compiled``  - ``plan_fft(n, backend="fftlib", native=False).execute``:
  the compiled iterative stage program of :mod:`repro.fftlib.executor` on
  its NumPy stage bodies (the baseline the other compiled columns are
  measured against; ``inplace`` and ``rfft_compiled`` ask for the NumPy
  bodies too);
* ``numpy``     - the pocketfft backend through the same plan interface
  (the compiled-C reference point);
* ``protected`` - the full ``opt-online+mem`` ABFT transform through
  ``repro.plan(n, backend="fftlib")`` (what the paper's overhead figures
  are measured on top of): the end-to-end check around the plan's own
  lowering, which runs the native stage bodies wherever the tier is up;
* ``protected_inverse`` - the same plan's ``inverse`` of the protected
  spectrum.  ``inverse_over_protected_ratio`` is ``protected_inverse /
  protected``: the inverse runs the forward's program and check plus one
  finish pass, so a conjugation pass or copy coming back shows up here;
* ``rfft_compiled`` - the compiled half-complex real-input path
  (``plan_fft(n, real=True)``: half-length complex program + one repack
  pass);
* ``rfft_complex_engine`` - the same real input pushed through the complex
  compiled engine and truncated to ``n//2 + 1`` bins (what real workloads
  paid before real plans existed);
* ``rfft_numpy`` - ``numpy.fft.rfft`` through the real plan interface;
* ``inplace`` - the in-place Stockham program
  (``plan_fft(n, inplace=True)``: caller's buffer + one half-size scratch,
  no ping-pong pair, no output allocation), timed overwrite-style on a
  reused buffer;
* ``native`` - the generated-C codelet tier (``plan_fft(n)``, the default
  lowering: the same stage schedule executed by compiled combine/base
  kernels loaded via ctypes, one foreign call per transform);
* ``rfft_native`` - the real-input path with the native half-length
  program underneath;
* ``protected_traced`` - the protected path with event tracing enabled
  (ring sink) for the call's duration.  ``telemetry_overhead_ratio`` is
  ``protected_traced / protected`` from the same interleaved run - a
  same-machine ratio like every other column - and ``--check`` enforces
  the :mod:`repro.telemetry` contract that it stays at most
  ``TELEMETRY_RATIO_MAX`` (1.02x): turning the observability layer on may
  not cost the fault-free protected path more than 2%.

The two native columns are recorded as ``null`` (and their gates skipped)
when the tier is unavailable - no working C compiler on the host, or
``REPRO_NO_NATIVE=1``.  When the columns *are* present, ``--check``
enforces absolute floors on the committed reference alongside the
protected budget: ``speedup_native_vs_compiled`` at least 1.25x from 2^16
up, and ``speedup_native_vs_numpy`` at least 0.9x at every size (the
generated kernels must approach pocketfft, the compiled-C reference
point, or the tier is not paying for its complexity).

Machine-readable results are written to ``BENCH_fft_speed.json`` at the
repository root so the perf trajectory of the compiled path is tracked in
version control; a human-readable table lands in ``benchmarks/results/``.

``--check`` turns the script into a CI regression gate: fresh numbers are
compared against the *committed* ``BENCH_fft_speed.json`` (which is then
left untouched) and the run fails when any tracked speedup ratio collapsed
by more than ``REPRO_BENCH_CHECK_TOLERANCE`` (default 2.5x) - generous
enough for machine noise across CI hosts, tight enough that "the compiled
path silently lost its advantage" fails the PR instead of shipping.  It
also fails when none of ``REPRO_BENCH_SIZES`` is in the committed
reference: a gate that compares nothing must not pass.
``--check`` also enforces the *absolute* fused-protection budget on the
committed reference, against the NumPy baseline
(``protected_over_compiled_ratio``) and against the plan's own lowering
(``protected_over_native_ratio``, the protected path's real overhead once
both run the native kernels; null without the tier): each at most 2x
everywhere and at most 1.5x from 2^16 up.  A regenerated reference that
busts the paper's low-overhead claim fails every subsequent CI run, and
the regenerate path refuses to bless such numbers in the first place.  The
regenerate path also reports whether ``protected_over_native_ratio`` meets
the tighter 1.3x target from 2^16 up (reported, not gated).

Environment knobs: ``REPRO_BENCH_SIZES`` (default ``65536 262144 1048576``,
up to the paper's 2^20 benchmark regime; sizes below ~2^14 are dominated by
fixed per-stage Python dispatch cost on every engine, which masks the
flop-level ratios the columns track), ``REPRO_BENCH_REPEATS`` (default 7),
``REPRO_BENCH_INNER`` (default 4: one untimed cache re-warm call plus three
timed steady-state calls per interleaved sample; raise it when regenerating
the reference so the near-equal protected/telemetry ratios average over
more steady-state calls).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
from pathlib import Path

import numpy as np

from _harness import env_int, env_int_list, interleaved_best, make_input, save_table

import repro
from repro.fftlib.native import native_supported
from repro.fftlib.planner import plan_fft
from repro.utils.reporting import Table

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_fft_speed.json"

DEFAULT_SIZES = (65536, 262144, 1048576)

#: ratio keys guarded by ``--check``; True = higher is better.
CHECKED_RATIOS = {
    "speedup_real_vs_complex_engine": True,
    "speedup_inplace_vs_compiled": True,
    "speedup_native_vs_compiled": True,
    "speedup_native_vs_numpy": True,
    "speedup_rfft_native_vs_compiled": True,
    # protected overhead: lower is better (ratio of protected over compiled)
    "protected_over_compiled_ratio": False,
    "protected_over_native_ratio": False,
    # the protected inverse over the protected forward: lower is better
    "inverse_over_protected_ratio": False,
    # tracing-enabled over tracing-disabled protected time: lower is better
    "telemetry_overhead_ratio": False,
}

#: Absolute budget for the fused protected path: the paper's low-overhead
#: claim, enforced on the *committed* reference numbers (same-machine
#: interleaved timings; fresh CI numbers are only held to the relative
#: tolerance, since a noisy shared runner should not flake an absolute gate).
PROTECTED_RATIO_MAX = 2.0
#: Tighter budget where the O(n) checksum work amortizes (>= 2^16 the
#: transform is memory-bound and the protection adds ~2 passes over the data).
PROTECTED_RATIO_MAX_LARGE = 1.5
PROTECTED_RATIO_LARGE_MIN_N = 65536
#: The protected kernel's target overhead over the plan's own (native)
#: lowering from 2^16 up; reported at regeneration, not gated.
PROTECTED_NATIVE_TARGET = 1.3
#: the overhead ratios the absolute budget applies to
PROTECTED_RATIOS = ("protected_over_compiled_ratio", "protected_over_native_ratio")


#: Absolute floors for the generated-C native tier, enforced (like the
#: protected budget) on the committed reference and at regeneration time.
#: Both gates are skipped for rows whose native columns are null - the
#: machine that produced the reference had no usable C compiler.
NATIVE_VS_COMPILED_MIN = 1.25
NATIVE_VS_COMPILED_MIN_N = 65536
NATIVE_VS_NUMPY_MIN = 0.9

#: Absolute ceiling for ``telemetry_overhead_ratio`` (tracing-enabled over
#: tracing-disabled protected time, same interleaved run): the telemetry
#: subsystem's contract that observability costs the fault-free hot path at
#: most 2%.  Enforced like the protected budget - deterministically on the
#: committed reference, and at regeneration time before blessing new JSON.
TELEMETRY_RATIO_MAX = 1.02


def protected_budget(n: int) -> float:
    """Absolute ``protected_over_compiled_ratio`` bound for size ``n``."""

    return PROTECTED_RATIO_MAX_LARGE if n >= PROTECTED_RATIO_LARGE_MIN_N else PROTECTED_RATIO_MAX


def check_protected_budget(rows: list, label: str) -> list:
    """Absolute overhead violations of the fused protected path, as strings."""

    violations = []
    for row in rows:
        budget = protected_budget(int(row["n"]))
        for key in PROTECTED_RATIOS:
            ratio = row.get(key)
            if ratio is not None and ratio > budget:
                violations.append(
                    f"n={row['n']}: {key} {ratio:.3f} exceeds the {budget}x budget ({label})"
                )
    return violations


def check_telemetry_budget(rows: list, label: str) -> list:
    """Absolute telemetry-overhead violations, as strings (null columns skip)."""

    violations = []
    for row in rows:
        ratio = row.get("telemetry_overhead_ratio")
        if ratio is None:
            continue
        if ratio > TELEMETRY_RATIO_MAX:
            violations.append(
                f"n={row['n']}: telemetry_overhead_ratio {ratio:.3f} exceeds "
                f"the {TELEMETRY_RATIO_MAX}x ceiling ({label})"
            )
    return violations


def check_native_floors(rows: list, label: str) -> list:
    """Absolute native-tier floor violations, as strings (null columns skip)."""

    violations = []
    for row in rows:
        n = int(row["n"])
        vs_compiled = row.get("speedup_native_vs_compiled")
        vs_numpy = row.get("speedup_native_vs_numpy")
        if (
            vs_compiled is not None
            and n >= NATIVE_VS_COMPILED_MIN_N
            and vs_compiled < NATIVE_VS_COMPILED_MIN
        ):
            violations.append(
                f"n={n}: speedup_native_vs_compiled {vs_compiled:.3f} below "
                f"the {NATIVE_VS_COMPILED_MIN}x floor ({label})"
            )
        if vs_numpy is not None and vs_numpy < NATIVE_VS_NUMPY_MIN:
            violations.append(
                f"n={n}: speedup_native_vs_numpy {vs_numpy:.3f} below "
                f"the {NATIVE_VS_NUMPY_MIN}x floor ({label})"
            )
    return violations


def run(write: bool = True) -> dict:
    sizes = env_int_list("REPRO_BENCH_SIZES", DEFAULT_SIZES)
    repeats = env_int("REPRO_BENCH_REPEATS", 7)
    inner = env_int("REPRO_BENCH_INNER", 4)

    with_native = native_supported()
    table = Table(
        "FFT engine speedup (best-of interleaved timings)",
        [
            "n",
            "compiled [ms]",
            "native [ms]",
            "inplace [ms]",
            "numpy [ms]",
            "protected [ms]",
            "rfft [ms]",
            "native vs compiled",
            "native vs numpy",
            "inplace vs compiled",
            "protected vs compiled",
            "protected vs native",
            "inverse vs protected",
            "telemetry overhead",
            "rfft speedup",
        ],
    )
    results = []
    for n in sizes:
        x = make_input(int(n))
        xr = np.real(x).copy()
        bins = int(n) // 2 + 1
        compiled_plan = plan_fft(int(n), backend="fftlib", native=False)
        inplace_plan = plan_fft(int(n), backend="fftlib", inplace=True, native=False)
        numpy_plan = plan_fft(int(n), backend="numpy")
        protected_plan = repro.plan(int(n), backend="fftlib")
        spectrum = protected_plan.execute(x).output
        real_plan = plan_fft(int(n), backend="fftlib", real=True, native=False)
        real_numpy_plan = plan_fft(int(n), backend="numpy", real=True)
        # overwrite-style timing: refill the reused buffer, transform it in
        # place - what a memory-constrained caller actually pays per call.
        work_buf = np.empty(int(n), dtype=np.complex128)

        def run_inplace(x=x, p=inplace_plan, buf=work_buf):
            np.copyto(buf, x)
            return p.execute_inplace(buf)

        def run_protected_traced(x=x, p=protected_plan):
            # Event tracing on (ring sink only) for exactly this call: the
            # interleaved ratio against the plain protected candidate is the
            # telemetry layer's measured cost on the fault-free hot path.
            repro.telemetry.enable_trace()
            try:
                return p.execute(x)
            finally:
                repro.telemetry.disable_trace()

        candidates = {
            "compiled": lambda x=x, p=compiled_plan: p.execute(x),
            "inplace": run_inplace,
            "numpy": lambda x=x, p=numpy_plan: p.execute(x),
            "protected": lambda x=x, p=protected_plan: p.execute(x),
            "protected_inverse": lambda s=spectrum, p=protected_plan: p.inverse(s),
            "protected_traced": run_protected_traced,
            "rfft_compiled": lambda xr=xr, p=real_plan: p.execute(xr),
            # the pre-real-plan cost of a real workload: complexify, run the
            # compiled complex engine, keep the non-redundant bins
            "rfft_complex_engine": lambda xr=xr, p=compiled_plan, b=bins: p.execute(
                xr.astype(np.complex128)
            )[:b],
            "rfft_numpy": lambda xr=xr, p=real_numpy_plan: p.execute(xr),
        }
        if with_native:
            native_plan = plan_fft(int(n), backend="fftlib")
            real_native_plan = plan_fft(int(n), backend="fftlib", real=True)
            candidates["native"] = lambda x=x, p=native_plan: p.execute(x)
            candidates["rfft_native"] = lambda xr=xr, p=real_native_plan: p.execute(xr)
        # one cache re-warm call + inner-1 steady-state calls per sample
        # (the candidates share the cache round-robin).  The min estimator
        # keeps per-candidate noise variance out of the near-equal ratios
        # the absolute budgets gate (protected vs compiled, traced vs
        # untraced): floor-to-floor, not mean-to-mean.
        best = interleaved_best(
            candidates, repeats=repeats, warmup=1, inner=inner, estimator="min"
        )
        inplace_speedup = best["compiled"] / best["inplace"]
        protected_ratio = best["protected"] / best["compiled"]
        inverse_ratio = best["protected_inverse"] / best["protected"]
        telemetry_ratio = best["protected_traced"] / best["protected"]
        real_speedup = best["rfft_complex_engine"] / best["rfft_compiled"]
        if with_native:
            native_vs_compiled = float(best["compiled"] / best["native"])
            native_vs_numpy = float(best["numpy"] / best["native"])
            rfft_native_speedup = float(best["rfft_compiled"] / best["rfft_native"])
            protected_native_ratio = float(best["protected"] / best["native"])
        else:
            native_vs_compiled = native_vs_numpy = rfft_native_speedup = None
            protected_native_ratio = None
        results.append(
            {
                "n": int(n),
                "seconds": {name: float(t) for name, t in best.items()},
                "protected_over_compiled_ratio": float(protected_ratio),
                "protected_over_native_ratio": protected_native_ratio,
                "inverse_over_protected_ratio": float(inverse_ratio),
                "telemetry_overhead_ratio": float(telemetry_ratio),
                "speedup_inplace_vs_compiled": float(inplace_speedup),
                "speedup_real_vs_complex_engine": float(real_speedup),
                "speedup_real_vs_numpy_rfft": float(best["rfft_numpy"] / best["rfft_compiled"]),
                "speedup_native_vs_compiled": native_vs_compiled,
                "speedup_native_vs_numpy": native_vs_numpy,
                "speedup_rfft_native_vs_compiled": rfft_native_speedup,
            }
        )
        table.add_row(
            str(n),
            f"{best['compiled'] * 1e3:.3f}",
            f"{best['native'] * 1e3:.3f}" if with_native else "-",
            f"{best['inplace'] * 1e3:.3f}",
            f"{best['numpy'] * 1e3:.3f}",
            f"{best['protected'] * 1e3:.3f}",
            f"{best['rfft_compiled'] * 1e3:.3f}",
            f"{native_vs_compiled:.2f}x" if with_native else "-",
            f"{native_vs_numpy:.2f}x" if with_native else "-",
            f"{inplace_speedup:.2f}x",
            f"{protected_ratio:.2f}x",
            f"{protected_native_ratio:.2f}x" if with_native else "-",
            f"{inverse_ratio:.2f}x",
            f"{telemetry_ratio:.3f}x",
            f"{real_speedup:.2f}x",
        )

    payload = {
        "benchmark": "bench_speedup",
        "description": (
            "plan_fft(n, native=False).execute (compiled stage programs on "
            "NumPy bodies) vs the numpy backend and the fully protected "
            "opt-online+mem plan (one end-to-end check around the default, "
            "native lowering: "
            "protected_over_native_ratio is its overhead over that lowering; "
            "inverse_over_protected_ratio is that plan's inverse over its "
            "forward); "
            "rfft_* columns compare the compiled half-complex real path against "
            "the complex engine on the same real input and numpy.fft.rfft; the "
            "inplace column is the Stockham autosort program overwriting a "
            "reused buffer (half the working set of the ping-pong path); the "
            "native/rfft_native columns are the generated-C codelet tier "
            "(null when the machine has no usable C compiler); "
            "protected_traced is the protected path with event tracing "
            "enabled, so telemetry_overhead_ratio is the measured cost of "
            "turning the observability layer on"
        ),
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cores": os.cpu_count(),
        },
        "repeats": repeats,
        "inner": inner,
        "results": results,
    }
    if write:
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"\nwrote {JSON_PATH}")
    save_table(table, "fft_speedup.txt")
    return payload


def check(payload: dict) -> None:
    """Assert the compiled real path beats the complex engine on real input.

    Enforced by both the pytest entry point and the ``__main__`` path CI's
    bench smoke actually executes, so a regression fails the run either way.
    """

    for row in payload["results"]:
        # Below ~2^14 both engines are dispatch-bound and the half-complex
        # flop advantage sits inside the noise band; only assert where the
        # ratio is meaningful.
        if row["n"] >= 16384:
            assert row["speedup_real_vs_complex_engine"] > 1.0, row


def check_against_reference(payload: dict, reference: dict, tolerance: float) -> list:
    """Compare fresh ratios to the committed reference; return regressions.

    Only sizes present in both runs are compared (the CI smoke runs a small
    subset of the committed sweep).  A ratio regresses when it collapsed by
    more than ``tolerance`` relative to the recorded value - e.g. with the
    default 2.5, a recorded 2.5x native-vs-compiled speedup fails below
    1x.  Absolute milliseconds are deliberately not compared: CI hosts and
    the machine that produced the committed numbers differ, ratios of
    same-machine interleaved timings do not.
    """

    ref_rows = {row["n"]: row for row in reference.get("results", [])}
    regressions = []
    for row in payload["results"]:
        ref = ref_rows.get(row["n"])
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
                    f"n={row['n']}: {key} regressed to {fresh_value:.2f} "
                    f"(recorded {ref_value:.2f}, tolerance {tolerance}x)"
                )
    return regressions


def run_check() -> int:
    """The ``--check`` CI gate: fresh smoke numbers vs the committed JSON."""

    if not JSON_PATH.exists():
        print(f"error: no committed reference at {JSON_PATH}; run without --check first")
        return 2
    reference = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    tolerance = float(os.environ.get("REPRO_BENCH_CHECK_TOLERANCE", "2.5"))
    recorded = [row["n"] for row in reference.get("results", [])]
    sizes = env_int_list("REPRO_BENCH_SIZES", DEFAULT_SIZES)
    compared = [n for n in sizes if n in recorded]
    if not compared:
        print(
            f"error: none of the sizes {sizes} is in the committed reference "
            f"{recorded}, so the gate would compare nothing"
        )
        return 1
    # The committed numbers themselves must honor the protection budget -
    # this is deterministic (no fresh timing involved), so a regenerated
    # reference that busts the paper's overhead claim fails every CI run.
    budget_violations = check_protected_budget(
        reference.get("results", []), "committed reference"
    )
    budget_violations += check_native_floors(
        reference.get("results", []), "committed reference"
    )
    budget_violations += check_telemetry_budget(
        reference.get("results", []), "committed reference"
    )
    if budget_violations:
        print("\nabsolute benchmark budgets FAILED (committed reference):")
        for line in budget_violations:
            print(f"  - {line}")
        return 1
    payload = run(write=False)  # never clobber the reference in check mode
    check(payload)
    regressions = check_against_reference(payload, reference, tolerance)
    if regressions:
        print("\nbenchmark regression gate FAILED:")
        for line in regressions:
            print(f"  - {line}")
        return 1
    print(
        f"\nbenchmark regression gate passed: sizes {compared} within "
        f"{tolerance}x of the committed ratios"
    )
    return 0


def test_bench_speedup():
    """Pytest entry point: the compiled real path must beat its baseline."""

    check(run())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh numbers against the committed BENCH_fft_speed.json "
             "and exit non-zero on a regression (the committed file is not "
             "overwritten)",
    )
    cli_args = parser.parse_args()
    if cli_args.check:
        raise SystemExit(run_check())
    payload = run()
    check(payload)
    budget_violations = check_protected_budget(payload["results"], "fresh run")
    budget_violations += check_native_floors(payload["results"], "fresh run")
    budget_violations += check_telemetry_budget(payload["results"], "fresh run")
    if budget_violations:
        print("\nabsolute benchmark budgets FAILED for the regenerated numbers:")
        for line in budget_violations:
            print(f"  - {line}")
        print("do not commit this BENCH_fft_speed.json")
        raise SystemExit(1)
    worst_real = min(r["speedup_real_vs_complex_engine"] for r in payload["results"])
    worst_ip = min(r["speedup_inplace_vs_compiled"] for r in payload["results"])
    print(f"worst rfft-vs-complex-engine speedup: {worst_real:.2f}x")
    print(f"worst inplace-vs-compiled ratio: {worst_ip:.2f}x")
    native_ratios = [
        r["speedup_native_vs_compiled"]
        for r in payload["results"]
        if r.get("speedup_native_vs_compiled") is not None
    ]
    if native_ratios:
        print(f"worst native-vs-compiled speedup: {min(native_ratios):.2f}x")
    large = [
        r["protected_over_native_ratio"]
        for r in payload["results"]
        if r.get("protected_over_native_ratio") is not None
        and r["n"] >= PROTECTED_RATIO_LARGE_MIN_N
    ]
    if large:
        verdict = "met" if max(large) <= PROTECTED_NATIVE_TARGET else "NOT met"
        print(
            f"worst protected-over-native ratio from 2^16 up: {max(large):.2f}x "
            f"({PROTECTED_NATIVE_TARGET}x target {verdict})"
        )
