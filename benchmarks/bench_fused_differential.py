"""Nightly differential sweep: the protected kernel vs the legacy scheme.

Fault-free protected runs go through the plan's protected kernel - the
paper's one end-to-end check (``c . x = r . X``) around the plan's own
lowering, tapped by :class:`repro.fftlib.protected.ProtectedStageProgram` -
instead of the paper-exact group-wise scheme.  That path is only sound if
it is *indistinguishable* from the legacy path on everything except speed,
so this harness sweeps randomized trials (``REPRO_BENCH_TRIALS``, 200 in
the nightly run) over both protected schemes and asserts, per trial:

* **spectrum** - the kernel's output is *bitwise* identical to the plan's
  own program (``get_program(n)``, native stage bodies where the tier is
  up; ``numpy.fft.fft`` itself on the ``+numpy`` backend) and within
  roundoff of the legacy scheme path (the legacy path uses different
  sub-FFTs and reduction order);
* **check** - the output checksum ``r . X`` the tap returns is exactly one
  dot over that spectrum;
* **decision** - both paths agree the run is clean: no detected
  verification, no corrections, no uncorrectable faults;
* **routing/coverage** - a live injector on the *same plan object* routes
  through the paper-exact scheme machinery and every random high-bit flip
  (the Table 6 fault model) is detected, corrected, and leaves < 1e-8
  relative output error.

The strict fault campaign is gated behind
``REPRO_BENCH_REQUIRE_FULL_COVERAGE=1`` like the Table 6 gate; the
fault-free differential is deterministic and always runs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from _harness import campaign_trials, env_int, plan_for, save_table
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSite
from repro.fftlib import get_program
from repro.utils.reporting import Table

SCHEMES = ["opt-offline+mem", "opt-online+mem"]
SITES = [FaultSite.STAGE1_INPUT, FaultSite.INTERMEDIATE, FaultSite.OUTPUT]


def _size() -> int:
    return env_int("REPRO_BENCH_COVERAGE_N", 2**12)


def _trial_input(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


def _clean_report(report) -> bool:
    return (
        not any(v.detected for v in report.verifications)
        and not report.corrections
        and not report.uncorrectable
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_fault_free_differential(scheme):
    """The kernel == the plan's program (bitwise) == legacy scheme (roundoff)."""

    n = _size()
    p = plan_for(scheme, n)
    fused_program = p._tap
    assert fused_program is not None, "a protected plan must carry a tap"
    program = get_program(n)
    assert fused_program.program is program, "the check must wrap the plan's own lowering"
    rng = np.random.default_rng(20170712)
    trials = campaign_trials()
    for trial in range(trials):
        x = _trial_input(rng, n)
        fused = p.execute(x)
        compiled = program.execute(x.reshape(1, n)).reshape(n)
        assert np.array_equal(fused.output, compiled), (
            f"{scheme} trial {trial}: the kernel's spectrum is not bitwise-identical "
            "to the plan's own program"
        )
        _, rx = fused_program.execute_tapped(x)
        assert rx == complex(np.dot(fused_program.r, compiled)), (
            f"{scheme} trial {trial}: the check is not one dot over the spectrum"
        )
        legacy = p.scheme.execute(x)
        assert np.allclose(fused.output, legacy.output, rtol=1e-9, atol=1e-9), (
            f"{scheme} trial {trial}: fused and legacy spectra diverge"
        )
        assert _clean_report(fused.report) and _clean_report(legacy.report), (
            f"{scheme} trial {trial}: paths disagree on the clean-run decision"
        )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_numpy_backend_fault_free_differential(scheme):
    """On ``+numpy`` the kernel wraps ``numpy.fft.fft`` itself: same spectrum, clean."""

    n = _size()
    p = plan_for(scheme, n, backend="numpy")
    rng = np.random.default_rng(20171113)
    for trial in range(campaign_trials()):
        x = _trial_input(rng, n)
        result = p.execute(x)
        # reprolint: fft-ok - the backend the kernel wraps is the oracle
        assert np.array_equal(result.output, np.fft.fft(x)), (
            f"{scheme}+numpy trial {trial}: spectrum is not numpy.fft.fft's"
        )
        assert _clean_report(result.report), f"{scheme}+numpy trial {trial}: not clean"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_batch_differential(scheme):
    """``execute_many`` (amortized thresholds) matches per-vector fused runs."""

    n = _size()
    p = plan_for(scheme, n)
    rng = np.random.default_rng(20171112)
    batch = max(4, min(32, campaign_trials() // 8))
    xs = np.stack([_trial_input(rng, n) for _ in range(batch)])
    many = p.execute_many(xs)
    singles = np.stack([p.execute(x).output for x in xs])
    assert np.array_equal(np.asarray(many.output), singles), (
        f"{scheme}: batched fused spectra differ from per-vector fused spectra"
    )
    assert _clean_report(many.report)


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_REQUIRE_FULL_COVERAGE") != "1",
    reason="nightly-only strict gate (set REPRO_BENCH_REQUIRE_FULL_COVERAGE=1)",
)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_fused_plan_fault_campaign(scheme):
    """Random high-bit flips on the fused plan: 100% detection and correction.

    The injector is live, so the plan must route around the fused program
    into the paper-exact scheme path; the Table 6 fault model (one random
    bit 50-62 flip at a random site/element) must then be fully detected
    and corrected exactly as it is without a fused program.
    """

    n = _size()
    p = plan_for(scheme, n)
    assert p._tap is not None
    rng = np.random.default_rng(20171112)
    trials = campaign_trials()
    undetected, uncorrected, dirty = [], [], []
    for trial in range(trials):
        x = _trial_input(rng, n)
        injector = FaultInjector().arm_bitflip(
            SITES[trial % len(SITES)],
            element=int(rng.integers(0, n)),
            bit=int(rng.integers(50, 63)),
            imaginary=bool(rng.integers(0, 2)),
        )
        result = p.execute(x, injector)
        assert injector.events, f"{scheme} trial {trial}: fault never fired"
        report = result.report
        if not any(v.detected for v in report.verifications):
            undetected.append(trial)
        if not report.corrections or report.uncorrectable:
            uncorrected.append(trial)
        reference = np.fft.fft(x)  # reprolint: fft-ok - raw reference oracle
        err = float(np.max(np.abs(result.output - reference)) / np.max(np.abs(reference)))
        if err > 1e-8:
            dirty.append(trial)
    table = Table(
        f"Fused differential fault campaign - {scheme} (n={n}, {trials} trials)",
        ["metric", "count"],
    )
    table.add_row("trials", trials)
    table.add_row("undetected", len(undetected))
    table.add_row("uncorrected", len(uncorrected))
    table.add_row("residual error > 1e-8", len(dirty))
    save_table(table, f"fused_differential_{scheme}.txt")
    assert not undetected, f"{scheme}: trials {undetected} went undetected"
    assert not uncorrected, f"{scheme}: trials {uncorrected} were not corrected"
    assert not dirty, f"{scheme}: trials {dirty} left residual output error"
