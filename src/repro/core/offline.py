"""The classical offline ABFT FFT (Algorithm 1 of the paper).

The offline scheme computes the input checksum ``c . x`` (with ``c = r A``)
before the transform, runs the *whole* FFT, and compares ``r . X`` against
the stored value at the very end.  A detected error - no matter how early it
occurred - forces a restart of the entire transform, which is exactly the
weakness the online scheme removes.

Two variants are provided:

* ``optimized=False`` ("Offline" in Fig. 7): the encoding vector ``rA`` is
  evaluated with one trigonometric call per element and, when memory fault
  tolerance is enabled, the classic ``(1..1)/(1..n)`` locating pair is
  computed in separate passes (14N operations in the paper's accounting).
* ``optimized=True`` ("Opt-Offline"): ``rA`` is evaluated with the
  closed-form/split-table method (O(sqrt(N)) trigonometric calls) and the
  locating pair reuses ``rA`` (Section 4.1), for 10N checksum operations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import FTScheme
from repro.core.checksums import (
    halfcomplex_sum,
    repair_single_error,
    weighted_sum,
)
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.plain import two_layer_run
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.models import FaultSite
from repro.fftlib.two_layer import TwoLayerPlan

__all__ = ["OfflineABFT"]


class OfflineABFT(FTScheme):
    """Offline ABFT FFT with optional memory fault tolerance."""

    def __init__(
        self,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        optimized: bool = True,
        memory_ft: bool = False,
        thresholds: Optional[ThresholdPolicy] = None,
        max_retries: int = 2,
        group_size: int = 32,
        backend: Optional[str] = None,
        real: bool = False,
        constants: Optional[SchemeConstants] = None,
    ) -> None:
        super().__init__(n, thresholds=thresholds, real=real)
        self.plan = TwoLayerPlan(n, m, k, backend=backend)
        self.optimized = bool(optimized)
        self.memory_ft = bool(memory_ft)
        self.max_retries = int(max_retries)
        self.group_size = max(1, int(group_size))
        self.name = ("opt-offline" if optimized else "offline") + ("+mem" if memory_ft else "")
        # Plan-time constants: the end-to-end encoding vector (naive or
        # closed-form) and the locating pair are size-only functions, built
        # once here instead of on every run.
        if (
            constants is None
            or constants.n != self.n
            or constants.c_n is None
            or constants.real != self.real
            or (self.real and constants.hc_a is None)
        ):
            constants = SchemeConstants.for_offline(
                self.n, self.plan.m, self.plan.k,
                optimized=self.optimized,
                memory_ft=self.memory_ft,
                real=self.real,
            )
        self.constants = constants

    # ------------------------------------------------------------------
    def _execute_plan(self, x: np.ndarray, injector) -> np.ndarray:
        """One unchecked run of the full transform (the plain baseline's traversal).

        In real mode the OUTPUT site strikes the packed spectrum (the array
        the caller receives); the end-to-end verification in _run checks
        exactly that layout, so a hit here is detected and restarted.
        """

        output = self._pack(two_layer_run(self.plan, x, injector, self.group_size))
        injector.visit(FaultSite.OUTPUT, output)
        return output

    # ------------------------------------------------------------------
    def _pack(self, output: np.ndarray) -> np.ndarray:
        """Keep the non-redundant ``n//2 + 1`` bins in real mode."""

        if not self.real:
            return output
        return np.ascontiguousarray(output[: self.bins])

    def _output_checksum(self, output: np.ndarray) -> complex:
        """``r . X`` - on the packed layout via the conjugate-even fold."""

        consts = self.constants
        if self.real:
            return halfcomplex_sum(consts.hc_a, consts.hc_b, output)
        return weighted_sum(consts.r_n, output)

    # ------------------------------------------------------------------
    def _run(self, x: np.ndarray, injector, report: FTReport) -> np.ndarray:
        n = self.n
        consts = self.constants

        # ----- encoding: plan-time vectors, per-run data checksums --------
        # (Algorithm 1 never DMR-protects its encoding vector, so the
        # constants are used on every path; only the x-dependent weighted
        # sums are computed here.  In real mode the input encoding is
        # unchanged - rA applies to the real samples as-is - while the
        # output reduction folds onto the packed layout, see
        # _output_checksum.)
        c = consts.c_n

        # One robust sample of the input feeds every x-derived threshold.
        x_rms = self.thresholds.magnitude_rms(x)
        sigma0 = float(x_rms / np.sqrt(2.0))

        if self.memory_ft:
            w1, w2 = consts.w1_n, consts.w2_n
            s1 = weighted_sum(w1, x)
            s2 = weighted_sum(w2, x)
            if self.optimized and w1 is c:
                # Section 4.1: rA doubles as the first locating vector, so
                # one weighted sum serves both purposes.
                cx = s1
            else:
                cx = weighted_sum(c, x)
            eta_mem = self.thresholds.eta_memory(
                w1, x, weight_rms=consts.w1_n_rms, data_rms=x_rms
            )
        else:
            w1 = w2 = None
            s1 = s2 = None
            eta_mem = 0.0
            cx = weighted_sum(c, x)

        eta = self.thresholds.eta_offline(n, x, sigma0=sigma0)

        # Faults may strike the input only after the checksums exist (the
        # paper's fault model excludes faults during checksum generation).
        injector.visit(FaultSite.INPUT, x)

        # ----- compute, verify at the end, restart on error ---------------
        output = None
        attempts = 0
        while True:
            attempts += 1
            output = self._execute_plan(x, injector)
            residual = float(np.abs(self._output_checksum(output) - cx))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("offline-ccv", None, residual, eta, detected)
            if not detected:
                break
            if self.memory_ft:
                # Distinguish an input memory fault from a computational one:
                # verify the input against its stored locating checksums and
                # repair it before restarting.
                mem_residual = float(np.abs(weighted_sum(w1, x) - s1))
                mem_detected = bool(residual_exceeds(mem_residual, eta_mem))
                report.record_verification("offline-mcv", None, mem_residual, eta_mem, mem_detected)
                if mem_detected:
                    repaired = repair_single_error(x, w1, w2, s1, s2)
                    if repaired is None:
                        report.record_uncorrectable("offline: input corruption could not be located")
                        break
                    report.record_correction(
                        "memory-correct", "input", None, f"element {repaired[0]} repaired"
                    )
            if attempts > self.max_retries:
                report.record_uncorrectable(
                    f"offline: verification still failing after {self.max_retries} restarts"
                )
                break
            report.record_correction("restart", "offline", None, "full transform restarted")

        # ----- output protection (memory FT only) --------------------------
        if self.memory_ft and output is not None:
            # Real mode protects the packed spectrum with its own locating
            # pair (the stored layout is what a memory fault would corrupt).
            out_pair_w1 = consts.p1_h if self.real else w1
            out_s1 = weighted_sum(out_pair_w1, output)
            report.bump("output-mcg")
            # Verify immediately (the offline scheme has nothing to overlap
            # this with); a corruption of the output array after this point
            # is outside the scheme's window of protection.
            final_residual = float(np.abs(weighted_sum(out_pair_w1, output) - out_s1))
            report.record_verification("offline-output-mcv", None, final_residual, eta_mem, False)

        return output
