"""The optimized online ABFT scheme (Section 4 / Fig. 3).

This is the scheme the paper ships as FT-FFTW.  It keeps the two-layer
online structure of :class:`repro.core.online.OnlineABFT` but applies the
four sequential optimizations:

1. **Modified memory checksums** (Section 4.1): the computational input
   checksum vector ``rA`` doubles as the first locating weight vector, so
   the input pass that produces the per-sub-FFT computational checksums also
   produces the memory checksums (CMCG); the second locating vector is
   ``j * (rA)_j``.
2. **Verification postponing** (Section 4.2): the memory verification of a
   first-part sub-FFT's input is postponed into (and absorbed by) its
   computational verification - only when that fails is the input checksum
   consulted to decide between a memory and a computational error.
3. **Incremental checksum generation** (Section 4.3): the memory checksums
   of the second-part inputs are accumulated while the first-part outputs
   are being produced, instead of re-reading the whole intermediate array.
4. **Contiguous buffering** (Section 4.4): the strided columns of each
   first-part group are gathered into a contiguous buffer once and all
   checksum/FFT work happens on that buffer.

Each optimization can be disabled individually through
:class:`repro.core.base.OptimizationFlags` for the ablation benchmarks.
A live injector sees groups of ``group_size`` sub-FFTs; a fault-free run
takes each part as one group, the same code with every toggle in effect
(its one group's columns are the whole contiguous working matrix, so the
contiguous gather copies nothing there).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import FTScheme, OptimizationFlags
from repro.core.checksums import (
    input_checksum_weights,
    repair_single_error,
    weighted_sum,
)
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.dmr import dmr_elementwise
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.models import FaultSite
from repro.fftlib.two_layer import TwoLayerPlan

__all__ = ["OptimizedOnlineABFT"]


class OptimizedOnlineABFT(FTScheme):
    """Optimized online two-layer ABFT FFT (the paper's FT-FFTW core)."""

    def __init__(
        self,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        memory_ft: bool = True,
        thresholds: Optional[ThresholdPolicy] = None,
        flags: Optional[OptimizationFlags] = None,
        backend: Optional[str] = None,
        real: bool = False,
        constants: Optional[SchemeConstants] = None,
    ) -> None:
        super().__init__(n, thresholds=thresholds, real=real)
        self.plan = TwoLayerPlan(n, m, k, backend=backend)
        self.memory_ft = bool(memory_ft)
        self.flags = flags or OptimizationFlags()
        self.name = "opt-online+mem" if memory_ft else "opt-online"
        # Plan-time constants: every weight vector below is data-independent,
        # so it is built once here (or handed down by FTPlan) instead of on
        # every run.  A live injector still sees the DMR-protected per-run
        # regeneration of the rA vectors inside _run.
        if (
            constants is None
            or constants.n != self.n
            or constants.m != self.plan.m
            or constants.c_m is None
            or (self.memory_ft and (constants.w1_m is None or constants.u1_k is None))
            # The modified-checksum flavor must match the flags (w1_m aliases
            # c_m exactly when the Section 4.1 reuse is in effect).
            or (
                self.memory_ft
                and bool(self.flags.modified_checksums) != (constants.w1_m is constants.c_m)
            )
            or constants.real != self.real
        ):
            constants = SchemeConstants.for_online(
                self.n, self.plan.m, self.plan.k,
                optimized=True,
                memory_ft=self.memory_ft,
                modified_checksums=bool(self.flags.modified_checksums),
                real=self.real,
            )
        self.constants = constants

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.plan.m

    @property
    def k(self) -> int:
        return self.plan.k

    # ------------------------------------------------------------------
    def _run(self, x: np.ndarray, injector, report: FTReport) -> np.ndarray:
        plan = self.plan
        m, k = plan.m, plan.k
        flags = self.flags
        consts = self.constants
        retries = max(1, int(flags.max_retries))
        # A live injector sees the paper's run: groups of ``group_size``
        # sub-FFTs, each one exposed to it, and the rA vectors regenerated
        # under DMR (it may target CHECKSUM_COMPUTE).  A fault-free run takes
        # each part as one group and the bit-identical plan-time vectors.
        live = getattr(injector, "is_live", True)
        group1 = group2 = max(1, int(flags.group_size))
        if not live:
            group1, group2 = k, m

        # ----- checksum vectors (optimized evaluation, DMR protected) --------
        r_m, r_k = consts.r_m, consts.r_k
        c_m, c_k = consts.c_m, consts.c_k
        # Locating weight vectors for the input columns (length m) and for the
        # intermediate/output rows (length k).
        w1_m, w2_m = consts.w1_m, consts.w2_m
        w1_k_out, w2_k_out = consts.w1_k, consts.w2_k
        if live:
            c_m = dmr_elementwise(
                lambda: input_checksum_weights(m),
                injector=injector,
                site=FaultSite.CHECKSUM_COMPUTE,
                index=0,
                report=report,
                label="checksum-vector-dmr",
            )
            c_k = dmr_elementwise(
                lambda: input_checksum_weights(k),
                injector=injector,
                site=FaultSite.CHECKSUM_COMPUTE,
                index=1,
                report=report,
                label="checksum-vector-dmr",
            )
            if flags.modified_checksums:
                # The modified pairs re-derived from the DMR-verified rA
                # vectors (the values are identical; only the provenance
                # differs).
                w1_m = c_m
                w2_m = c_m * np.arange(1, m + 1, dtype=np.float64)
                w1_k_out = c_k
                w2_k_out = c_k * np.arange(1, k + 1, dtype=np.float64)

        # One robust sample of the input feeds every x-derived threshold
        # (sigma0 is exactly what component_sigma would compute).
        x_rms = self.thresholds.magnitude_rms(x)
        sigma0 = float(x_rms / np.sqrt(2.0))
        eta1 = self.thresholds.eta_stage1(m, x, sigma0=sigma0)
        eta2 = self.thresholds.eta_stage2(k, m, x, sigma0=sigma0)

        # The incremental row checksums always use the classic pair: each
        # first-part output element simply adds itself into its row slot.
        u1_k, u2_k = consts.u1_k, consts.u2_k

        work = np.array(plan.gather_input(x))

        # ----- CMCG: one pass produces CCG + memory checksums of the input ----
        ccg1 = weighted_sum(c_m, work, axis=0)  # also the first memory checksum
        if self.memory_ft:
            if flags.modified_checksums:
                in_s1 = ccg1
            else:
                in_s1 = weighted_sum(w1_m, work, axis=0)
            in_s2 = weighted_sum(w2_m, work, axis=0)
            eta_mem_col = self.thresholds.eta_memory(
                w1_m, work, weight_rms=consts.w1_m_rms, data_rms=x_rms
            )
        else:
            in_s1 = in_s2 = None
            eta_mem_col = 0.0

        # Faults strike only after the protection exists.
        injector.visit(FaultSite.INPUT, work)
        injector.visit(FaultSite.STAGE1_INPUT, work)

        # ----- part 1: k m-point FFTs, verified per sub-FFT -------------------
        # Incremental checksums of the second-part inputs (rows), built as the
        # first-part outputs appear (Section 4.3).
        inc_s1 = np.zeros(m, dtype=np.complex128) if self.memory_ft else None
        inc_s2 = np.zeros(m, dtype=np.complex128) if self.memory_ft else None

        for start in range(0, k, group1):
            stop = min(start + group1, k)
            cols = slice(start, stop)

            if not flags.postpone_verification and self.memory_ft:
                # Un-postponed variant (ablation): verify inputs before use.
                self._verify_input_columns(
                    work, start, stop, w1_m, w2_m, in_s1, in_s2, eta_mem_col, report
                )

            if flags.contiguous_buffer:
                sub = plan.stage1_columns(work, start, stop)
            else:
                sub = plan.inner_plan.execute_batch(work[:, cols], axis=0)

            if live:
                for i in range(start, stop):
                    injector.visit(FaultSite.STAGE1_COMPUTE, sub[:, i - start], index=i)

            # Vectorized group verification: one GEMV for the output
            # checksums, one comparison; only violating sub-FFTs (a
            # non-finite or above-threshold residual) drop into the scalar
            # recovery path.
            residuals = np.abs(weighted_sum(r_m, sub, axis=0) - ccg1[cols])
            report.bump("verifications", stop - start)
            for local in np.nonzero(residual_exceeds(residuals, eta1))[0]:
                i = start + int(local)
                report.record_verification("stage1-ccv", i, float(residuals[local]), eta1, True)
                ok = self._recover_stage1(
                    work, sub, i, start, c_m, r_m, eta1,
                    w1_m, w2_m, in_s1, in_s2, eta_mem_col, injector, report, retries,
                )
                if not ok:
                    report.record_uncorrectable(f"stage1 sub-FFT {i} could not be corrected")

            if start == 0:  # a fault-free run keeps its one group's output as it is
                intermediate = np.empty_like(work) if live else sub
            if intermediate is not sub:
                intermediate[:, cols] = sub

            if self.memory_ft and flags.incremental_checksums:
                # Each output element adds itself to its row slot.
                inc_s1 += np.sum(sub, axis=1)
                inc_s2 += sub @ np.arange(start + 1, stop + 1, dtype=np.float64)

        if self.memory_ft and not flags.incremental_checksums:
            # The non-incremental variant re-reads the intermediate array.
            inc_s1 = weighted_sum(u1_k, intermediate, axis=1)
            inc_s2 = weighted_sum(u2_k, intermediate, axis=1)

        # Threshold derived from the (still clean) intermediate data *before*
        # faults may strike it.
        eta_mem_row = (
            self.thresholds.eta_memory(u1_k, intermediate, weight_rms=consts.u1_k_rms)
            if self.memory_ft
            else 0.0
        )

        injector.visit(FaultSite.INTERMEDIATE, intermediate)

        # ----- part 2: m k-point FFTs, twiddle DMR, verified per sub-FFT ------
        out_s1 = np.empty(m, dtype=np.complex128) if self.memory_ft else None
        out_s2 = np.empty(m, dtype=np.complex128) if self.memory_ft else None

        for start in range(0, m, group2):
            stop = min(start + group2, m)
            rows = slice(start, stop)

            # MCV of the second-part inputs (rows of the intermediate array),
            # against the incrementally built checksums.
            if self.memory_ft:
                self._verify_intermediate_rows(
                    intermediate, start, stop, u1_k, u2_k, inc_s1, inc_s2, eta_mem_row, report
                )

            # Twiddle multiplication under DMR (these rows only).
            twiddled = dmr_elementwise(
                lambda rows=rows: intermediate[rows, :] * plan.twiddles[rows, :],
                injector=injector,
                site=FaultSite.TWIDDLE_COMPUTE,
                index=start,
                report=report,
                label="twiddle-dmr",
            )
            injector.visit(FaultSite.STAGE2_INPUT, twiddled, index=start)

            # CCG for these k-point FFTs.
            ccg2 = weighted_sum(c_k, twiddled, axis=1)

            sub = plan.outer_plan.execute_batch(twiddled, axis=1)
            if live:
                for j in range(start, stop):
                    injector.visit(FaultSite.STAGE2_COMPUTE, sub[j - start, :], index=j)

            residuals = np.abs(weighted_sum(r_k, sub, axis=1) - ccg2)
            report.bump("verifications", stop - start)
            for local in np.nonzero(residual_exceeds(residuals, eta2))[0]:
                j = start + int(local)
                report.record_verification("stage2-ccv", j, float(residuals[local]), eta2, True)
                ok = self._recover_stage2(
                    twiddled, sub, j, start, c_k, r_k, eta2, injector, report, retries
                )
                if not ok:
                    report.record_uncorrectable(f"stage2 sub-FFT {j} could not be corrected")

            if start == 0:
                result = np.empty_like(intermediate) if live else sub
            if result is not sub:
                result[rows, :] = sub

            if self.memory_ft:
                out_s1[rows] = weighted_sum(w1_k_out, sub, axis=1)
                out_s2[rows] = weighted_sum(w2_k_out, sub, axis=1)

        # ----- final output and CMCV -------------------------------------------
        output = plan.scatter_output(result)
        if self.real:
            # Packed-spectrum OUTPUT site + locating MCV (base helper); the
            # full-layout per-column checksums refer to bins about to be
            # discarded, so the packed pair takes over output protection.
            return self._finalize_output(output, injector, report)
        injector.visit(FaultSite.OUTPUT, output)

        if self.memory_ft:
            self._final_output_check(
                output, w1_k_out, w2_k_out, out_s1, out_s2, report,
                weight_rms=consts.w1_k_rms,
            )

        return output

    # ------------------------------------------------------------------
    # recovery helpers
    # ------------------------------------------------------------------
    def _recover_stage1(
        self, work, sub, index, group_start, c_m, r_m, eta1,
        w1_m, w2_m, in_s1, in_s2, eta_mem, injector, report, retries,
    ) -> bool:
        for _ in range(retries):
            if self.memory_ft:
                column = work[:, index]
                # Same suppressed-overflow contract as weighted_sum: a
                # checksum over corrupted data (e.g. an exponent-bit flip
                # to ~1e308) may legitimately overflow; the non-finite
                # residual is treated as a mismatch, not a warning.
                with np.errstate(over="ignore", invalid="ignore"):
                    residual = float(np.abs(np.dot(w1_m, column) - in_s1[index]))
                if residual_exceeds(residual, eta_mem):
                    report.record_verification("stage1-recovery-mcv", index, residual, eta_mem, True)
                    repaired = repair_single_error(column, w1_m, w2_m, in_s1[index], in_s2[index])
                    if repaired is None:
                        report.record_uncorrectable(
                            f"stage1 input column {index}: corruption could not be located"
                        )
                        return False
                    report.record_correction(
                        "memory-correct", "stage1-input", index, f"element {repaired[0]} repaired"
                    )
            fresh = self.plan.stage1_single(work, index)
            injector.visit(FaultSite.STAGE1_COMPUTE, fresh, index=index)
            with np.errstate(over="ignore", invalid="ignore"):
                residual = float(np.abs(np.dot(r_m, fresh) - np.dot(c_m, work[:, index])))
            ok = residual <= eta1
            report.record_verification("stage1-ccv-retry", index, residual, eta1, not ok)
            report.record_correction("recompute", "stage1", index, "m-point sub-FFT recomputed")
            if ok:
                sub[:, index - group_start] = fresh
                return True
        return False

    def _recover_stage2(
        self, twiddled, sub, index, group_start, c_k, r_k, eta2, injector, report, retries
    ) -> bool:
        """Recover a second-part sub-FFT.

        ``twiddled`` only holds the current group of rows, so the row for
        ``index`` lives at ``index - group_start``.  The input rows were
        verified (and if needed repaired) right before the twiddle stage, so
        a failing CCV here is attributed to a computational error and the
        sub-FFT is recomputed from the DMR-protected twiddled row.
        """

        local = index - group_start
        for _ in range(retries):
            row = np.ascontiguousarray(twiddled[local, :])
            fresh = self.plan.outer_plan.execute(row)
            injector.visit(FaultSite.STAGE2_COMPUTE, fresh, index=index)
            with np.errstate(over="ignore", invalid="ignore"):
                residual = float(np.abs(np.dot(r_k, fresh) - np.dot(c_k, row)))
            ok = residual <= eta2
            report.record_verification("stage2-ccv-retry", index, residual, eta2, not ok)
            report.record_correction("recompute", "stage2", index, "k-point sub-FFT recomputed")
            if ok:
                sub[local, :] = fresh
                return True
        return False

    # ------------------------------------------------------------------
    # memory verification helpers
    # ------------------------------------------------------------------
    def _verify_input_columns(
        self, work, start, stop, w1_m, w2_m, in_s1, in_s2, eta, report
    ) -> None:
        current = weighted_sum(w1_m, work[:, start:stop], axis=0)
        residuals = np.abs(current - in_s1[start:stop])
        report.bump("memory-verifications", stop - start)
        for local in np.nonzero(residual_exceeds(residuals, eta))[0]:
            index = int(start + local)
            report.record_verification("stage1-input-mcv", index, float(residuals[local]), eta, True)
            repaired = repair_single_error(work[:, index], w1_m, w2_m, in_s1[index], in_s2[index])
            if repaired is None:
                report.record_uncorrectable(f"stage1 input column {index} could not be located")
                continue
            report.record_correction("memory-correct", "stage1-input", index, f"element {repaired[0]} repaired")

    def _verify_intermediate_rows(
        self, intermediate, start, stop, u1_k, u2_k, inc_s1, inc_s2, eta, report
    ) -> None:
        current = weighted_sum(u1_k, intermediate[start:stop, :], axis=1)
        residuals = np.abs(current - inc_s1[start:stop])
        report.bump("memory-verifications", stop - start)
        for local in np.nonzero(residual_exceeds(residuals, eta))[0]:
            index = int(start + local)
            report.record_verification("stage2-input-mcv", index, float(residuals[local]), eta, True)
            repaired = repair_single_error(
                intermediate[index, :], u1_k, u2_k, inc_s1[index], inc_s2[index]
            )
            if repaired is None:
                report.record_uncorrectable(f"intermediate row {index} could not be located")
                continue
            report.record_correction("memory-correct", "stage2-input", index, f"element {repaired[0]} repaired")

    def _final_output_check(
        self, output, w1, w2, out_s1, out_s2, report, *, weight_rms=None
    ) -> None:
        """Final CMCV of the scattered output against the per-row checksums."""

        m, k = self.plan.m, self.plan.k
        view = output.reshape(k, m)
        current = weighted_sum(w1, view, axis=0)  # indexed by j2 (result row)
        eta = self.thresholds.eta_memory(w1, view, weight_rms=weight_rms)
        residuals = np.abs(current - out_s1)
        report.bump("memory-verifications", m)
        violations = residual_exceeds(residuals, eta)
        if not np.any(violations):
            return
        for j2 in np.nonzero(violations)[0]:
            j2 = int(j2)
            report.record_verification("final-cmcv", j2, float(residuals[j2]), eta, True)
            repaired = repair_single_error(view[:, j2], w1, w2, out_s1[j2], out_s2[j2])
            if repaired is None:
                report.record_uncorrectable(f"final output column {j2} could not be located")
                continue
            report.record_correction("memory-correct", "output", j2, f"element {repaired[0]} repaired")
