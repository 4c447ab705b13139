"""The two-layer online ABFT scheme (Algorithm 2 / Fig. 2), un-optimized.

The transform is the highest-level Cooley-Tukey decomposition
``N = m * k``; every one of the ``k`` first-part ``m``-point sub-FFTs and
every one of the ``m`` second-part ``k``-point sub-FFTs carries its *own*
checksum verification, and the twiddle multiplication plus checksum-vector
generation - the only computation not covered by a checksum - is protected
by DMR.  A detected error therefore triggers the recomputation of a single
Theta(sqrt(N))-point sub-FFT instead of a restart of the whole transform.

This module implements the scheme exactly as introduced in Section 3, i.e.
*without* the Section 4 optimizations:

* the checksum vectors are evaluated with per-element trigonometry,
* memory fault tolerance (when enabled) uses the classic ``(1,...,1)`` /
  ``(1,...,n)`` locating pair, generated and verified at every boundary of
  Fig. 2 (input MCG + MCV before each sub-FFT, intermediate MCG + MCV before
  the twiddle stage, a regenerated row MCG after it, and output MCG + final
  MCV),
* nothing is postponed and nothing is generated incrementally.

Under a live injector the sub-FFTs are *executed* in groups of
``group_size`` columns/rows (the paper's Fig. 2 groups ``s`` second-part
FFTs per verification block), each one exposed to the injector; a
fault-free run takes each part as one group.  Either way every pass of
Fig. 2 is paid, and verification and recovery granularity remain a
single sub-FFT.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import FTScheme, OptimizationFlags
from repro.core.checksums import (
    input_checksum_weights_naive,
    weighted_sum,
)
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.dmr import dmr_elementwise
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.models import FaultSite
from repro.fftlib.two_layer import TwoLayerPlan

__all__ = ["OnlineABFT"]


class OnlineABFT(FTScheme):
    """Naive online two-layer ABFT FFT (computational FT, optional memory FT)."""

    def __init__(
        self,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        memory_ft: bool = False,
        thresholds: Optional[ThresholdPolicy] = None,
        flags: Optional[OptimizationFlags] = None,
        backend: Optional[str] = None,
        real: bool = False,
        constants: Optional[SchemeConstants] = None,
    ) -> None:
        super().__init__(n, thresholds=thresholds, real=real)
        self.plan = TwoLayerPlan(n, m, k, backend=backend)
        self.memory_ft = bool(memory_ft)
        self.flags = flags or OptimizationFlags.all_off()
        self.name = "online+mem" if memory_ft else "online"
        # Plan-time constants (weight vectors, classic locating pairs); a
        # live injector still regenerates the rA vectors under DMR in _run.
        if (
            constants is None
            or constants.n != self.n
            or constants.m != self.plan.m
            or constants.c_m is None
            or (self.memory_ft and (constants.mem_m is None or constants.mem_k is None))
            or constants.real != self.real
        ):
            constants = SchemeConstants.for_online(
                self.n, self.plan.m, self.plan.k,
                optimized=False,
                memory_ft=self.memory_ft,
                modified_checksums=False,
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
        consts = self.constants
        retries = max(1, int(self.flags.max_retries))
        # A live injector sees the paper's run: groups of ``group_size``
        # sub-FFTs, each one exposed to it, and the rA vectors regenerated
        # under DMR (it may target CHECKSUM_COMPUTE).  A fault-free run takes
        # each part as one group and the bit-identical plan-time vectors.
        live = getattr(injector, "is_live", True)
        group1 = group2 = max(1, int(self.flags.group_size))
        if not live:
            group1, group2 = k, m

        # ----- checksum vectors, generated with DMR (Algorithm 2, l.3/l.11) ---
        r_m, r_k = consts.r_m, consts.r_k
        c_m, c_k = consts.c_m, consts.c_k
        if live:
            c_m = dmr_elementwise(
                lambda: input_checksum_weights_naive(m),
                injector=injector,
                site=FaultSite.CHECKSUM_COMPUTE,
                index=0,
                report=report,
                label="checksum-vector-dmr",
            )
        # One robust sample of the input feeds every x-derived threshold.
        x_rms = self.thresholds.magnitude_rms(x)
        sigma0 = float(x_rms / np.sqrt(2.0))
        eta1 = self.thresholds.eta_stage1(m, x, sigma0=sigma0)
        eta2 = self.thresholds.eta_stage2(k, m, x, sigma0=sigma0)

        mem_m = consts.mem_m if self.memory_ft else None
        mem_k = consts.mem_k if self.memory_ft else None

        work = np.array(plan.gather_input(x))

        # ----- input memory checksum generation (Fig. 2, leading MCG) --------
        if self.memory_ft:
            in_pair = mem_m.generate(work, axis=0)
            eta_mem_col = self.thresholds.eta_memory(
                mem_m.w1, work, weight_rms=consts.w1_m_rms, data_rms=x_rms
            )
        else:
            in_pair = None
            eta_mem_col = 0.0

        # Faults may strike only once the protection exists (the paper's fault
        # model excludes corruption during checksum generation).
        injector.visit(FaultSite.INPUT, work)
        injector.visit(FaultSite.STAGE1_INPUT, work)

        # ----- part 1: k m-point FFTs ----------------------------------------
        mid_s1 = np.empty(k, dtype=np.complex128) if self.memory_ft else None
        mid_s2 = np.empty(k, dtype=np.complex128) if self.memory_ft else None

        for start in range(0, k, group1):
            stop = min(start + group1, k)
            cols = slice(start, stop)

            # MCV before use (no postponing in the naive scheme).
            if self.memory_ft:
                self._verify_columns(
                    work, cols, mem_m, in_pair, eta_mem_col, report, "stage1-input-mcv"
                )

            # CCG: input checksums of these sub-FFTs.
            ccg = weighted_sum(c_m, work[:, cols], axis=0)

            # Compute the sub-FFTs (batched) and expose them to the injector
            # one column at a time so faults can target a specific sub-FFT.
            sub = plan.stage1_columns(work, start, stop)
            if live:
                for i in range(start, stop):
                    injector.visit(FaultSite.STAGE1_COMPUTE, sub[:, i - start], index=i)

            # CCV per sub-FFT (vectorized: one GEMV + one comparison per
            # group; only violating sub-FFTs enter the recovery path).
            residuals = np.abs(weighted_sum(r_m, sub, axis=0) - ccg)
            report.bump("verifications", stop - start)
            for local in np.nonzero(residual_exceeds(residuals, eta1))[0]:
                i = start + int(local)
                report.record_verification("stage1-ccv", i, float(residuals[local]), eta1, True)
                corrected = self._recover_stage1(
                    work, sub, i, start, c_m, r_m, eta1, mem_m, in_pair, eta_mem_col,
                    injector, report, retries,
                )
                if not corrected:
                    report.record_uncorrectable(f"stage1 sub-FFT {i} could not be corrected")

            if start == 0:  # a fault-free run keeps its one group's output as it is
                intermediate = np.empty_like(work) if live else sub
            if intermediate is not sub:
                intermediate[:, cols] = sub

            # MCG of the intermediate output of these sub-FFTs (Fig. 2).
            if self.memory_ft:
                mid_s1[cols] = weighted_sum(mem_m.w1, sub, axis=0)
                mid_s2[cols] = weighted_sum(mem_m.w2, sub, axis=0)

        # Threshold derived from the (still clean) intermediate data before
        # faults may strike it.
        eta_mem_mid = (
            self.thresholds.eta_memory(
                mem_m.w1, intermediate, weight_rms=consts.w1_m_rms
            )
            if self.memory_ft
            else 0.0
        )

        injector.visit(FaultSite.INTERMEDIATE, intermediate)

        # ----- between the parts: verify intermediate, DMR twiddle ----------
        if self.memory_ft:
            mid_pair = _Pair(mid_s1, mid_s2)
            self._verify_columns(
                intermediate, slice(0, k), mem_m, mid_pair, eta_mem_mid, report, "pre-twiddle-mcv"
            )

        if live:
            c_k = dmr_elementwise(
                lambda: input_checksum_weights_naive(k),
                injector=injector,
                site=FaultSite.CHECKSUM_COMPUTE,
                index=1,
                report=report,
                label="checksum-vector-dmr",
            )

        twiddled = dmr_elementwise(
            lambda: intermediate * plan.twiddles,
            injector=injector,
            site=FaultSite.TWIDDLE_COMPUTE,
            report=report,
            label="twiddle-dmr",
        )
        injector.visit(FaultSite.STAGE2_INPUT, twiddled)

        # Regenerated row checksums for the second-part inputs (the third MCG
        # the naive scheme pays for; the optimized scheme builds these
        # incrementally instead).
        if self.memory_ft:
            row_pair = mem_k.generate(twiddled, axis=1)
            eta_mem_row = self.thresholds.eta_memory(
                mem_k.w1, twiddled, weight_rms=consts.w1_k_rms
            )
        else:
            row_pair = None
            eta_mem_row = 0.0

        # ----- part 2: m k-point FFTs ----------------------------------------
        out_s1 = np.empty(m, dtype=np.complex128) if self.memory_ft else None
        out_s2 = np.empty(m, dtype=np.complex128) if self.memory_ft else None

        for start in range(0, m, group2):
            stop = min(start + group2, m)
            rows = slice(start, stop)

            if self.memory_ft:
                self._verify_rows(
                    twiddled, rows, mem_k, row_pair, eta_mem_row, report, "stage2-input-mcv"
                )

            ccg2 = weighted_sum(c_k, twiddled[rows, :], axis=1)

            sub = plan.stage2_rows(twiddled, start, stop)
            if live:
                for j in range(start, stop):
                    injector.visit(FaultSite.STAGE2_COMPUTE, sub[j - start, :], index=j)

            residuals = np.abs(weighted_sum(r_k, sub, axis=1) - ccg2)
            report.bump("verifications", stop - start)
            for local in np.nonzero(residual_exceeds(residuals, eta2))[0]:
                j = start + int(local)
                report.record_verification("stage2-ccv", j, float(residuals[local]), eta2, True)
                corrected = self._recover_stage2(
                    twiddled, sub, j, start, c_k, r_k, eta2, mem_k, row_pair, eta_mem_row,
                    injector, report, retries,
                )
                if not corrected:
                    report.record_uncorrectable(f"stage2 sub-FFT {j} could not be corrected")

            if start == 0:
                result = np.empty_like(twiddled) if live else sub
            if result is not sub:
                result[rows, :] = sub

            if self.memory_ft:
                out_s1[rows] = weighted_sum(mem_k.w1, sub, axis=1)
                out_s2[rows] = weighted_sum(mem_k.w2, sub, axis=1)

        # ----- final output and last MCV --------------------------------------
        output = plan.scatter_output(result)
        if self.real:
            # Packed-spectrum OUTPUT site + locating MCV (base helper); the
            # full-layout per-column checksums refer to bins about to be
            # discarded, so the packed pair takes over output protection.
            return self._finalize_output(output, injector, report)
        injector.visit(FaultSite.OUTPUT, output)

        if self.memory_ft:
            self._final_output_check(output, mem_k, out_s1, out_s2, report)

        return output

    # ------------------------------------------------------------------
    # recovery helpers
    # ------------------------------------------------------------------
    def _recover_stage1(
        self, work, sub, index, group_start, c_m, r_m, eta1,
        mem_m, in_pair, eta_mem, injector, report, retries,
    ) -> bool:
        """Recover first-part sub-FFT ``index``; returns ``True`` on success."""

        for _ in range(retries):
            # Memory error on the input column?  Verify before recomputing.
            if self.memory_ft:
                column = work[:, index]
                residual = float(np.abs(np.dot(mem_m.w1, column) - in_pair.s1[index]))
                if residual_exceeds(residual, eta_mem):
                    report.record_verification("stage1-recovery-mcv", index, residual, eta_mem, True)
                    located = mem_m.correct(column, in_pair.s1[index], in_pair.s2[index])
                    if located is None:
                        report.record_uncorrectable(
                            f"stage1 input column {index}: corruption could not be located"
                        )
                        return False
                    report.record_correction(
                        "memory-correct", "stage1-input", index, f"element {located[0]} repaired"
                    )
            fresh = self.plan.stage1_single(work, index)
            injector.visit(FaultSite.STAGE1_COMPUTE, fresh, index=index)
            residual = float(np.abs(np.dot(r_m, fresh) - np.dot(c_m, work[:, index])))
            ok = residual <= eta1
            report.record_verification("stage1-ccv-retry", index, residual, eta1, not ok)
            report.record_correction("recompute", "stage1", index, "m-point sub-FFT recomputed")
            if ok:
                sub[:, index - group_start] = fresh
                return True
        return False

    def _recover_stage2(
        self, twiddled, sub, index, group_start, c_k, r_k, eta2,
        mem_k, row_pair, eta_mem, injector, report, retries,
    ) -> bool:
        """Recover second-part sub-FFT ``index``; returns ``True`` on success."""

        for _ in range(retries):
            if self.memory_ft:
                row = twiddled[index, :]
                residual = float(np.abs(np.dot(mem_k.w1, row) - row_pair.s1[index]))
                if residual_exceeds(residual, eta_mem):
                    report.record_verification("stage2-recovery-mcv", index, residual, eta_mem, True)
                    located = mem_k.correct(row, row_pair.s1[index], row_pair.s2[index])
                    if located is None:
                        report.record_uncorrectable(
                            f"stage2 input row {index}: corruption could not be located"
                        )
                        return False
                    report.record_correction(
                        "memory-correct", "stage2-input", index, f"element {located[0]} repaired"
                    )
            fresh = self.plan.stage2_single(twiddled, index)
            injector.visit(FaultSite.STAGE2_COMPUTE, fresh, index=index)
            residual = float(np.abs(np.dot(r_k, fresh) - np.dot(c_k, twiddled[index, :])))
            ok = residual <= eta2
            report.record_verification("stage2-ccv-retry", index, residual, eta2, not ok)
            report.record_correction("recompute", "stage2", index, "k-point sub-FFT recomputed")
            if ok:
                sub[index - group_start, :] = fresh
                return True
        return False

    # ------------------------------------------------------------------
    # memory verification helpers
    # ------------------------------------------------------------------
    def _verify_columns(self, data, cols, mem, pair, eta, report, label) -> None:
        """Verify (and repair) the memory checksums of a slice of columns."""

        current = weighted_sum(mem.w1, data[:, cols], axis=0)
        stored = np.asarray(pair.s1)[cols]
        residuals = np.abs(current - stored)
        count = residuals.shape[0]
        report.bump("memory-verifications", count)
        violations = residual_exceeds(residuals, eta)
        if not np.any(violations):
            return
        offset = cols.start or 0
        for local_index in np.nonzero(violations)[0]:
            index = int(offset + local_index)
            report.record_verification(label, index, float(residuals[local_index]), eta, True)
            located = mem.correct(
                data[:, index], np.asarray(pair.s1)[index], np.asarray(pair.s2)[index]
            )
            if located is None:
                report.record_uncorrectable(f"{label}: column {index} could not be located")
            else:
                report.record_correction("memory-correct", label, index, f"element {located[0]} repaired")

    def _verify_rows(self, data, rows, mem, pair, eta, report, label) -> None:
        """Verify (and repair) the memory checksums of a slice of rows."""

        current = weighted_sum(mem.w1, data[rows, :], axis=1)
        stored = np.asarray(pair.s1)[rows]
        residuals = np.abs(current - stored)
        count = residuals.shape[0]
        report.bump("memory-verifications", count)
        violations = residual_exceeds(residuals, eta)
        if not np.any(violations):
            return
        offset = rows.start or 0
        for local_index in np.nonzero(violations)[0]:
            index = int(offset + local_index)
            report.record_verification(label, index, float(residuals[local_index]), eta, True)
            located = mem.correct(
                data[index, :], np.asarray(pair.s1)[index], np.asarray(pair.s2)[index]
            )
            if located is None:
                report.record_uncorrectable(f"{label}: row {index} could not be located")
            else:
                report.record_correction("memory-correct", label, index, f"element {located[0]} repaired")

    def _final_output_check(self, output, mem_k, out_s1, out_s2, report) -> None:
        """Verify the scattered output against the per-row output checksums.

        ``output.reshape(k, m)[j1, j2]`` equals ``result[j2, j1]``, so the
        stored checksum of result-row ``j2`` applies to column ``j2`` of the
        reshaped output.
        """

        m, k = self.plan.m, self.plan.k
        view = output.reshape(k, m)
        current = weighted_sum(mem_k.w1, view, axis=0)  # length m, indexed by j2
        eta = self.thresholds.eta_memory(
            mem_k.w1, view, weight_rms=self.constants.w1_k_rms
        )
        residuals = np.abs(current - out_s1)
        report.bump("memory-verifications", m)
        violations = residual_exceeds(residuals, eta)
        if not np.any(violations):
            return
        for j2 in np.nonzero(violations)[0]:
            j2 = int(j2)
            report.record_verification("final-mcv", j2, float(residuals[j2]), eta, True)
            located = mem_k.correct(view[:, j2], out_s1[j2], out_s2[j2])
            if located is None:
                report.record_uncorrectable(f"final output column {j2} could not be located")
            else:
                report.record_correction("memory-correct", "output", j2, f"element {located[0]} repaired")


class _Pair:
    """Tiny (s1, s2) holder mirroring :class:`ChecksumPair` for local arrays."""

    __slots__ = ("s1", "s2")

    def __init__(self, s1, s2) -> None:
        self.s1 = s1
        self.s2 = s2
