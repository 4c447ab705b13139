"""The unprotected baseline scheme (the repository's "FFTW").

The paper-exact schemes' overheads (Fig. 7, Table 1, the Section 7
ablations) are measured against this scheme, which runs the same two-layer
decomposition on the same sub-FFT engine as the protected schemes but
performs no checksum work at all.  :func:`two_layer_run` is that traversal,
shared with the offline scheme.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import FTScheme
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.thresholds import ThresholdPolicy
from repro.faults.models import FaultSite
from repro.fftlib.two_layer import TwoLayerPlan

__all__ = ["PlainFFT", "two_layer_run"]


def two_layer_run(plan: TwoLayerPlan, x: np.ndarray, injector, group_size: int) -> np.ndarray:
    """One unchecked run of ``plan`` on ``x``, visiting the interior fault sites.

    A live injector sees the paper's traversal: the sub-FFTs run in groups
    of ``group_size``, each one exposed to the injector, on a private copy
    of the input (so the caller's ``x`` survives for a restart).  A
    fault-free run takes each part as one group and keeps its output as it
    is.  Returns the flat spectrum.
    """

    m, k = plan.m, plan.k
    live = getattr(injector, "is_live", True)
    work = plan.gather_input(x)
    if live:
        work = np.array(work)
    injector.visit(FaultSite.STAGE1_INPUT, work)

    group = group_size if live else k
    for start in range(0, k, group):
        stop = min(start + group, k)
        sub = plan.stage1_columns(work, start, stop)
        if live:
            for i in range(start, stop):
                injector.visit(FaultSite.STAGE1_COMPUTE, sub[:, i - start], index=i)
        if start == 0:  # a fault-free run keeps its one group's output as it is
            intermediate = np.empty_like(work) if live else sub
        if intermediate is not sub:
            intermediate[:, start:stop] = sub
    injector.visit(FaultSite.INTERMEDIATE, intermediate)

    group = group_size if live else m
    for start in range(0, m, group):
        stop = min(start + group, m)
        rows = slice(start, stop)
        twiddled = intermediate[rows, :] * plan.twiddles[rows, :]
        injector.visit(FaultSite.TWIDDLE_COMPUTE, twiddled, index=start)
        injector.visit(FaultSite.STAGE2_INPUT, twiddled, index=start)
        sub = plan.outer_plan.execute_batch(twiddled, axis=1)
        if live:
            for j in range(start, stop):
                injector.visit(FaultSite.STAGE2_COMPUTE, sub[j - start, :], index=j)
        if start == 0:
            result = np.empty_like(intermediate) if live else sub
        if result is not sub:
            result[rows, :] = sub
    return plan.scatter_output(result)


class PlainFFT(FTScheme):
    """Unprotected two-layer FFT.

    The traversal is the protected schemes' (:func:`two_layer_run`), so
    overhead percentages measured against this baseline reflect only the
    fault-tolerance work and not a difference in FFT traversal order.

    Fault-injection sites are still visited (so campaigns can measure the
    impact of *unprotected* faults, the "No Correction" row of Table 6), but
    nothing is verified and nothing is ever corrected.
    """

    name = "fftw"

    def __init__(
        self,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        thresholds: Optional[ThresholdPolicy] = None,
        group_size: int = 32,
        backend: Optional[str] = None,
        real: bool = False,
        constants: Optional[SchemeConstants] = None,
    ) -> None:
        super().__init__(n, thresholds=thresholds, real=real)
        self.plan = TwoLayerPlan(n, m, k, backend=backend)
        self.group_size = max(1, int(group_size))
        # The baseline carries no checksum state; the (empty) bundle keeps
        # the scheme interface uniform for the plan layer.
        if constants is None or constants.n != self.n or constants.real != self.real:
            constants = SchemeConstants.for_plain(
                self.n, self.plan.m, self.plan.k, real=self.real
            )
        self.constants = constants

    @property
    def m(self) -> int:
        return self.plan.m

    @property
    def k(self) -> int:
        return self.plan.k

    # ------------------------------------------------------------------
    def _run(self, x: np.ndarray, injector, report: FTReport) -> np.ndarray:
        injector.visit(FaultSite.INPUT, x)
        output = two_layer_run(self.plan, x, injector, self.group_size)
        return self._finalize_output(output, injector, report)
