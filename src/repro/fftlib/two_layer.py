"""The highest-level ``N = m * k`` Cooley-Tukey decomposition.

This is the structure the online ABFT scheme of the paper attaches to
(Fig. 1): an ``N``-point transform is computed as

1. ``k`` inner transforms of size ``m`` over the stride-``k`` subsequences of
   the input (the columns of ``x.reshape(m, k)``),
2. an elementwise twiddle multiplication with
   :math:`\\omega_N^{n_1 j_2}`, and
3. ``m`` outer transforms of size ``k`` over the rows of the intermediate
   array.

The class exposes *stage-level* entry points (including single-sub-FFT
execution) because the ABFT schemes need to

* verify each sub-FFT right after it is produced,
* recompute exactly one sub-FFT after a fault, and
* interleave checksum generation with the stages (incremental generation,
  postponed verification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.fftlib.backends import resolve_backend_name
from repro.fftlib.factorization import balanced_split
from repro.fftlib.plan import Plan, PlanDirection
from repro.fftlib.planner import plan_fft
from repro.fftlib.twiddle import get_global_cache
from repro.utils.validation import as_complex_vector, ensure_positive_int

__all__ = ["TwoLayerDecomposition", "TwoLayerPlan"]


@dataclass(frozen=True)
class TwoLayerDecomposition:
    """The factorisation ``n = m * k`` and its index mapping.

    ``m`` is the size of the inner (first-part) transforms, ``k`` the number
    of them; the second part runs ``m`` transforms of size ``k``.  The
    convention ``m >= k`` follows the paper (both factors are
    Theta(sqrt(N)) for the balanced split chosen by default).
    """

    n: int
    m: int
    k: int

    def __post_init__(self) -> None:
        ensure_positive_int(self.n, name="n")
        ensure_positive_int(self.m, name="m")
        ensure_positive_int(self.k, name="k")
        if self.m * self.k != self.n:
            raise ValueError(f"m * k must equal n (got {self.m} * {self.k} != {self.n})")

    @classmethod
    def for_size(cls, n: int, m: Optional[int] = None, k: Optional[int] = None) -> "TwoLayerDecomposition":
        """Build a decomposition, balancing the factors when not specified."""

        n = ensure_positive_int(n, name="n")
        if m is None and k is None:
            m, k = balanced_split(n)
        elif m is None:
            k = ensure_positive_int(k, name="k")
            if n % k != 0:
                raise ValueError(f"k={k} does not divide n={n}")
            m = n // k
        elif k is None:
            m = ensure_positive_int(m, name="m")
            if n % m != 0:
                raise ValueError(f"m={m} does not divide n={n}")
            k = n // m
        return cls(n=n, m=int(m), k=int(k))

    def input_index(self, sub_fft: int, element: int) -> int:
        """Flat input index of ``element`` within inner sub-FFT ``sub_fft``.

        Inner sub-FFT ``i`` reads the stride-``k`` subsequence starting at
        offset ``i``.
        """

        return element * self.k + sub_fft

    def output_index(self, outer_index: int, inner_output: int) -> int:
        """Flat output index for outer transform result ``(j1, j2)``."""

        return outer_index * self.m + inner_output


class TwoLayerPlan:
    """Out-of-place two-layer plan with stage-level execution.

    Parameters
    ----------
    n:
        Transform size.
    m, k:
        Optional explicit factors (``m`` = inner size).  Balanced by default.
    direction:
        Forward or backward.  The backward plan composes the backward inner
        and outer plans with conjugated twiddles, which yields the fully
        normalised inverse (``1/m * 1/k = 1/n``).
    backend:
        Sub-FFT kernel registry name (see :mod:`repro.fftlib.backends`);
        ``None`` uses the process-wide default.
    """

    def __init__(
        self,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        direction: PlanDirection = PlanDirection.FORWARD,
        backend: Optional[str] = None,
    ) -> None:
        self.decomposition = TwoLayerDecomposition.for_size(n, m, k)
        self.direction = direction
        self.backend = resolve_backend_name(backend)
        self.inner_plan: Plan = plan_fft(self.m, direction, self.backend)
        self.outer_plan: Plan = plan_fft(self.k, direction, self.backend)
        self._twiddles = get_global_cache().stage(
            self.m, self.k, inverse=(direction is PlanDirection.BACKWARD)
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.decomposition.n

    @property
    def m(self) -> int:
        return self.decomposition.m

    @property
    def k(self) -> int:
        return self.decomposition.k

    @property
    def twiddles(self) -> np.ndarray:
        """The ``(m, k)`` twiddle matrix applied between the two parts."""

        return self._twiddles

    # ------------------------------------------------------------------
    # stage-level API
    # ------------------------------------------------------------------
    def gather_input(self, x: np.ndarray) -> np.ndarray:
        """Reshape the flat input into the ``(m, k)`` working matrix.

        Column ``i`` of the result is the (strided) input of inner sub-FFT
        ``i``; no data is copied beyond what the reshape requires.
        """

        x = as_complex_vector(x, name="x")
        if x.size != self.n:
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        return x.reshape(self.m, self.k)

    def stage1(self, work: np.ndarray) -> np.ndarray:
        """Run all ``k`` inner ``m``-point transforms (columns of ``work``)."""

        self._check_work(work)
        return self.inner_plan.execute_batch(work, axis=0)

    def stage1_single(self, work: np.ndarray, index: int) -> np.ndarray:
        """Run only the ``index``-th inner transform (used for recovery)."""

        self._check_work(work)
        if not 0 <= index < self.k:
            raise IndexError(f"inner sub-FFT index {index} out of range [0, {self.k})")
        column = np.ascontiguousarray(work[:, index])
        return self.inner_plan.execute(column)

    def stage1_columns(self, work: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Run the inner transforms for columns ``start:stop`` (batched).

        The columns are gathered into a contiguous buffer first; this is the
        Section 4.4 / 6.2 access pattern (the strided columns are touched
        once and then reused from cache-friendly contiguous storage).
        """

        self._check_work(work)
        columns = np.ascontiguousarray(work[:, start:stop])
        return self.inner_plan.execute_batch(columns, axis=0)

    def apply_twiddle(self, intermediate: np.ndarray) -> np.ndarray:
        """Multiply the intermediate matrix by the stage twiddles."""

        self._check_work(intermediate)
        return intermediate * self._twiddles

    def twiddle_column(self, column: np.ndarray, index: int) -> np.ndarray:
        """Twiddle a single inner-transform output column."""

        if column.shape != (self.m,):
            raise ValueError(f"column must have shape ({self.m},)")
        return column * self._twiddles[:, index]

    def stage2(self, work: np.ndarray) -> np.ndarray:
        """Run all ``m`` outer ``k``-point transforms (rows of ``work``)."""

        self._check_work(work)
        return self.outer_plan.execute_batch(work, axis=1)

    def stage2_single(self, work: np.ndarray, index: int) -> np.ndarray:
        """Run only the ``index``-th outer transform (row ``index``)."""

        self._check_work(work)
        if not 0 <= index < self.m:
            raise IndexError(f"outer sub-FFT index {index} out of range [0, {self.m})")
        row = np.ascontiguousarray(work[index, :])
        return self.outer_plan.execute(row)

    def stage2_rows(self, work: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Run the outer transforms for rows ``start:stop`` (batched)."""

        self._check_work(work)
        rows = np.ascontiguousarray(work[start:stop, :])
        return self.outer_plan.execute_batch(rows, axis=1)

    def scatter_output(self, result: np.ndarray) -> np.ndarray:
        """Map the ``(m, k)`` outer-transform result to the flat output.

        ``result[j2, j1]`` holds output frequency ``j1 * m + j2``.
        """

        self._check_work(result)
        return np.ascontiguousarray(result.T).reshape(self.n)

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> np.ndarray:
        """Full out-of-place execution of the plan."""

        work = self.gather_input(x)
        intermediate = self.stage1(work)
        twiddled = self.apply_twiddle(intermediate)
        result = self.stage2(twiddled)
        return self.scatter_output(result)

    # ------------------------------------------------------------------
    def _check_work(self, work: np.ndarray) -> None:
        if work.shape != (self.m, self.k):
            raise ValueError(
                f"working array must have shape ({self.m}, {self.k}), got {work.shape}"
            )

    def describe(self) -> str:
        return (
            f"TwoLayerPlan(n={self.n} = {self.m} x {self.k}, "
            f"direction={self.direction.value}, backend={self.backend})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
