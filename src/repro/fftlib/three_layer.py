"""The ``N = r * k * k`` three-layer decomposition used by in-place plans.

Section 5 of the paper observes that FFTW's in-place plans for a local size
``N/p = r * k^2`` (with ``r`` small, typically 2 or 8 when ``N/p`` is a power
of two but not a perfect square) execute

1. ``r * k`` transforms of size ``k``,
2. a twiddle multiplication and ``k^2`` transforms of size ``r``, and
3. another twiddle multiplication and ``r * k`` transforms of size ``k``,

which breaks the plain two-layer online ABFT scheme (Fig. 5): by the time an
error from the first layer is detected in a later layer, the in-place input
has been overwritten and cannot be recomputed.  The parallel scheme therefore
adds a DMR-protected middle layer.  This module provides the decomposition
itself with stage-level entry points; the protection logic lives in
:mod:`repro.parallel`.

Index bookkeeping (derived from applying Equation 2 twice):

* the input is viewed as ``x3[q, s, n1] = x[(q*r + s)*k + n1]`` with
  ``q, n1 in [0, k)`` and ``s in [0, r)``;
* layer 1 transforms over ``q`` (size ``k``), layer 2 over ``s`` (size
  ``r``), layer 3 over ``n1`` (size ``k``);
* the output is ``X[j1*r*k + t*k + j2] = z[j2, t, j1]`` where ``z`` is the
  array after layer 3.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.fftlib.plan import Plan, PlanDirection
from repro.fftlib.planner import plan_fft
from repro.utils.validation import as_complex_vector, ensure_positive_int

__all__ = ["ThreeLayerPlan"]


class ThreeLayerPlan:
    """Explicit ``n = r * k^2`` decomposition with per-layer execution."""

    def __init__(
        self,
        n: int,
        *,
        r: Optional[int] = None,
        k: Optional[int] = None,
        direction: PlanDirection = PlanDirection.FORWARD,
    ) -> None:
        n = ensure_positive_int(n, name="n")
        if k is None:
            k = self._largest_square_factor_root(n if r is None else n // r)
        k = ensure_positive_int(k, name="k")
        if r is None:
            if n % (k * k) != 0:
                raise ValueError(f"k^2={k * k} does not divide n={n}")
            r = n // (k * k)
        r = ensure_positive_int(r, name="r")
        if r * k * k != n:
            raise ValueError(f"r * k^2 must equal n (got {r} * {k}^2 != {n})")
        self.n = n
        self.r = r
        self.k = k
        self.direction = direction
        self.k_plan: Plan = plan_fft(k, direction)
        self.r_plan: Plan = plan_fft(r, direction)
        sign = 1.0 if direction is PlanDirection.BACKWARD else -1.0
        m_inner = r * k  # size of the "middle" problem
        # Twiddle for the inner (size r*k) decomposition: applied after layer
        # 1, indexed [j, s] with j in [0, k) and s in [0, r).
        j = np.arange(k).reshape(k, 1)
        s = np.arange(r).reshape(1, r)
        self._twiddle_inner = np.exp(sign * 2j * np.pi * (j * s) / m_inner)
        # Twiddle for the outer (size n) decomposition: applied after layer 2,
        # indexed [j2, j1, n1] with value omega_n^{n1 * (j1*k + j2)}.
        j2 = np.arange(k).reshape(k, 1, 1)
        j1 = np.arange(r).reshape(1, r, 1)
        n1 = np.arange(k).reshape(1, 1, k)
        self._twiddle_outer = np.exp(sign * 2j * np.pi * (n1 * (j1 * k + j2)) / n)

    # ------------------------------------------------------------------
    @staticmethod
    def _largest_square_factor_root(n: int) -> int:
        """Return the largest ``k`` such that ``k^2`` divides ``n``."""

        best = 1
        k = 1
        while k * k <= n:
            if n % (k * k) == 0:
                best = k
            k += 1
        return best

    # ------------------------------------------------------------------
    def gather_input(self, x: np.ndarray) -> np.ndarray:
        """View the flat input as the ``(k, r, k)`` working array."""

        x = as_complex_vector(x, name="x")
        if x.size != self.n:
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        return x.reshape(self.k, self.r, self.k)

    def layer1(self, work: np.ndarray) -> np.ndarray:
        """``r * k`` transforms of size ``k`` along axis 0."""

        self._check(work)
        return self.k_plan.execute_batch(work, axis=0)

    def apply_inner_twiddle(self, work: np.ndarray) -> np.ndarray:
        self._check(work)
        return work * self._twiddle_inner[:, :, None]

    def layer2(self, work: np.ndarray) -> np.ndarray:
        """``k^2`` transforms of size ``r`` along axis 1 (identity when r=1)."""

        self._check(work)
        if self.r == 1:
            return work.copy()
        return self.r_plan.execute_batch(work, axis=1)

    def apply_outer_twiddle(self, work: np.ndarray) -> np.ndarray:
        self._check(work)
        return work * self._twiddle_outer

    def layer3(self, work: np.ndarray) -> np.ndarray:
        """``r * k`` transforms of size ``k`` along axis 2."""

        self._check(work)
        return self.k_plan.execute_batch(work, axis=2)

    def scatter_output(self, work: np.ndarray) -> np.ndarray:
        """Map the post-layer-3 array to the flat frequency-ordered output."""

        self._check(work)
        # X[j1*r*k + t*k + j2] = work[j2, t, j1]
        return np.ascontiguousarray(work.transpose(2, 1, 0)).reshape(self.n)

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> np.ndarray:
        work = self.gather_input(x)
        work = self.layer1(work)
        work = self.apply_inner_twiddle(work)
        work = self.layer2(work)
        work = self.apply_outer_twiddle(work)
        work = self.layer3(work)
        return self.scatter_output(work)

    # ------------------------------------------------------------------
    def _check(self, work: np.ndarray) -> None:
        if work.shape != (self.k, self.r, self.k):
            raise ValueError(
                f"working array must have shape ({self.k}, {self.r}, {self.k}), got {work.shape}"
            )

    def describe(self) -> str:
        return f"ThreeLayerPlan(n={self.n} = {self.r} x {self.k}^2, direction={self.direction.value})"

    def __repr__(self) -> str:  # pragma: no cover
        return self.describe()
