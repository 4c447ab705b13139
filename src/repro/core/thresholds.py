"""Round-off error modelling and detection-threshold selection (Section 8).

Floating-point round-off makes the two sides of a checksum identity differ
even in fault-free runs, so every verification compares the residual against
a threshold :math:`\\eta`.  Picking :math:`\\eta` trades *throughput* (the
probability a fault-free run is not flagged) against *fault coverage* (the
smallest error that can still be detected).

The paper follows Weinstein's floating-point round-off analysis: for an
``m``-point FFT with i.i.d. zero-mean inputs of per-component variance
:math:`\\sigma_0^2`,

.. math::

    \\sigma_e = \\sqrt{2 m \\sigma_0^2 \\sigma_\\epsilon^2 \\log_2 m},
    \\qquad
    \\sigma_{roe} = m\\,\\sigma_e,

where :math:`\\sigma_\\epsilon^2 = 0.21\\cdot 2^{-2t}` is the experimentally
measured variance of a single rounding (``t`` = mantissa bits).  The
threshold is then set to :math:`\\eta = 3\\sqrt{m}\\,\\sigma_{roe}` so that,
by the central-limit argument of Section 8.1, the theoretical throughput is
about 99.7%.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "MANTISSA_BITS_DOUBLE",
    "RoundoffModel",
    "ThresholdMode",
    "ThresholdPolicy",
    "residual_exceeds",
    "sigma0_rows",
]


def residual_exceeds(residual, eta):
    """``True`` where a checksum residual violates its threshold.

    Implemented as ``not (residual <= eta)`` rather than ``residual > eta`` so
    that non-finite residuals - which arise when a corrupted value overflows a
    weighted sum to inf/NaN - count as violations instead of silently passing
    the comparison.  Works elementwise on arrays and on scalars.
    """

    return ~(np.asarray(residual) <= eta)


#: Sums of squares below this (or not finite) are recomputed on a scaled row:
#: below it subnormal squares could cost the sum its relative precision.
_SMALLEST_SUM = 2.0**-900


def sigma0_rows(rows: np.ndarray) -> np.ndarray:
    """Exact per-component ``sigma0 = ||x||_2 / sqrt(2 width)`` of each tile row.

    ``rows`` is a ``(rows, width)`` complex or real tile.  The squares are
    summed by BLAS dot products: one for a one-row tile, one stacked
    ``matmul`` over the float64 parts of a larger tile.  A row whose sum
    underflows, overflows or is not finite is redone scaled by a power of
    two, as BLAS ``nrm2`` scales, so ``sigma0`` is right at every finite
    magnitude.  A row holding a NaN or an infinity gets NaN.  Run it with
    overflow ignored (the kernel's error state), or a huge row warns.
    """

    count = 2.0 * rows.shape[1]
    if len(rows) == 1:  # one dot product, checked in Python floats
        total = float(np.vdot(rows, rows).real)
        if _SMALLEST_SUM <= total < math.inf:
            return np.array([math.sqrt(total / count)])
        return np.array([_scaled_sigma0(rows[0], count)])
    parts = rows
    if rows.dtype.kind == "c":
        parts = np.ascontiguousarray(rows).view(np.float64)  # copies a strided tile only
    sums = np.matmul(parts[:, None, :], parts[:, :, None])[:, 0, 0]
    sigma0 = np.sqrt(sums * (1.0 / count))
    plain = (sums >= _SMALLEST_SUM) & (sums < np.inf)  # NaN fails both
    if np.count_nonzero(plain) < len(sums):
        for i in np.flatnonzero(~plain):
            sigma0[i] = _scaled_sigma0(rows[i], count)
    return sigma0


def _scaled_sigma0(row: np.ndarray, count: float) -> float:
    """``sqrt(sum |row|^2 / count)`` of one row, summed at unit scale."""

    parts = np.concatenate((row.real, row.imag)) if row.dtype.kind == "c" else row
    peak = float(np.max(np.abs(parts)))
    if not math.isfinite(peak):
        return math.nan
    if peak == 0.0:
        return 0.0
    exponent = math.frexp(peak)[1]
    scaled = np.ldexp(parts, -exponent)
    # count >= parts.size and every scaled part is below 1: at most peak
    return math.ldexp(math.sqrt(float(np.dot(scaled, scaled)) / count), exponent)


#: Mantissa bits of IEEE-754 binary64 (excluding the implicit leading bit).
MANTISSA_BITS_DOUBLE = 52


def _median_finite(sample: np.ndarray) -> float:
    """``float(np.median(sample))`` for a 1-D finite array, faster.

    ``np.median`` partitions around *both* middle order statistics, which
    costs two introselect passes; one pass around the upper statistic plus a
    ``max`` over the lower partition gives the same two values.  The even
    case averages them exactly as ``np.median`` does (``(a + b) / 2`` - a
    power-of-two division, so bit-identical).  Callers guarantee the sample
    is non-empty and contains no NaN/inf (``np.median`` would propagate
    them; the threshold paths filter first).
    """

    m = sample.size // 2
    if sample.size % 2:
        return float(np.partition(sample, m)[m])
    part = np.partition(sample, m)
    return float((part[:m].max() + part[m]) / 2.0)


@dataclass(frozen=True)
class RoundoffModel:
    """Weinstein-style round-off statistics for floating-point FFTs.

    Parameters
    ----------
    mantissa_bits:
        ``t`` in the paper; 52 for double precision.
    rounding_constant:
        The 0.21 constant from Gentleman & Sande's measurement
        (``sigma_eps^2 = rounding_constant * 2^{-2t}``).
    """

    mantissa_bits: int = MANTISSA_BITS_DOUBLE
    rounding_constant: float = 0.21

    # ------------------------------------------------------------------
    @property
    def sigma_eps(self) -> float:
        """Standard deviation of a single rounding error."""

        return float(np.sqrt(self.rounding_constant) * 2.0 ** (-self.mantissa_bits))

    def noise_to_signal_ratio(self, n: int) -> float:
        """Weinstein's output noise-to-signal ratio ``2 sigma_eps^2 log2 n``."""

        if n < 2:
            return 0.0
        return 2.0 * self.sigma_eps ** 2 * float(np.log2(n))

    def fft_output_sigma(self, n: int, sigma0: float) -> float:
        """Standard deviation of an output element of an ``n``-point FFT."""

        return float(np.sqrt(n) * sigma0)

    def fft_roundoff_sigma(self, n: int, sigma0: float) -> float:
        """``sigma_e``: per-element round-off noise of an ``n``-point FFT."""

        if n < 2:
            return 0.0
        return float(np.sqrt(2.0 * n * sigma0 ** 2 * self.sigma_eps ** 2 * np.log2(n)))

    def checksum_roundoff_sigma(self, n: int, sigma0: float) -> float:
        """``sigma_roe``: round-off of the checksum *difference* (upper bound).

        The checksum sums ``n`` output elements; the paper uses the
        conservative upper bound ``n * sigma_e`` rather than the
        ``sqrt(n)``-scaling of independent errors to improve fault coverage.
        """

        return float(n * self.fft_roundoff_sigma(n, sigma0))

    def second_stage_checksum_sigma(self, k: int, m: int, sigma0: float) -> float:
        """``sigma_roe2`` for the second-part ``k``-point FFTs.

        Their input is the output of the ``m``-point FFTs, hence has
        per-component standard deviation ``sqrt(m) * sigma0``.
        """

        return self.checksum_roundoff_sigma(k, float(np.sqrt(m) * sigma0))

    def summation_sigma(self, n: int, value_rms: float) -> float:
        """Round-off of a plain weighted sum of ``n`` values (memory checksums)."""

        return float(n * value_rms * self.sigma_eps)

    # ------------------------------------------------------------------
    @staticmethod
    def throughput(eta: float, n: int, sigma: float) -> float:
        """Theoretical throughput ``1 / (3 - 2 Phi(eta / (sqrt(n) sigma)))``.

        ``sigma`` is the per-element round-off standard deviation; a
        fault-free run is accepted when the |residual| stays below ``eta``.
        """

        if sigma <= 0:
            return 1.0
        z = eta / (np.sqrt(n) * sigma)
        # the standard normal CDF, Phi(z) = erfc(-z / sqrt 2) / 2
        phi = 0.5 * math.erfc(-z / math.sqrt(2.0))
        return float(1.0 / (3.0 - 2.0 * phi))


class ThresholdMode(enum.Enum):
    """How verification thresholds are derived."""

    #: The paper's variance-based estimate (Section 8.1) with sigma_0
    #: measured from the data being protected.
    PAPER = "paper"
    #: A norm-relative engineering bound: ``eta = factor * eps * scale``.
    RELATIVE = "relative"


@dataclass(frozen=True)
class ThresholdPolicy:
    """Produces the detection thresholds used by the ABFT schemes.

    A single policy instance is shared by a scheme; all thresholds scale
    linearly with the magnitude of the protected data, so the policy is
    applicable to inputs of any scale.

    The dataclass is frozen (and therefore hashable) so that a policy can be
    part of an :class:`repro.core.config.FTConfig` plan-cache key.
    """

    mode: ThresholdMode = ThresholdMode.PAPER
    model: RoundoffModel = RoundoffModel()
    safety_factor: float = 3.0
    #: Extra multiplier applied to memory-checksum thresholds.  Memory
    #: verifications compare sums accumulated in *different orders* (e.g. the
    #: incremental checksums of Section 4.3 against a direct re-summation),
    #: so their fault-free residual can approach the paper's 3-sigma bound;
    #: the margin keeps the throughput at ~100% without materially reducing
    #: coverage (memory faults of interest flip high bits).
    memory_margin: float = 8.0
    relative_factor: float = 5e-12
    floor: float = 1e-300

    #: Number of elements the scheme oracle samples when it estimates a
    #: data scale (:meth:`magnitude_rms`).  The protected kernel of
    #: :class:`~repro.core.ftplan.FTPlan` samples nothing: its thresholds
    #: come from each row's exact norm (:meth:`tile_thresholds`).  1024
    #: strided samples pin the robust RMS to a few percent (concentration
    #: ~1/sqrt(2k)), far inside the 3-sigma safety factor and the paper's
    #: conservative n^(3/2) round-off bound.
    sample_size: int = 1024

    # ------------------------------------------------------------------
    def _sample(self, data: np.ndarray) -> np.ndarray:
        flat = np.asarray(data).reshape(-1)
        if flat.size <= self.sample_size:
            return flat
        step = max(1, flat.size // self.sample_size)
        return flat[::step]

    def _magnitude_rms(self, data: np.ndarray) -> float:
        """Robust RMS of ``|data|`` (sampled).

        Genuine FFT data can be extremely spiky (a narrowband signal's
        spectrum has a handful of huge bins), so a plain median would
        underestimate the scale badly; a plain RMS, on the other hand, can be
        hijacked - or overflowed - by a single corrupted element when a
        threshold is derived from data that already contains the fault.  The
        compromise: RMS over the sample after discarding non-finite values
        and elements more than ``1e6`` times the median magnitude (legitimate
        spikes stay well below that ratio; exponent-bit flips do not).
        """

        sample = np.abs(self._sample(data))
        if sample.size == 0:
            return 0.0
        # One max reduction gates both slow paths: magnitudes are >= 0, so a
        # finite max means every element is finite (NaN poisons np.max), and
        # max <= bound means all <= bound.  The common all-clean case then
        # touches the data twice (max, mean) instead of building two masks.
        amax = float(np.max(sample))
        if not np.isfinite(amax):
            sample = sample[np.isfinite(sample)]
            if sample.size == 0:
                return 0.0
            amax = float(np.max(sample))
        median = _median_finite(sample)
        if median > 0 and not amax <= 1e6 * median:
            sample = sample[sample <= 1e6 * median]
        if sample.size == 0:
            return median
        # In-place square: ``sample`` is always a private array here (np.abs
        # output or a mask copy), and x**2 == np.square(x) bit-for-bit.
        return float(np.sqrt(np.mean(np.square(sample, out=sample))))

    def magnitude_rms(self, data: np.ndarray) -> float:
        """Public robust RMS of ``|data|`` (see :meth:`_magnitude_rms`).

        Exposed so a scheme can sample its input *once* per run and feed the
        value into every threshold that depends on the same data
        (``sigma0 = magnitude_rms / sqrt(2)`` exactly as
        :meth:`component_sigma` computes it).
        """

        return self._magnitude_rms(data)

    def component_sigma(self, data: np.ndarray) -> float:
        """Estimate sigma_0 (per real/imaginary component) from data."""

        rms = self._magnitude_rms(data)
        return float(rms / np.sqrt(2.0))

    # ------------------------------------------------------------------
    def eta_stage1(self, m: int, data: np.ndarray, *, sigma0: Optional[float] = None) -> float:
        """Threshold for verifying one first-part ``m``-point FFT.

        ``sigma0`` may carry a precomputed :meth:`component_sigma` of
        ``data`` (bit-identical, avoids re-sampling the same array).
        """

        if sigma0 is None:
            sigma0 = self.component_sigma(data)
        if self.mode is ThresholdMode.RELATIVE:
            scale = float(np.sqrt(m)) * m * max(sigma0, 1e-30)
            return max(self.relative_factor * scale, self.floor)
        sigma_roe = self.model.checksum_roundoff_sigma(m, sigma0)
        return max(self.safety_factor * float(np.sqrt(m)) * sigma_roe, self.floor)

    def eta_stage2(
        self, k: int, m: int, data: np.ndarray, *, sigma0: Optional[float] = None
    ) -> float:
        """Threshold for verifying one second-part ``k``-point FFT.

        ``data`` is the *original* input (its sigma_0 is amplified by
        ``sqrt(m)`` through the first part, as in the paper's derivation).
        """

        if sigma0 is None:
            sigma0 = self.component_sigma(data)
        if self.mode is ThresholdMode.RELATIVE:
            scale = float(np.sqrt(k)) * k * max(np.sqrt(m) * sigma0, 1e-30)
            return max(self.relative_factor * scale, self.floor)
        sigma_roe2 = self.model.second_stage_checksum_sigma(k, m, sigma0)
        return max(self.safety_factor * float(np.sqrt(k)) * sigma_roe2, self.floor)

    def eta_offline(self, n: int, data: np.ndarray, *, sigma0: Optional[float] = None) -> float:
        """Threshold for the single offline verification of an ``n``-point FFT."""

        return self.eta_stage1(n, data, sigma0=sigma0)

    def offline_unit(self, n: int) -> float:
        """:meth:`eta_offline` of an ``n``-point transform per unit ``sigma0``.

        Both threshold modes are linear in ``sigma0``, so a plan evaluates
        this once per check and :meth:`tile_thresholds` scales it by each
        row's exact ``sigma0``.
        """

        if self.mode is ThresholdMode.RELATIVE:
            return self.relative_factor * float(np.sqrt(n)) * n
        return self.safety_factor * float(np.sqrt(n)) * self.model.checksum_roundoff_sigma(n, 1.0)

    def memory_unit(self, n: int, weight_rms: float) -> float:
        """:meth:`eta_memory` of ``n`` weights of RMS ``weight_rms`` per unit ``sigma0``."""

        # the data's magnitude RMS is sigma0 * sqrt(2)
        value_rms = weight_rms * float(np.sqrt(2.0))
        if self.mode is ThresholdMode.RELATIVE:
            return self.relative_factor * n * value_rms
        return self.safety_factor * self.memory_margin * self.model.summation_sigma(n, value_rms)

    def tile_thresholds(self, rows: np.ndarray, units: np.ndarray) -> np.ndarray:
        """Per-row thresholds of a ``(rows, width)`` tile: ``(rows, len(units))``.

        Each row's exact ``sigma0 = ||x||_2 / sqrt(2 width)`` (see
        :func:`sigma0_rows`; NaN for a row holding a NaN or an infinity)
        times each plan-time unit (:meth:`offline_unit`,
        :meth:`memory_unit`), floored.  For the paper's Gaussian input this
        is its sigma0; unlike a sample, the norm sees an impulse's or a
        tone spectrum's energy wherever it sits.
        """

        return self._scaled(sigma0_rows(rows)[:, None], units)

    def packed_thresholds(self, packed: np.ndarray, n: int, units: np.ndarray) -> np.ndarray:
        """:meth:`tile_thresholds` of the packed spectra of real ``n``-point rows.

        The first unit scales the real signal's ``sigma0``, the others the
        bins' own; both come from the exact norm of the bins.  By Parseval
        the signal's ``sum x^2`` is ``(|X_0|^2 + 2 sum |X_k|^2 +
        |X_(n/2)|^2) / n``, with no Nyquist bin for odd ``n``; it is formed
        relative to the bins' ``sigma0``, so no square overflows.
        """

        bins = packed.shape[1]
        sigma0 = np.empty((len(packed), len(units)))
        sigma0[:, 1:] = own = sigma0_rows(packed)[:, None]
        scale = np.where(own[:, 0] > 0.0, own[:, 0], 1.0)
        edges = np.square(np.abs(packed[:, 0]) / scale)
        if n % 2 == 0:
            edges += np.square(np.abs(packed[:, -1]) / scale)
        sigma0[:, 0] = own[:, 0] * np.sqrt(np.maximum(2.0 * bins - 0.5 * edges, 0.0)) / n
        return self._scaled(sigma0, units)

    def _scaled(self, sigma0: np.ndarray, units: np.ndarray) -> np.ndarray:
        """``sigma0 * units``, floored (``sigma0`` per row, or per row and check)."""

        if self.mode is ThresholdMode.RELATIVE:
            sigma0 = np.maximum(sigma0, 1e-30)
        return np.maximum(sigma0 * units, self.floor)

    def eta_memory(
        self,
        weights: np.ndarray,
        data: np.ndarray,
        *,
        weight_rms: Optional[float] = None,
        data_rms: Optional[float] = None,
    ) -> float:
        """Threshold for a memory-checksum verification.

        The residual of a fault-free weighted sum is bounded by the round-off
        of summing ``len(weights)`` terms of magnitude ``|w_j x_j|``; the RMS
        of those terms is measured from the data so the bound adapts to the
        modified (non-uniform) weights as well.  ``weight_rms`` may carry the
        weight-vector RMS precomputed at plan time
        (:func:`repro.core.constants.weight_rms` uses the identical
        expression, so the threshold is bit-identical either way).
        """

        weights = np.asarray(weights)
        n = weights.shape[0]
        # |w_j x_j| RMS approximated as rms(|w|) * robust-rms(|x|) on a sample
        # of the data; the threshold only needs the right order of magnitude
        # and this keeps verification from re-reading whole arrays.  The data
        # scale is outlier-filtered (see _magnitude_rms) so that a threshold
        # derived from already-corrupted data is not inflated - or overflowed
        # - by the corruption it is supposed to expose.
        if weight_rms is None:
            weight_rms = float(np.sqrt(np.mean(np.abs(weights) ** 2))) if n else 0.0
        value_rms = weight_rms * (
            data_rms if data_rms is not None else self._magnitude_rms(data)
        )
        if self.mode is ThresholdMode.RELATIVE:
            return max(self.relative_factor * n * value_rms, self.floor)
        sigma = self.model.summation_sigma(n, value_rms)
        return max(self.safety_factor * self.memory_margin * sigma, self.floor)
