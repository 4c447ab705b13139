"""Common scheme interface and optimization flags.

All sequential schemes (plain, offline, online, optimized online) share the
same calling convention::

    scheme = SomeScheme(n, ...)
    result = scheme.execute(x, injector=maybe_injector)
    result.output  # the transform
    result.report  # what was verified / detected / corrected

which is what lets the benchmark harnesses and fault campaigns treat them
interchangeably.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.checksums import repair_single_error, weighted_sum
from repro.core.detection import FTReport
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.models import FaultSite
from repro.utils.validation import as_complex_vector, ensure_positive_int

__all__ = ["BatchResult", "OptimizationFlags", "SchemeResult", "FTScheme"]


@dataclass(frozen=True)
class OptimizationFlags:
    """Toggles for the Section 4 optimizations (used for ablations).

    Attributes
    ----------
    modified_checksums:
        Reuse the computational input checksum vector ``rA`` as the first
        memory checksum (Section 4.1).  Off = classic ``(1..1)/(1..n)``
        weights and a separate computational checksum pass.
    postpone_verification:
        Postpone the input memory verification of each first-part sub-FFT
        into its computational verification (Section 4.2).
    incremental_checksums:
        Build the memory checksums of the second-part inputs incrementally
        as the first-part outputs are produced instead of re-reading the
        intermediate array (Section 4.3).
    contiguous_buffer:
        Gather each group of strided first-part columns into a contiguous
        buffer before computing on them (Section 4.4 / Section 6.2).
    group_size:
        Number of sub-FFTs executed between consecutive verifications (the
        paper's ``s``) under a live injector; a fault-free run takes each
        part as one group.  Verification granularity - and therefore
        recovery granularity - remains a single sub-FFT.
    max_retries:
        Bound on the recompute-and-reverify loop of Algorithm 2 so that a
        persistent (non-transient) fault cannot hang the transform.
    """

    modified_checksums: bool = True
    postpone_verification: bool = True
    incremental_checksums: bool = True
    contiguous_buffer: bool = True
    group_size: int = 32
    max_retries: int = 3

    @classmethod
    def all_off(cls) -> "OptimizationFlags":
        """The naive configuration used by the un-optimized online scheme."""

        return cls(
            modified_checksums=False,
            postpone_verification=False,
            incremental_checksums=False,
            contiguous_buffer=False,
        )


@dataclass
class SchemeResult:
    """Output of one protected execution."""

    output: np.ndarray
    report: FTReport
    scheme: str = ""

    @property
    def detected(self) -> bool:
        return self.report.detected

    @property
    def corrected(self) -> bool:
        return self.report.corrected

    @property
    def uncorrectable(self) -> bool:
        return self.report.has_uncorrectable


@dataclass
class BatchResult:
    """Output of one batched protected execution (``FTPlan.execute_many``)."""

    output: np.ndarray
    report: FTReport
    #: flat indices (into the flattened batch) of rows that failed their
    #: first verification: recovered, or listed in ``uncorrectable_rows``
    fallback_rows: Tuple[int, ...] = ()
    #: flat indices of rows whose recovery ultimately failed; per-row
    #: consumers (the serving batcher) read this instead of parsing the
    #: report's free-text ``uncorrectable`` messages
    uncorrectable_rows: Tuple[int, ...] = ()

    @property
    def detected(self) -> bool:
        return self.report.detected

    @property
    def corrected(self) -> bool:
        return self.report.corrected

    @property
    def uncorrectable(self) -> bool:
        return self.report.has_uncorrectable


class FTScheme(abc.ABC):
    """Base class of all sequential (single-process) schemes.

    ``real=True`` puts a scheme into real-input mode: ``execute`` accepts
    ``n`` real samples, the full interior machinery (per-sub-FFT checksums,
    DMR, memory hierarchies) runs on the complexified input exactly as in
    complex mode, and the returned spectrum is the packed conjugate-even
    ``n//2 + 1`` layout of ``numpy.fft.rfft`` - the OUTPUT fault site and
    the final packed-layout locating checksums target that array, so output
    faults strike (and are repaired on) what the caller actually receives.
    """

    #: short identifier used by the scheme registry and benchmark tables
    name: str = "base"

    def __init__(
        self,
        n: int,
        *,
        thresholds: Optional[ThresholdPolicy] = None,
        real: bool = False,
    ) -> None:
        self.n = ensure_positive_int(n, name="n")
        self.thresholds = thresholds or ThresholdPolicy()
        self.real = bool(real)
        #: packed half-complex bins the real mode returns (n//2 + 1)
        self.bins = self.n // 2 + 1

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray, injector: Optional[FaultInjector] = None) -> SchemeResult:
        """Transform ``x`` under this scheme's protection."""

        x = as_complex_vector(x, copy=True, name="x")
        if x.size != self.n:
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        if self.real and np.any(x.imag != 0.0):
            raise ValueError("real-mode scheme expects real-valued input")
        report = FTReport(scheme=self.name)
        output = self._run(x, injector or NullInjector(), report)
        return SchemeResult(output=output, report=report, scheme=self.name)

    def __call__(self, x: np.ndarray, injector: Optional[FaultInjector] = None) -> SchemeResult:
        return self.execute(x, injector)

    # ------------------------------------------------------------------
    def _finalize_output(self, output: np.ndarray, injector, report: FTReport) -> np.ndarray:
        """Visit the OUTPUT fault site; in real mode, pack and protect first.

        Complex mode is unchanged: the site strikes the full spectrum.  Real
        mode keeps the non-redundant ``n//2 + 1`` bins, generates a locating
        checksum pair over that packed array (memory-FT schemes), exposes the
        packed array to the injector, and verifies/repairs afterwards - the
        packed layout gets the same single-fault correction guarantee as the
        full layout's final MCV.
        """

        if not self.real:
            injector.visit(FaultSite.OUTPUT, output)
            return output
        packed = np.ascontiguousarray(output[: self.bins])
        constants = getattr(self, "constants", None)
        p1 = getattr(constants, "p1_h", None)
        protect = bool(getattr(self, "memory_ft", False)) and p1 is not None
        if protect:
            p2 = constants.p2_h
            s1 = weighted_sum(p1, packed)
            s2 = weighted_sum(p2, packed)
            eta = self.thresholds.eta_memory(p1, packed, weight_rms=constants.p1_h_rms)
            report.bump("output-mcg")
        injector.visit(FaultSite.OUTPUT, packed)
        if protect:
            residual = float(np.abs(weighted_sum(p1, packed) - s1))
            report.bump("memory-verifications")
            if residual_exceeds(residual, eta):
                report.record_verification("real-output-mcv", None, residual, eta, True)
                repaired = repair_single_error(packed, p1, p2, s1, s2)
                if repaired is None:
                    report.record_uncorrectable(
                        "real output: packed-spectrum corruption could not be located"
                    )
                else:
                    report.record_correction(
                        "memory-correct", "real-output", None, f"bin {repaired[0]} repaired"
                    )
        return packed

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _run(self, x: np.ndarray, injector, report: FTReport) -> np.ndarray:
        """Scheme-specific execution; must return the transform of ``x``."""
