"""The plan-centric public API: :func:`plan`, :class:`FTPlan`, the wisdom cache.

The paper's premise is FFTW's *plan once, execute many*: all checksum weight
vectors, twiddle tables, and sub-plans of a protected transform are
size-dependent but data-independent, so they should be paid for once.  This
module is that split for the ABFT schemes:

>>> import numpy as np, repro
>>> p = repro.plan(4096)                       # cached FTPlan (opt-online+mem)
>>> x = np.random.default_rng(0).standard_normal(4096) + 0j
>>> bool(np.allclose(p.execute(x).output, np.fft.fft(x)))
True
>>> repro.plan(4096) is p                      # wisdom: same object back
True

``plan()`` consults a thread-safe, size-bounded LRU cache keyed by
``(n, FTConfig)`` - the analogue of FFTW wisdom.  The returned
:class:`FTPlan` owns the scheme instance plus the batched-protection weight
vectors and exposes three execution entry points:

``execute(x)``
    The protected forward transform of one vector (the scheme's native
    fault-tolerance machinery: per-sub-FFT online verification etc.).
``inverse(X)``
    The protected inverse through the forward's own protected program
    (``ifft(X)[j] = F(X)[(n - j) mod n] / n``), so the same coverage applies
    in both directions.
``execute_many(X, axis=-1)``
    Batched execution.  The whole batch moves through the two-layer pipeline
    as one 3-D array (no per-row Python loop) and protection is *vectorized*:
    per-row end-to-end checksums are generated with one matrix-vector
    product, verified with one residual comparison, and only rows whose
    verification fails drop into the scalar recovery path (memory repair via
    the locating checksum pair, then re-execution under the fully protected
    scheme).

Every execution runs on the caller's thread.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.base import SchemeResult
from repro.core.checksums import (
    halfcomplex_sum,
    repair_single_error,
    weighted_sum,
)
from repro.core.config import FTConfig
from repro.core.constants import SchemeConstants
from repro.core.detection import FTReport
from repro.core.thresholds import ThresholdPolicy, residual_exceeds
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.models import FaultSite
from repro.fftlib.backends import get_backend, resolve_backend_name
from repro.telemetry import trace as _trace
from repro.utils.validation import as_complex_vector, ensure_positive_int

__all__ = [
    "BatchResult",
    "FTPlan",
    "PlanCacheInfo",
    "plan",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class BatchResult:
    """Output of one batched protected execution (see ``execute_many``)."""

    output: np.ndarray
    report: FTReport
    #: flat indices (into the flattened batch) of rows that failed the
    #: vectorized verification and went through scalar recovery
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


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------

class FTPlan:
    """A reusable, cached, fault-tolerant transform of one size and config.

    Create via :func:`plan` (which caches) or directly (which does not).
    Plans hold no per-execution state, so one plan may be shared freely
    across threads and executed concurrently.
    """

    def __init__(self, n: int, config: Union[FTConfig, str, None] = None) -> None:
        if config is None:
            config = FTConfig()
        elif isinstance(config, str):
            config = FTConfig.from_name(config)
        self.n = ensure_positive_int(n, name="n")
        self.config = config
        # All data-independent ABFT state - checksum weight vectors,
        # closed-form rA encodings, locating pairs, threshold weight-RMS
        # inputs - is computed exactly once here and threaded into the
        # scheme; execute() never rebuilds it.
        self.constants = SchemeConstants.for_config(self.n, config)
        self.scheme = config.build(self.n, constants=self.constants)
        self.dtype = np.dtype(config.dtype)
        self._protected = config.kind != "plain"
        #: real-input mode: float64 input, packed n//2 + 1 output layout
        self._real = bool(config.real)
        self.bins = self.n // 2 + 1
        if self._protected:
            # Batched-protection state: end-to-end computational checksum
            # vector (c = rA) and, with memory FT, the locating pair
            # (Section 4.1 reuse, all from the shared plan-time bundle).
            # Real plans additionally carry the conjugate-even fold of r
            # onto the packed layout and a locating pair over the packed
            # spectrum itself.
            self._c = self.constants.c_n
            self._r = self.constants.r_n
            self._w1 = self.constants.w1_n
            self._w2 = self.constants.w2_n
            self._hc_a = self.constants.hc_a
            self._hc_b = self.constants.hc_b
        # Compiled real program (fftlib backend): fetched from the shared
        # program LRU at plan time, so real execution pays no lowering cost.
        self._real_program = None
        if self._real and self.backend == "fftlib":
            from repro.fftlib.executor import get_real_program

            self._real_program = get_real_program(self.n)
        #: in-place execution (``FTConfig.inplace``): the compiled Stockham
        #: program behind the ``out=`` overwrite paths of ``execute`` /
        #: ``execute_many`` (complex plans, fftlib backend, supported sizes;
        #: ``None`` keeps the overwrite *semantics* via transform-and-copy).
        self._inplace = bool(config.inplace)
        self._inplace_program = None
        if (
            self._inplace
            and not self._real
            and self.backend == "fftlib"
        ):
            from repro.fftlib.executor import get_stockham_program, stockham_supported

            if stockham_supported(self.n):
                self._inplace_program = get_stockham_program(self.n)
        #: Compiled direct program for batched complex rows (fftlib backend):
        #: execute_many transforms the whole batch through the one-shot stage
        #: program instead of the two-layer pipeline.
        self._batch_program = None
        #: Fused protected program: the end-to-end check frozen around the
        #: same lowered program (one cached object per size), used by the
        #: fault-free single-vector ``execute``/``inverse``.  Live injectors
        #: always take the paper-exact scheme path.
        self._fused_program = None
        self._fused_eta = None
        self._fused_eta_memory = None
        if not self._real and self.backend == "fftlib":
            from repro.fftlib.executor import get_program

            self._batch_program = get_program(self.n)
            if self._protected:
                from repro.fftlib.protected import get_protected_program

                self._fused_program = get_protected_program(
                    self.n, optimized=config.optimized, memory_ft=config.memory_ft
                )
                # Threshold derivations, pre-bound at plan time (bit-identical
                # to eta_offline / eta_memory, see ThresholdPolicy).
                self._fused_eta = self.thresholds.offline_threshold_fn(self.n)
                self._fused_eta_memory = self.thresholds.memory_threshold_fn(self.n)
        # Recovery retry budget: explicit flags win; otherwise inherit the
        # built scheme's own effective default so execute() and
        # execute_many() agree on what "uncorrectable" means.
        flags = config.flags
        if flags is not None:
            self._max_retries = int(flags.max_retries)
        elif hasattr(self.scheme, "flags"):
            self._max_retries = int(self.scheme.flags.max_retries)
        else:
            self._max_retries = int(getattr(self.scheme, "max_retries", 2))

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.scheme.plan.m

    @property
    def k(self) -> int:
        return self.scheme.plan.k

    @property
    def backend(self) -> str:
        return self.scheme.plan.backend

    @property
    def scheme_name(self) -> str:
        return self.scheme.name

    @property
    def thresholds(self) -> ThresholdPolicy:
        return self.scheme.thresholds

    # ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        """Protected forward transform of one length-``n`` vector.

        Real plans accept ``n`` float64 samples and return the packed
        ``n//2 + 1`` spectrum (``numpy.fft.rfft`` layout) with the same
        detection/correction guarantees: a live injector routes through the
        scheme's full interior machinery (packed-layout OUTPUT site and
        locating checksums included), fault-free runs take the compiled
        half-complex program with end-to-end conjugate-even verification.

        ``out`` selects the overwrite path (Section 5 of the paper): the
        result is written into the given buffer, which for complex plans
        may be ``x`` itself - the transform then runs genuinely in place
        (Stockham lowering, one half-size scratch) and the input is
        *destroyed*.  Verification still works because the checksums
        encoded before the transform carry an input surrogate: with memory
        fault tolerance the locating pair is re-encoded onto the output
        side (``w . X = (F w) . x``), so a detected single-element
        corruption of the overwritten buffer is located and repaired
        without the input; without memory FT a detected violation is
        honestly uncorrectable.  Like the batched path, the overwrite path
        visits only the INPUT/OUTPUT fault sites - use the out-of-place
        ``execute`` to exercise stage-interior sites.
        """

        if out is not None:
            if self._real:
                return self._execute_real_out(x, injector, out)
            return self._execute_out(x, injector, out)
        if self._real:
            return self._execute_real(x, injector)
        return self._cast_result(self._execute_complex(x, injector))

    def __call__(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> SchemeResult:
        return self.execute(x, injector, out=out)

    def _execute_complex(
        self, x: np.ndarray, injector: Optional[FaultInjector]
    ) -> SchemeResult:
        """Route one complex vector: fused fast path or paper-exact scheme.

        The fused program handles fault-free runs only; any live injector
        gets the scheme's full interior machinery so every instrumented
        fault site keeps firing exactly as the paper describes.
        """

        if self._fused_program is not None and (injector is None or not injector.is_live):
            return self._execute_fused(x)
        return self.scheme.execute(x, injector)

    def inverse(
        self, spectrum: np.ndarray, injector: Optional[FaultInjector] = None
    ) -> SchemeResult:
        """Protected inverse transform.

        Fault-free complex calls use ``ifft(X)[j] = F(X)[(n - j) mod n] /
        n``: the fused program runs on ``X`` itself, with the forward's
        encode ``c . X``, check ``r . F(X) = c . X``, thresholds and
        repair/restart loop, and one finish pass reverses and scales its
        output (in place in C on the native lowering, summing the check on
        the way).  No conjugated copy and no conjugation pass.  Live
        injectors and foreign backends take the paper-exact scheme through
        the conjugation identity ``ifft(X) = conj(fft(conj(X))) / n``, so
        every instrumented fault site fires in both directions.  Real
        plans map the packed spectrum back to ``n`` real samples, protected
        end-to-end through the same checksum identity (``c . x = r . X``
        with the packed-layout fold on the spectrum side).
        """

        if self._real:
            return self._inverse_real(spectrum, injector)
        if self._fused_program is not None and (injector is None or not injector.is_live):
            return self._cast_result(self._execute_fused(spectrum, backward=True))
        result = self.scheme.execute(np.conj(spectrum, dtype=np.complex128), injector)
        # conj(X) / n in place on the transform's own (fresh, contiguous
        # complex128) result, through its float64 view: scale, then negate
        # the imaginary parts.  Multiplying by 1/n is what numpy's complex
        # division by a real n computes, so the values are the same.
        parts = result.output.view(np.float64)
        parts *= 1.0 / self.n
        np.negative(parts[1::2], out=parts[1::2])
        return self._cast_result(result)

    # ------------------------------------------------------------------
    # fused protected execution (fault-free fast path)
    # ------------------------------------------------------------------
    def _execute_fused(self, x: np.ndarray, backward: bool = False) -> SchemeResult:
        """One vector through the fused protected program.

        The paper's offline check around the plan's own lowering: encode
        ``c . x`` (plus the locating pair with memory FT), run the program,
        verify ``r . X`` against the reference with the exact thresholds
        the legacy scheme uses.  The spectrum is bit-identical to the
        unprotected program.  A detected violation memory-verifies and
        repairs the input via the locating pair, then restarts, up to the
        retry budget (the discipline of :meth:`_protected_rfft`).
        ``backward`` returns the inverse transform of ``x`` instead, after
        the same check on the same program run (see :meth:`inverse`).
        """

        prog = self._fused_program
        original = x
        x = as_complex_vector(x, name="x")
        if x.size != self.n:
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        # The input is only copied if a repair must mutate it (fault-free
        # runs never pay for the legacy path's defensive copy).
        private = x is not original
        report = FTReport(scheme=self.scheme.name)
        thresholds = self.thresholds
        memory = self.config.memory_ft

        cx = prog.encode(x)
        x_rms = thresholds.magnitude_rms(x)
        sigma0 = float(x_rms / np.sqrt(2.0))
        eta = self._fused_eta(sigma0)
        if memory:
            # With the optimized scheme w1 *is* the rA encoding, so the
            # first locating checksum is the input checksum already in hand.
            # Same np.dot / suppressed-overflow contract as weighted_sum,
            # one errstate entry for both checksums.
            with np.errstate(over="ignore", invalid="ignore"):
                s1 = cx if prog.reuse_input_checksum else complex(np.dot(self._w1, x))
                s2 = complex(np.dot(self._w2, x))
            eta_mem = self._fused_eta_memory(self.constants.w1_n_rms, x_rms)
        report.bump("checksum-generations", 1)

        def _repair_input() -> bool:
            """Memory-verify ``x``, repair a located corruption, re-encode.

            Returns ``False`` only when corruption was detected but could
            not be located (uncorrectable).  Mirrors the discipline of
            :meth:`_protected_rfft`.
            """

            nonlocal x, private, cx, s1
            if not memory:
                return True
            mem_residual = float(np.abs(weighted_sum(self._w1, x) - s1))
            if residual_exceeds(mem_residual, eta_mem):
                report.record_verification("fused-mcv", None, mem_residual, eta_mem, True)
                if not private:
                    x = x.copy()
                    private = True
                repaired = repair_single_error(x, self._w1, self._w2, s1, s2)
                if repaired is None:
                    report.record_uncorrectable(
                        "fused: input corruption could not be located"
                    )
                    return False
                report.record_correction(
                    "memory-correct", "fused-input", None,
                    f"element {repaired[0]} repaired",
                )
                # The reference was encoded from the pre-repair data and
                # would otherwise flag every subsequent (correct) run.
                cx = prog.encode(x)
                if prog.reuse_input_checksum:
                    s1 = cx
            return True

        attempts = 0
        while True:
            attempts += 1
            # Forward calls pass x alone: stand-ins for execute_tapped that
            # only serve the forward take (self, x).
            if backward:
                output, rx = prog.execute_tapped(x, backward=True)
            else:
                output, rx = prog.execute_tapped(x)
            report.bump("verifications", 1)
            # A Python float comparison with the same NaN-is-violation
            # semantics as residual_exceeds.
            residual = abs(rx - cx)
            detected = not residual <= eta
            report.record_verification("fused-ccv", None, residual, eta, detected)
            if not detected:
                break
            if not _repair_input():
                break
            if attempts > self._max_retries:
                report.record_uncorrectable(
                    f"fused: verification still failing after "
                    f"{self._max_retries} restarts"
                )
                break
            report.record_correction(
                "restart", "fused", None, "fused transform recomputed"
            )
        return SchemeResult(output=output, report=report, scheme=self.scheme.name)

    # ------------------------------------------------------------------
    # real-input execution
    # ------------------------------------------------------------------
    def _as_real(self, data: np.ndarray, name: str = "x") -> np.ndarray:
        """A private float64 copy of ``data`` (complex inputs must be real)."""

        data = np.asarray(data)
        if np.iscomplexobj(data):
            if np.any(data.imag != 0.0):
                raise ValueError(f"real plan expects real-valued {name}")
            data = data.real
        return np.array(data, dtype=np.float64)

    def _transform_real(self, rows: np.ndarray) -> np.ndarray:
        """Unprotected packed transform (compiled program or backend rfft)."""

        if self._real_program is not None:
            return self._real_program.execute(rows)
        return get_backend(self.backend).rfft(rows, axis=-1)

    def _inverse_transform_real(self, spectrum: np.ndarray) -> np.ndarray:
        if self._real_program is not None:
            return self._real_program.execute_inverse(spectrum)
        return get_backend(self.backend).irfft(spectrum, n=self.n, axis=-1)

    def _output_checksum(self, packed: np.ndarray) -> Union[np.complexfloating, np.ndarray]:
        """End-to-end output reduction; the conjugate-even fold in real mode.

        Works on one spectrum (last axis = bins/n) or a batch of them.
        """

        if self._real:
            return halfcomplex_sum(
                self._hc_a, self._hc_b, packed, axis=1 if packed.ndim == 2 else 0
            )
        return packed @ self._r

    def _execute_real(self, x: np.ndarray, injector: Optional[FaultInjector]) -> SchemeResult:
        injector = injector or NullInjector()
        xr = self._as_real(x)
        if xr.shape != (self.n,):
            raise ValueError(f"input has length {xr.size}, expected {self.n}")
        if injector.is_live:
            # Paper-exact path: full interior machinery on the complexified
            # input, packed OUTPUT site + packed locating MCV in the scheme.
            return self._cast_result(self.scheme.execute(xr, injector))
        report = FTReport(scheme=self.scheme.name)
        if not self._protected:
            output = self._transform_real(xr)
        else:
            output = self._protected_rfft(xr, report)
        return self._cast_result(
            SchemeResult(output=output, report=report, scheme=self.scheme.name)
        )

    def _protected_rfft(self, xr: np.ndarray, report: FTReport) -> np.ndarray:
        """End-to-end protected compiled rfft (fault-free fast path).

        Offline-style protection around the half-complex program: the input
        checksum ``c . x`` uses the unchanged closed-form ``rA`` encoding
        (real samples), the output side folds onto the packed layout, and a
        violation repairs the input via the locating pair before
        recomputing.  On even sizes the cached half-length complex
        sub-transform is additionally verified *before* the disentangle pass
        (``c_h . z = r_h . Z``), so a fault inside the compiled pipeline is
        caught and recomputed mid-pipeline instead of surfacing only in the
        end-to-end check.
        """

        consts = self.constants
        cx = weighted_sum(self._c, xr)
        x_rms = self.thresholds.magnitude_rms(xr)
        sigma0 = float(x_rms / np.sqrt(2.0))
        eta = self.thresholds.eta_offline(self.n, xr, sigma0=sigma0)
        if self.config.memory_ft:
            s1 = weighted_sum(self._w1, xr)
            s2 = weighted_sum(self._w2, xr)
            eta_mem = self.thresholds.eta_memory(
                self._w1, xr, weight_rms=consts.w1_n_rms, data_rms=x_rms
            )
        program = self._real_program
        interior = (
            program is not None
            and getattr(program, "half", 0) > 0
            and consts.c_h is not None
        )
        cz = eta_h = z = None
        if interior:
            # The packed view z aliases xr, so a memory repair of the input
            # is visible here without re-packing.
            z = program.pack(xr)
            cz = weighted_sum(consts.c_h, z)
            eta_h = self.thresholds.eta_offline(program.half, z)

        def _repair_input() -> bool:
            """Memory-verify ``xr`` and repair a located corruption.

            Returns ``False`` only when corruption was detected but could
            not be located (uncorrectable).  Both the interior and the
            end-to-end detection branches route through this, so a
            persistent input fault is repaired no matter which check
            catches it first.  A repair re-encodes the interior checksum:
            ``cz`` was computed from the pre-repair view and would
            otherwise flag every subsequent (correct) half transform.
            """

            nonlocal cz, eta_h
            if not self.config.memory_ft:
                return True
            mem_residual = float(np.abs(weighted_sum(self._w1, xr) - s1))
            if residual_exceeds(mem_residual, eta_mem):
                report.record_verification("real-mcv", None, mem_residual, eta_mem, True)
                repaired = repair_single_error(xr, self._w1, self._w2, s1, s2)
                if repaired is None:
                    report.record_uncorrectable(
                        "real: input corruption could not be located"
                    )
                    return False
                report.record_correction(
                    "memory-correct", "real-input", None, f"element {repaired[0]} repaired"
                )
                if interior:
                    cz = weighted_sum(consts.c_h, z)
                    eta_h = self.thresholds.eta_offline(program.half, z)
            return True
        output = None
        attempts = 0
        while True:
            attempts += 1
            if interior:
                half_spectrum = program.transform_half(z)
                residual_h = float(
                    np.abs(weighted_sum(consts.r_h, half_spectrum) - cz)
                )
                detected_h = bool(residual_exceeds(residual_h, eta_h))
                report.record_verification(
                    "real-interior-ccv", None, residual_h, eta_h, detected_h
                )
                if detected_h:
                    # A corrupted *input* also trips the interior check (it
                    # reads z, a view of xr), so the locating pair must get
                    # its repair chance before the restart recomputes from
                    # the same data.
                    if not _repair_input():
                        output = program.disentangle(half_spectrum)
                        break
                    if attempts > self._max_retries:
                        report.record_uncorrectable(
                            f"real: interior verification still failing after "
                            f"{self._max_retries} restarts"
                        )
                        output = program.disentangle(half_spectrum)
                        break
                    report.record_correction(
                        "restart", "real-interior", None,
                        "half-length transform recomputed before disentangle",
                    )
                    continue
                output = program.disentangle(half_spectrum)
            else:
                output = self._transform_real(xr)
            residual = float(np.abs(self._output_checksum(output) - cx))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("real-ccv", None, residual, eta, detected)
            if not detected:
                break
            if not _repair_input():
                break
            if attempts > self._max_retries:
                report.record_uncorrectable(
                    f"real: verification still failing after {self._max_retries} restarts"
                )
                break
            report.record_correction("restart", "real", None, "packed transform recomputed")
        return output

    def _inverse_real(
        self, spectrum: np.ndarray, injector: Optional[FaultInjector]
    ) -> SchemeResult:
        """Packed spectrum -> real signal, protected end-to-end.

        Uses the same identity as the forward direction with the roles
        swapped: ``c . x_out`` must match the conjugate-even fold of ``r``
        over the (stored, pre-transform) packed spectrum.  Interior fault
        sites do not fire here (the compiled half-complex inverse has no
        instrumented sub-FFT stages); INPUT strikes the packed spectrum,
        OUTPUT the real signal.
        """

        injector = injector or NullInjector()
        packed = np.array(np.asarray(spectrum), dtype=np.complex128)
        if packed.shape != (self.bins,):
            raise ValueError(
                f"real plan expects {self.bins} packed bins, got shape {packed.shape}"
            )
        report = FTReport(scheme=self.scheme.name)
        if not self._protected:
            injector.visit(FaultSite.INPUT, packed)
            output = self._inverse_transform_real(packed)
            injector.visit(FaultSite.OUTPUT, output)
            return self._cast_result(
                SchemeResult(output=output, report=report, scheme=self.scheme.name)
            )
        consts = self.constants
        target = complex(self._output_checksum(packed))  # r . X, stored before faults
        if self.config.memory_ft:
            p1, p2 = consts.p1_h, consts.p2_h
            s1 = weighted_sum(p1, packed)
            s2 = weighted_sum(p2, packed)
            eta_mem = self.thresholds.eta_memory(p1, packed, weight_rms=consts.p1_h_rms)
        injector.visit(FaultSite.INPUT, packed)
        output = None
        attempts = 0
        while True:
            attempts += 1
            output = self._inverse_transform_real(packed)
            injector.visit(FaultSite.OUTPUT, output)
            eta = self.thresholds.eta_offline(self.n, output)
            residual = float(np.abs(weighted_sum(self._c, output) - target))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("real-inverse-ccv", None, residual, eta, detected)
            if not detected:
                break
            if self.config.memory_ft:
                mem_residual = float(np.abs(weighted_sum(p1, packed) - s1))
                if residual_exceeds(mem_residual, eta_mem):
                    report.record_verification("real-inverse-mcv", None, mem_residual, eta_mem, True)
                    repaired = repair_single_error(packed, p1, p2, s1, s2)
                    if repaired is None:
                        report.record_uncorrectable(
                            "real inverse: spectrum corruption could not be located"
                        )
                        break
                    report.record_correction(
                        "memory-correct", "real-inverse-input", None,
                        f"bin {repaired[0]} repaired",
                    )
            if attempts > self._max_retries:
                report.record_uncorrectable(
                    f"real inverse: verification still failing after {self._max_retries} restarts"
                )
                break
            report.record_correction("restart", "real-inverse", None, "real inverse recomputed")
        return self._cast_result(
            SchemeResult(output=output, report=report, scheme=self.scheme.name)
        )

    # ------------------------------------------------------------------
    # in-place / overwrite execution (``out=``)
    # ------------------------------------------------------------------
    def _check_out(self, out: np.ndarray, shape: Tuple[int, ...], dtype: type) -> np.ndarray:
        if self.dtype != np.complex128:
            raise ValueError(
                "the overwrite path runs in the buffer itself and cannot "
                "down-cast; out= requires dtype='complex128'"
            )
        if (
            not isinstance(out, np.ndarray)
            or out.shape != shape
            or out.dtype != dtype
            or not out.flags.c_contiguous
            or not out.flags.writeable
        ):
            raise ValueError(
                f"out must be a writeable C-contiguous {np.dtype(dtype).name} "
                f"array of shape {shape}"
            )
        return out

    def _inplace_constants(self) -> SchemeConstants:
        """The constants bundle with the carried surrogate pairs present.

        Plans configured with ``inplace=True`` built them at plan time;
        a plan whose caller discovers ``out=`` later gets them lazily here
        (one compiled FFT per weight vector, cached on the plan - a benign
        race recomputes identical arrays), so surrogate recovery never
        silently degrades just because the config lacked the flag.
        """

        consts = self.constants
        if self.config.memory_ft and not consts.inplace:
            consts = self.constants = consts.with_inplace()
        return consts

    def _transform_inplace(self, rows: np.ndarray) -> None:
        """Overwrite ``(batch, n)`` (or 1-D) rows with their spectra.

        The Stockham program when the plan lowered one (caller's buffer
        plus the half-size thread-local scratch); otherwise the ordinary
        out-of-place pipeline with a copy back, preserving the overwrite
        contract for unsupported sizes and foreign backends.
        """

        if self._inplace_program is not None:
            self._inplace_program.execute_inplace(rows)
        elif rows.ndim == 1:
            rows[...] = self._transform_rows(rows[None, :])[0]
        else:
            rows[...] = self._transform_rows(rows)

    def _repair_output(
        self,
        buf: np.ndarray,
        S1: Optional[np.complexfloating],
        S2: Optional[np.complexfloating],
        weights: Tuple[Optional[np.ndarray], Optional[np.ndarray]],
        report: FTReport,
        label: str,
        index: Optional[int] = None,
    ) -> bool:
        """Locate/repair one corrupted element of the overwritten buffer.

        ``S1``/``S2`` are the carried surrogate sums encoded from the
        (destroyed) input; ``weights`` is the matching locating pair over
        the output layout.  Returns ``False`` when no surrogate exists or
        location fails - the in-place path has nothing left to recompute
        from, so the caller records the violation as uncorrectable.
        """

        if S1 is None:
            report.record_uncorrectable(
                f"{label}: input overwritten and no locating surrogate "
                f"(the plan has no memory fault tolerance)"
            )
            return False
        w1, w2 = weights
        repaired = repair_single_error(buf, w1, w2, S1, S2)
        if repaired is None:
            report.record_uncorrectable(
                f"{label}: corruption of the overwritten buffer could not be located"
            )
            return False
        report.record_correction(
            "memory-correct", label, index,
            f"element {repaired[0]} repaired from the carried surrogate",
        )
        return True

    def _execute_out(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector],
        out: np.ndarray,
    ) -> SchemeResult:
        """Complex overwrite path: ``out`` (possibly ``x`` itself) is transformed in place."""

        out = self._check_out(out, (self.n,), np.complex128)
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        if out is not x:
            np.copyto(out, x.astype(np.complex128, copy=False))
        injector = injector or NullInjector()
        report = FTReport(scheme=f"{self.scheme.name}[inplace]")
        if not self._protected:
            injector.visit(FaultSite.INPUT, out)
            self._transform_inplace(out)
            injector.visit(FaultSite.OUTPUT, out)
            return SchemeResult(output=out, report=report, scheme=self.scheme.name)

        consts = self._inplace_constants()
        # --- encode while the input still exists --------------------------
        cx = weighted_sum(self._c, out)
        eta = self.thresholds.eta_offline(self.n, out)
        s1 = s2 = S1 = S2 = None
        if self.config.memory_ft:
            s1 = weighted_sum(self._w1, out)
            s2 = weighted_sum(self._w2, out)
            eta_mem = self.thresholds.eta_memory(
                self._w1, out, weight_rms=consts.w1_n_rms
            )
            if consts.fw1_n is not None:
                # The carried surrogate: these two sums ARE w1 . X / w2 . X
                # of the not-yet-computed output.
                S1 = weighted_sum(consts.fw1_n, out)
                S2 = weighted_sum(consts.fw2_n, out)
        report.bump("checksum-generations", 1)

        injector.visit(FaultSite.INPUT, out)

        # --- last-chance input verification (the buffer is about to go) ---
        if self.config.memory_ft:
            mem_residual = float(np.abs(weighted_sum(self._w1, out) - s1))
            if residual_exceeds(mem_residual, eta_mem):
                report.record_verification("inplace-mcv", None, mem_residual, eta_mem, True)
                repaired = repair_single_error(out, self._w1, self._w2, s1, s2)
                if repaired is None:
                    report.record_uncorrectable(
                        "in-place: input corruption could not be located before overwrite"
                    )
                else:
                    report.record_correction(
                        "memory-correct", "inplace-input", None,
                        f"element {repaired[0]} repaired before the transform",
                    )

        # --- transform (destroys the input) + output verification ---------
        self._transform_inplace(out)
        injector.visit(FaultSite.OUTPUT, out)
        attempts = 0
        while True:
            residual = float(np.abs(weighted_sum(self._r, out) - cx))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("inplace-ccv", None, residual, eta, detected)
            if not detected:
                break
            attempts += 1
            if attempts > self._max_retries:
                report.record_uncorrectable(
                    f"in-place: verification still failing after {self._max_retries} repairs"
                )
                break
            if not self._repair_output(
                out, S1, S2, (self._w1, self._w2), report, "inplace-output"
            ):
                break
        return SchemeResult(output=out, report=report, scheme=self.scheme.name)

    def _execute_real_out(
        self,
        x: np.ndarray,
        injector: Optional[FaultInjector],
        out: np.ndarray,
    ) -> SchemeResult:
        """Real overwrite path: ``x``'s buffer is consumed, ``out`` gets the bins.

        The packed view of the caller's float buffer is transformed in
        place by the half-length Stockham program, so the real samples are
        destroyed; the carried surrogate is the packed locating pair
        re-encoded from the input (``p . P = (F [p; 0]) . x``).
        """

        out = self._check_out(out, (self.bins,), np.complex128)
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"input has length {x.size}, expected {self.n}")
        # The overwrite contract applies to the caller's buffer only when it
        # is directly consumable; otherwise work on a private copy (the
        # caller's data survives, the out= result is identical).
        if (
            isinstance(x, np.ndarray)
            and x.dtype == np.float64
            and x.flags.c_contiguous
            and x.flags.writeable
        ):
            xr = x
        else:
            xr = self._as_real(x)
        injector = injector or NullInjector()
        report = FTReport(scheme=f"{self.scheme.name}[inplace]")
        program = self._real_program
        consts = self._inplace_constants() if self._protected else self.constants

        def _transform() -> None:
            if program is not None:
                out[...] = program.execute_overwrite(xr)
            else:
                out[...] = get_backend(self.backend).rfft(xr, axis=-1)

        if not self._protected:
            injector.visit(FaultSite.INPUT, xr)
            _transform()
            injector.visit(FaultSite.OUTPUT, out)
            return SchemeResult(output=out, report=report, scheme=self.scheme.name)

        # --- encode while the input still exists --------------------------
        cx = weighted_sum(self._c, xr)
        x_rms = self.thresholds.magnitude_rms(xr)
        sigma0 = float(x_rms / np.sqrt(2.0))
        eta = self.thresholds.eta_offline(self.n, xr, sigma0=sigma0)
        s1 = s2 = S1 = S2 = None
        if self.config.memory_ft:
            s1 = weighted_sum(self._w1, xr)
            s2 = weighted_sum(self._w2, xr)
            eta_mem = self.thresholds.eta_memory(
                self._w1, xr, weight_rms=consts.w1_n_rms, data_rms=x_rms
            )
            if consts.fp1_h is not None:
                S1 = weighted_sum(consts.fp1_h, xr)
                S2 = weighted_sum(consts.fp2_h, xr)
        report.bump("checksum-generations", 1)

        injector.visit(FaultSite.INPUT, xr)

        # --- last-chance input verification --------------------------------
        if self.config.memory_ft:
            mem_residual = float(np.abs(weighted_sum(self._w1, xr) - s1))
            if residual_exceeds(mem_residual, eta_mem):
                report.record_verification("inplace-mcv", None, mem_residual, eta_mem, True)
                repaired = repair_single_error(xr, self._w1, self._w2, s1, s2)
                if repaired is None:
                    report.record_uncorrectable(
                        "real in-place: input corruption could not be located before overwrite"
                    )
                else:
                    report.record_correction(
                        "memory-correct", "inplace-input", None,
                        f"element {repaired[0]} repaired before the transform",
                    )

        # --- transform (destroys the input) + packed-output verification --
        _transform()
        injector.visit(FaultSite.OUTPUT, out)
        attempts = 0
        while True:
            residual = float(np.abs(self._output_checksum(out) - cx))
            detected = bool(residual_exceeds(residual, eta))
            report.record_verification("inplace-ccv", None, residual, eta, detected)
            if not detected:
                break
            attempts += 1
            if attempts > self._max_retries:
                report.record_uncorrectable(
                    f"real in-place: verification still failing after "
                    f"{self._max_retries} repairs"
                )
                break
            if not self._repair_output(
                out, S1, S2, (consts.p1_h, consts.p2_h), report, "inplace-output"
            ):
                break
        return SchemeResult(output=out, report=report, scheme=self.scheme.name)

    # ------------------------------------------------------------------
    def execute_many(
        self,
        X: np.ndarray,
        axis: int = -1,
        injector: Optional[FaultInjector] = None,
        *,
        out: Optional[np.ndarray] = None,
    ) -> BatchResult:
        """Protected transform of every length-``n`` slice of ``X`` along ``axis``.

        The batch is transformed as one array (vectorized two-layer pipeline)
        and protected by vectorized per-row end-to-end checksums; see the
        module docstring.  With an injector, faults may strike the batched
        input and output arrays (:attr:`FaultSite.INPUT` /
        :attr:`FaultSite.OUTPUT`); stage-interior sites never fire in a
        batched run (recovery re-executions are deliberately injector-free
        so a persistent spec cannot re-corrupt its own repair) - use
        :meth:`execute` to exercise interior fault sites.

        ``out`` selects the batched overwrite path: the spectra land in the
        given buffer, which for complex plans may be ``X`` itself - the
        rows are then transformed *in place* (Stockham lowering, half-size
        scratch) and the input rows are destroyed.  Protection follows the
        in-place discipline of :meth:`execute`: a last-chance vectorized
        memory verification repairs input corruption just before the
        overwrite, and flagged output rows are repaired from the
        checksum-carried surrogate (``rows @ (F w)`` encoded pre-transform)
        instead of re-executing.
        Real plans accept a separate preallocated packed-spectrum buffer.
        """

        if out is not None and not self._real:
            return self._execute_many_out(X, axis, injector, out)
        if out is not None:
            # Validate the destination *before* paying for the protected
            # batch: the packed output shape is X's shape with the transform
            # axis replaced by the bin count.
            shape = np.asarray(X).shape
            norm_axis = axis if axis >= 0 else len(shape) + axis
            expected = shape[:norm_axis] + (self.bins,) + shape[norm_axis + 1 :]
            self._check_out(out, expected, np.complex128)
            result = self.execute_many(X, axis, injector)
            np.copyto(out, result.output)
            return BatchResult(
                output=out,
                report=result.report,
                fallback_rows=result.fallback_rows,
                uncorrectable_rows=result.uncorrectable_rows,
            )
        X = np.asarray(X)
        if X.ndim == 0:
            raise ValueError("execute_many expects at least a 1-D array")
        if self._real:
            moved = np.moveaxis(X, axis, -1)
        else:
            moved = np.moveaxis(np.asarray(X, dtype=np.complex128), axis, -1)
        if moved.shape[-1] != self.n:
            raise ValueError(
                f"axis {axis} has length {moved.shape[-1]}, expected {self.n}"
            )
        batch_shape = moved.shape[:-1]
        # The working array must be private: the schemes never mutate caller
        # data, and the batch path must not either (the injector corrupts -
        # and recovery repairs - this array in place).  Reshaping a
        # non-contiguous moveaxis view already copies, so only copy when the
        # reshape still aliases the caller's buffer.  (_as_real always
        # copies.)
        if self._real:
            rows = self._as_real(moved, name="X").reshape(-1, self.n)
        else:
            rows = moved.reshape(-1, self.n)
            if np.may_share_memory(rows, X):
                rows = rows.copy()
        batch = rows.shape[0]
        injector = injector or NullInjector()
        report = FTReport(scheme=f"{self.scheme.name}[batch]")
        fallback: List[int] = []
        dead: List[int] = []
        width = self.bins if self._real else self.n

        if not self._protected:
            injector.visit(FaultSite.INPUT, rows)
            out = self._transform_rows(rows)
            injector.visit(FaultSite.OUTPUT, out)
        else:
            # --- vectorized encoding (one matmul per checksum vector; the
            # robust per-row statistics are sampled once and shared by every
            # threshold that needs them) ----------------------------------
            cx = rows @ self._c
            sigma_rows = self.thresholds.component_sigma_rows(rows)
            etas = self.thresholds.eta_offline_batch(self.n, rows, sigma0=sigma_rows)
            if self.config.memory_ft:
                s1 = rows @ self._w1
                s2 = rows @ self._w2
                eta_mem = self.thresholds.eta_memory_batch(
                    self._w1, rows, weight_rms=self.constants.w1_n_rms, sigma0=sigma_rows
                )
            else:
                s1 = s2 = None
            report.bump("checksum-generations", batch)

            # Faults may strike only once the protection exists (the paper's
            # fault model excludes corruption during checksum generation).
            injector.visit(FaultSite.INPUT, rows)

            # --- whole-batch transform + verification (real plans: packed
            # output, conjugate-even reduction).  The memory verification of
            # the input rows against their stored locating checksums catches
            # input corruption the computational residual only sees after
            # the transform.
            out = self._transform_rows(rows)
            injector.visit(FaultSite.OUTPUT, out)
            residuals = np.abs(self._output_checksum(out) - cx)
            comp_violations = residual_exceeds(residuals, etas)
            violations = comp_violations
            if self.config.memory_ft:
                mem_residuals = np.abs(rows @ self._w1 - s1)
                violations = violations | residual_exceeds(mem_residuals, eta_mem)
            report.bump("verifications", batch)
            if self.config.memory_ft:
                report.bump("memory-verifications", batch)
            bad = np.nonzero(violations)[0]

            # --- scalar recovery for the (rare) flagged rows --------------
            for idx in bad:
                idx = int(idx)
                # Rows flagged only by the memory check get their
                # "batch-mcv" record inside _recover_row; don't fabricate a
                # computational violation for them here.
                if comp_violations[idx]:
                    report.record_verification(
                        "batch-ccv", idx, float(residuals[idx]), float(etas[idx]), True
                    )
                fallback.append(idx)
                ok = self._recover_row(rows, out, idx, cx, etas, s1, s2, report)
                if not ok:
                    dead.append(idx)
                    report.record_uncorrectable(
                        f"batch row {idx} still failing after {self._max_retries} retries"
                    )

        output = out.reshape(batch_shape + (width,))
        output = np.moveaxis(output, -1, axis)
        if self.dtype != np.complex128:
            output = output.astype(self.dtype)
        return BatchResult(
            output=output,
            report=report,
            fallback_rows=tuple(fallback),
            uncorrectable_rows=tuple(dead),
        )

    # ------------------------------------------------------------------
    def _execute_many_out(
        self,
        X: np.ndarray,
        axis: int,
        injector: Optional[FaultInjector],
        out: np.ndarray,
    ) -> BatchResult:
        """Complex batched overwrite path (see :meth:`execute_many`)."""

        X = np.asarray(X)
        if X.ndim == 0:
            raise ValueError("execute_many expects at least a 1-D array")
        out = self._check_out(out, X.shape, np.complex128)
        if out is not X:
            np.copyto(out, np.asarray(X, dtype=np.complex128))
        moved = np.moveaxis(out, axis, -1)
        if moved.shape[-1] != self.n:
            raise ValueError(
                f"axis {axis} has length {moved.shape[-1]}, expected {self.n}"
            )
        rows = moved.reshape(-1, self.n)
        rows_alias_out = np.shares_memory(rows, out) and rows.flags.c_contiguous
        if not rows_alias_out:
            # Non-last-axis layouts work on a private contiguous matrix;
            # the pipeline mutates it and the spectra are scattered back
            # below (the overwrite contract is on `out`, not the layout).
            rows = np.ascontiguousarray(rows)
        batch = rows.shape[0]
        injector = injector or NullInjector()
        report = FTReport(scheme=f"{self.scheme.name}[batch,inplace]")
        fallback: List[int] = []
        dead: List[int] = []

        if not self._protected:
            injector.visit(FaultSite.INPUT, rows)
            self._transform_inplace(rows)
            injector.visit(FaultSite.OUTPUT, rows)
        else:
            consts = self._inplace_constants()
            # --- encode while the input rows still exist (batch statistics
            # sampled once, shared across thresholds) ----------------------
            cx = rows @ self._c
            sigma_rows = self.thresholds.component_sigma_rows(rows)
            etas = self.thresholds.eta_offline_batch(self.n, rows, sigma0=sigma_rows)
            S1 = S2 = None
            if self.config.memory_ft:
                s1 = rows @ self._w1
                s2 = rows @ self._w2
                eta_mem = self.thresholds.eta_memory_batch(
                    self._w1, rows, weight_rms=consts.w1_n_rms, sigma0=sigma_rows
                )
                if consts.fw1_n is not None:
                    S1 = rows @ consts.fw1_n
                    S2 = rows @ consts.fw2_n
            report.bump("checksum-generations", batch)

            injector.visit(FaultSite.INPUT, rows)

            # --- last-chance input verification (vectorized) --------------
            if self.config.memory_ft:
                mem_residuals = np.abs(rows @ self._w1 - s1)
                for idx in np.nonzero(residual_exceeds(mem_residuals, eta_mem))[0]:
                    idx = int(idx)
                    report.record_verification(
                        "batch-inplace-mcv", idx,
                        float(mem_residuals[idx]), float(eta_mem[idx]), True,
                    )
                    repaired = repair_single_error(
                        rows[idx], self._w1, self._w2, s1[idx], s2[idx]
                    )
                    if repaired is None:
                        dead.append(idx)
                        report.record_uncorrectable(
                            f"batch row {idx}: input corruption could not be "
                            f"located before overwrite"
                        )
                    else:
                        report.record_correction(
                            "memory-correct", "batch-inplace-input", idx,
                            f"element {repaired[0]} repaired before the transform",
                        )
                report.bump("memory-verifications", batch)

            # --- in-place transform + whole-batch verification ------------
            self._transform_inplace(rows)
            injector.visit(FaultSite.OUTPUT, rows)
            residuals = np.abs(rows @ self._r - cx)
            violations = residual_exceeds(residuals, etas)
            report.bump("verifications", batch)

            # --- surrogate recovery for flagged rows ----------------------
            for idx in np.nonzero(violations)[0]:
                idx = int(idx)
                report.record_verification(
                    "batch-inplace-ccv", idx, float(residuals[idx]), float(etas[idx]), True
                )
                fallback.append(idx)
                ok = False
                for _ in range(max(1, self._max_retries)):
                    if not self._repair_output(
                        rows[idx],
                        None if S1 is None else complex(S1[idx]),
                        None if S2 is None else complex(S2[idx]),
                        (self._w1, self._w2),
                        report,
                        "batch-inplace-output",
                        idx,
                    ):
                        ok = None  # uncorrectable already recorded
                        break
                    residual = float(np.abs(weighted_sum(self._r, rows[idx]) - cx[idx]))
                    ok = not bool(residual_exceeds(residual, float(etas[idx])))
                    report.record_verification(
                        "batch-inplace-ccv-retry", idx, residual, float(etas[idx]), not ok
                    )
                    if ok:
                        break
                if ok is not True:
                    # ok is None: the surrogate repair itself failed (already
                    # recorded); ok is False: repairs kept failing verification.
                    dead.append(idx)
                if ok is False:
                    report.record_uncorrectable(
                        f"batch row {idx}: in-place verification still failing "
                        f"after {self._max_retries} repairs"
                    )

        if not rows_alias_out:
            moved[...] = rows.reshape(moved.shape)
        return BatchResult(
            output=out,
            report=report,
            fallback_rows=tuple(fallback),
            uncorrectable_rows=tuple(sorted(set(dead))),
        )

    # ------------------------------------------------------------------
    def _transform_rows(self, rows: np.ndarray) -> np.ndarray:
        """Unprotected vectorized transform of a ``(batch, n)`` array.

        Complex fftlib plans run the whole batch through the compiled
        one-shot stage program (the same lowering the fused protected path
        wraps); other backends fall back to the batched two-layer pipeline.
        Real plans run the compiled half-complex program (packed
        ``(batch, bins)`` output).
        """

        if self._real:
            return self._transform_real(rows)
        if self._batch_program is not None:
            return self._batch_program.execute(rows)
        # Foreign backends (pocketfft & co.): every registered backend's
        # ``fft`` is a full-size transform batched over the leading axes by
        # contract, and compiled kernels beat the decomposed two-layer
        # pipeline ~3x at serving sizes (one library call vs two batched
        # sub-FFT passes plus twiddle multiply and transpose gather).  The
        # batch path's protection is end-to-end - the checksums bracket
        # whatever produces the spectrum - so unlike the scalar scheme it
        # does not need the two-layer stage structure.
        return get_backend(self.backend).fft(rows, axis=-1)

    def _recover_row(
        self,
        rows: np.ndarray,
        out: np.ndarray,
        idx: int,
        cx: np.ndarray,
        etas: np.ndarray,
        s1: Optional[np.ndarray],
        s2: Optional[np.ndarray],
        report: FTReport,
    ) -> bool:
        """Recover flagged row ``idx``; mirrors the offline restart loop."""

        row = rows[idx]
        for _ in range(max(1, self._max_retries)):
            if self.config.memory_ft:
                eta_mem = self.thresholds.eta_memory(
                    self._w1, row, weight_rms=self.constants.w1_n_rms
                )
                residual = float(np.abs(weighted_sum(self._w1, row) - s1[idx]))
                if residual_exceeds(residual, eta_mem):
                    report.record_verification("batch-mcv", idx, residual, eta_mem, True)
                    repaired = repair_single_error(row, self._w1, self._w2, s1[idx], s2[idx])
                    if repaired is None:
                        report.record_uncorrectable(
                            f"batch row {idx}: input corruption could not be located"
                        )
                        return False
                    report.record_correction(
                        "memory-correct", "batch-input", idx, f"element {repaired[0]} repaired"
                    )
            # Re-execute through the fully protected scalar scheme so the
            # recovery inherits the scheme's own sub-FFT-level machinery
            # (real plans: the scheme runs in real mode and returns the
            # packed spectrum, verified below on the packed layout).
            result = self.scheme.execute(row)
            report.merge(result.report)
            report.record_correction("recompute", "batch", idx, "row re-executed under full protection")
            residual = float(np.abs(self._output_checksum(result.output) - cx[idx]))
            ok = not bool(residual_exceeds(residual, float(etas[idx])))
            report.record_verification("batch-ccv-retry", idx, residual, float(etas[idx]), not ok)
            if ok:
                out[idx] = result.output
                return True
        return False

    # ------------------------------------------------------------------
    def _cast_result(self, result: SchemeResult) -> SchemeResult:
        if self.dtype != np.complex128:
            output = result.output
            if np.isrealobj(output):
                # Real time-domain output (real-plan inverse): halve the
                # precision instead of complexifying.
                result.output = output.astype(np.float32)
            else:
                result.output = output.astype(self.dtype)
        return result

    def profile(self, x: np.ndarray) -> "ProfileResult":
        """Timed per-phase breakdown of one fault-free execution (diagnostic).

        Times the checksum encode pass, each lowered transform stage (one
        entry when the call runs the native kernels), and the end-to-end
        verification of one execution and returns a
        :class:`repro.telemetry.profile.ProfileResult`.  Profiling is a
        diagnostic run outside the hot-path contract (it allocates and
        re-executes freely); the steady-state paths are untouched.
        """

        import time

        from repro.telemetry.profile import ProfileEntry, ProfileResult

        entries: List[ProfileEntry] = []
        fused = self._fused_program
        if self._real and self._real_program is not None:
            xs = np.asarray(x, dtype=np.float64)
            inner = self._real_program.profile(xs)
            entries.extend(inner.entries)
            start = time.perf_counter()
            result = self.execute(xs)
            end_to_end = time.perf_counter() - start
            entries.append(
                ProfileEntry(
                    "protection overhead (checksums + verification)",
                    max(end_to_end - inner.total_seconds, 0.0),
                )
            )
            return ProfileResult(
                n=self.n,
                description=self.describe(),
                # The overhead entry is clamped at zero, so the reported
                # total must take the same floor - otherwise a noisy
                # sub-profile (inner run measured slower than the real
                # execution) breaks sum(entries) == total.
                entries=tuple(entries),
                total_seconds=max(end_to_end, inner.total_seconds),
                output=result.output,
            )
        if fused is not None:
            xs = as_complex_vector(x, name="x")
            start = time.perf_counter()
            fused.encode(xs)
            encode_seconds = time.perf_counter() - start
            entries.append(
                ProfileEntry("encode (input checksum c . x)", encode_seconds)
            )
            inner = fused.program.profile(xs)
            entries.extend(inner.entries)
            start = time.perf_counter()
            output, _ = fused.execute_tapped(xs)
            tapped_seconds = time.perf_counter() - start
            entries.append(
                ProfileEntry(
                    "verification (output checksum r . X)",
                    max(tapped_seconds - inner.total_seconds, 0.0),
                )
            )
            return ProfileResult(
                n=self.n,
                description=self.describe(),
                entries=tuple(entries),
                # Same floor as the verification entry's zero clamp:
                # sum(entries) == total even when the stage sub-profile
                # measured slower than the checked execution.
                total_seconds=encode_seconds + max(tapped_seconds, inner.total_seconds),
                output=output,
            )
        # No compiled fast path to dissect (foreign backend or plain
        # scheme): time the protected execution end to end.
        start = time.perf_counter()
        result = self.execute(np.asarray(x))
        total = time.perf_counter() - start
        entries.append(ProfileEntry("protected execute (end to end)", total))
        return ProfileResult(
            n=self.n,
            description=self.describe(),
            entries=tuple(entries),
            total_seconds=total,
            output=result.output,
        )

    def describe(self) -> str:
        real = f", real -> {self.bins} bins" if self._real else ""
        if self._inplace:
            # Uniform capability-fallback wording (same shape as the
            # native-fallback report): a requested in-place lowering the
            # size cannot support is called out, never silently dropped.
            if self._inplace_program is not None or self._real:
                inplace = ", inplace"
            else:
                inplace = ", inplace-fallback(no Stockham lowering for this size)"
        else:
            inplace = ""
        from repro.fftlib.plan import _native_program_state

        native = ""
        lowered = (self._real_program, self._inplace_program, self._batch_program)
        program = next((p for p in lowered if p is not None), None)
        if program is not None:
            active, reason = _native_program_state(program)
            native = ", native" if active else f", native-fallback({reason or 'not lowered'})"
        return (
            f"FTPlan(n={self.n} = {self.m} x {self.k}{real}{inplace}{native}, "
            f"scheme={self.scheme.name}, backend={self.backend}, dtype={self.dtype.name})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


# ----------------------------------------------------------------------
# the plan cache ("wisdom")
# ----------------------------------------------------------------------

class PlanCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    limit: int


_DEFAULT_CACHE_LIMIT = 32

_cache_lock = threading.RLock()
_cache: "OrderedDict[Tuple[int, FTConfig], FTPlan]" = OrderedDict()
_cache_limit = _DEFAULT_CACHE_LIMIT
_hits = 0
_misses = 0


def plan(n: int, config: Union[FTConfig, str, None] = None, **overrides: Any) -> FTPlan:
    """A cached :class:`FTPlan` for an ``n``-point protected transform.

    Parameters
    ----------
    n:
        Transform length.
    config:
        An :class:`FTConfig`, a legacy registry name (``"opt-online+mem"``),
        or ``None`` for the default configuration.
    **overrides:
        Individual :class:`FTConfig` fields to override, e.g.
        ``plan(4096, backend="numpy")`` or
        ``plan(4096, "offline", memory_ft=True)``.

    Repeated calls with an equal ``(n, config)`` return the *same* plan
    object from a thread-safe, size-bounded LRU cache, so planning cost
    (checksum weight vectors, twiddle tables, sub-plans) is paid once per
    configuration - FFTW wisdom for the protected transform.
    """

    if config is None:
        config = FTConfig(**overrides)
    elif isinstance(config, str):
        config = FTConfig.from_name(config, **overrides)
    elif isinstance(config, FTConfig):
        if overrides:
            config = config.replace(**overrides)
    else:
        raise TypeError(f"config must be FTConfig, str, or None, got {type(config).__name__}")

    # Resolve backend=None to the *current* process default before keying:
    # otherwise a later set_default_backend() would keep returning plans
    # built under the old default, and backend=None / backend="fftlib"
    # would cache duplicate plans for the same kernel.
    resolved = resolve_backend_name(config.backend)
    if config.backend != resolved:
        config = config.replace(backend=resolved)

    key = (int(n), config)
    global _hits, _misses
    with _cache_lock:
        cached = _cache.get(key)
        if cached is not None:
            _hits += 1
            _cache.move_to_end(key)
            return cached
    # Build outside the lock: planning is the expensive part (checksum
    # weight vectors, twiddle warm-up) and must not serialize unrelated
    # threads.  On a race the first inserted plan wins and the duplicate
    # construction is discarded.
    created = FTPlan(n, config)
    with _cache_lock:
        existing = _cache.get(key)
        if existing is not None:
            _hits += 1
            _cache.move_to_end(key)
            return existing
        _misses += 1
        _cache[key] = created
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
    if _trace.active:
        _trace.emit(
            "plan-compile",
            n=int(n),
            scheme=created.scheme.name,
            backend=resolved,
            real=bool(config.real),
            inplace=bool(config.inplace),
        )
    return created


def plan_cache_info() -> PlanCacheInfo:
    """Hit/miss/size statistics of the plan cache."""

    with _cache_lock:
        return PlanCacheInfo(hits=_hits, misses=_misses, size=len(_cache), limit=_cache_limit)


def clear_plan_cache() -> None:
    """Drop all cached plans and reset the statistics."""

    global _hits, _misses
    with _cache_lock:
        _cache.clear()
        _hits = 0
        _misses = 0


def set_plan_cache_limit(limit: int) -> None:
    """Bound the cache to ``limit`` plans (evicting least-recently-used)."""

    global _cache_limit
    limit = ensure_positive_int(limit, name="limit")
    with _cache_lock:
        _cache_limit = limit
        while len(_cache) > _cache_limit:
            _cache.popitem(last=False)
