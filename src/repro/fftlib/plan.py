"""Plan objects: a prepared transform of one size and direction.

FFTW separates *planning* (choosing a decomposition, precomputing twiddle
tables) from *execution* (applying the plan to data).  The ABFT wrappers in
:mod:`repro.core` follow the same split: they are handed a plan and attach
checksum state to it.  A :class:`Plan` is immutable and reusable across many
executions, which is also what makes the fault-injection campaigns cheap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.fftlib import factorization
from repro.fftlib.backends import get_backend, resolve_backend_name
from repro.fftlib.codelets import codelet_flop_count, has_codelet
from repro.utils.validation import ensure_positive_int

__all__ = ["PlanDirection", "Plan"]


class PlanDirection(enum.Enum):
    """Transform direction (FFTW_FORWARD / FFTW_BACKWARD)."""

    FORWARD = "forward"
    BACKWARD = "backward"


def estimate_flops(n: int) -> float:
    """Rough real-operation count of an ``n``-point transform.

    The paper's overhead analysis (Section 7) uses ``5 N log2 N`` as the
    baseline operation count of the FFT itself; we use the same figure for
    composite sizes and the codelet tables for tiny sizes so that planner
    decisions and the :mod:`repro.perfmodel` package agree.
    """

    n = ensure_positive_int(n, name="n")
    if has_codelet(n):
        return float(codelet_flop_count(n))
    if factorization.is_prime(n) and n > 61:
        # Bluestein: three power-of-two FFTs of length ~2n plus O(n) chirps.
        m = 2 * n
        return 3 * 5.0 * m * np.log2(m) + 10.0 * n
    return 5.0 * n * max(np.log2(n), 1.0)


def _native_program_state(program: object) -> tuple:
    """``(active, reason)`` of the native lowering beneath ``program``.

    Walks the wrapper chain (real -> half complex, Stockham -> half
    complex) down to the :class:`~repro.fftlib.executor.StageProgram` that
    carries the native kernel handle, so ``describe()`` can report what
    actually executes.
    """

    for _ in range(4):  # Real -> Stockham -> StageProgram is the deepest chain
        if program is None:
            break
        if hasattr(program, "native_fallback_reason"):
            if getattr(program, "native", None) is not None:
                return True, None
            return False, getattr(program, "native_fallback_reason", None)
        program = getattr(program, "program", None)
    return False, None


@dataclass(frozen=True)
class Plan:
    """A prepared 1-D transform of length ``n``.

    Parameters
    ----------
    n:
        Transform length.
    direction:
        Forward (negative exponent) or backward (positive exponent,
        normalised by ``1/n``).
    backend:
        Registry name of the sub-FFT kernel (see
        :mod:`repro.fftlib.backends`).  ``None`` resolves to the process-wide
        default at execution time.
    real:
        Real-input mode: the forward plan maps ``n`` real samples to the
        packed ``n//2 + 1`` half-complex spectrum, the backward plan maps
        the packed spectrum back to ``n`` real samples.  Lowered to a
        :class:`~repro.fftlib.executor.RealStageProgram` on the ``fftlib``
        backend (roughly half the flops/bytes of the complex plan).
    inplace:
        In-place execution (the paper's Section 5 discipline): the plan
        lowers to the Stockham autosort program
        (:class:`~repro.fftlib.executor.StockhamStageProgram`) when the
        size supports it, halving the working set - the caller's buffer
        plus a single half-size scratch instead of a full-size ping-pong
        pair - and :meth:`execute_inplace` overwrites the caller's buffer.
        Unsupported sizes (odd, Bluestein halves) and foreign backends keep
        their usual lowering; ``execute_inplace`` still honours the
        overwrite *semantics* there via one out-of-place transform plus a
        copy back.
    native:
        Native kernel tier (see :mod:`repro.fftlib.native`; on by
        default): the lowered stage programs dispatch their combine/base
        bodies to generated C kernels loaded via ``ctypes`` - one GIL-free
        foreign call per transform of at least the executor's crossover
        size.  It never fails: with no C compiler, a failed compile,
        ``REPRO_NO_NATIVE=1``, or a program shape the C kernels cannot run
        or run slower (Bluestein and large generic bases) the plan keeps
        its pure-NumPy stage bodies and :meth:`describe` reports the
        fallback reason.  ``native=False`` asks for the NumPy bodies.  Only
        the ``fftlib`` backend lowers native programs (see
        :attr:`~repro.fftlib.backends.FFTBackend.supports_native`).
    """

    n: int
    direction: PlanDirection = PlanDirection.FORWARD
    flops: float = field(default=0.0, compare=False)
    backend: Optional[str] = None
    real: bool = False
    inplace: bool = False
    native: bool = True
    #: ``"kind-fallback(reason)"`` notes for capability requests the planner
    #: could not honour (real plans, foreign backends, or sizes with no
    #: Stockham lowering); surfaced verbatim by :meth:`describe` and mirrored
    #: as ``fallback`` telemetry events at plan-creation time.
    fallbacks: tuple = field(default=(), compare=False, repr=False)
    #: compiled stage program (``fftlib`` backend only); built at plan time
    #: so ``execute`` pays no factorization/twiddle setup.
    program: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        ensure_positive_int(self.n, name="n")
        object.__setattr__(self, "inplace", bool(self.inplace))
        object.__setattr__(self, "native", bool(self.native))
        if self.flops == 0.0:
            # Conjugate-even packing does the work of a half-length complex
            # transform plus an O(n) repack.
            flops = estimate_flops(self.n)
            object.__setattr__(self, "flops", 0.5 * flops if self.real else flops)
        # Compile (or fetch the cached) stage program at plan time - the
        # FFTW split: all factorization, twiddle-table, and butterfly-matrix
        # work happens here, never inside execute().  Other backends own
        # their tables, so only the internal engine lowers a program.
        if self.program is None and resolve_backend_name(self.backend) == "fftlib":
            from repro.fftlib.executor import (
                get_program,
                get_real_program,
                get_stockham_program,
                stockham_supported,
            )

            if self.real:
                lowered = get_real_program(self.n, native=self.native)
            elif self.inplace and stockham_supported(self.n):
                lowered = get_stockham_program(self.n, native=self.native)
            else:
                lowered = get_program(self.n, native=self.native)
            object.__setattr__(self, "program", lowered)

    # ------------------------------------------------------------------
    @property
    def is_forward(self) -> bool:
        return self.direction is PlanDirection.FORWARD

    @property
    def bins(self) -> int:
        """Number of packed half-complex bins (``n//2 + 1``; real plans)."""

        return self.n // 2 + 1

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Apply the plan to the last axis of ``x`` and return a new array."""

        if self.real:
            return self._execute_real(x)
        x = np.asarray(x, dtype=np.complex128)
        if x.shape[-1] != self.n:
            raise ValueError(
                f"plan of size {self.n} applied to array with last axis {x.shape[-1]}"
            )
        # Explicit fftlib plans run their compiled program directly (the
        # tight loop in repro.fftlib.executor); plans with backend=None
        # resolve the process default at call time via the registry, which
        # routes to the same executor when that default is "fftlib".
        program = self.program
        if program is not None and self.backend is not None:
            if self.is_forward:
                return program.execute(x)
            return np.conj(program.execute(np.conj(x))) / self.n
        kernel = get_backend(self.backend)
        if self.is_forward:
            return kernel.fft(x, axis=-1)
        return kernel.ifft(x, axis=-1)

    def _execute_real(self, x: np.ndarray) -> np.ndarray:
        """Real-mode execution: float input -> packed spectrum (or back)."""

        program = self.program if self.backend is not None else None
        if self.is_forward:
            x = np.asarray(x, dtype=np.float64)
            if x.shape[-1] != self.n:
                raise ValueError(
                    f"real plan of size {self.n} applied to array with last axis {x.shape[-1]}"
                )
            if program is not None:
                return program.execute(x)
            return get_backend(self.backend).rfft(x, axis=-1)
        spectrum = np.asarray(x, dtype=np.complex128)
        if spectrum.shape[-1] != self.bins:
            raise ValueError(
                f"real plan of size {self.n} expects {self.bins} packed bins, "
                f"got last axis {spectrum.shape[-1]}"
            )
        if program is not None:
            return program.execute_inverse(spectrum)
        return get_backend(self.backend).irfft(spectrum, n=self.n, axis=-1)

    def execute_inplace(self, buffer: np.ndarray) -> np.ndarray:
        """Apply the plan to ``buffer``'s last axis, overwriting ``buffer``.

        ``buffer`` must be a writeable C-contiguous complex128 array whose
        last axis has length ``n`` (real plans change the output length and
        therefore have no in-place form).  Plans lowered to the Stockham
        autosort program run with a single half-size scratch; any other
        lowering (unsupported sizes, foreign backends) preserves the overwrite
        *semantics* by transforming out of place and copying back, so the
        caller can rely on the buffer holding the result either way.
        """

        if self.real:
            raise ValueError(
                "real plans map n samples to n//2 + 1 bins and cannot run in place"
            )
        buffer = np.asarray(buffer)
        if buffer.ndim == 0 or buffer.shape[-1] != self.n:
            raise ValueError(
                f"plan of size {self.n} applied to buffer with last axis "
                f"{buffer.shape[-1] if buffer.ndim else 0}"
            )
        if (
            buffer.dtype != np.complex128
            or not buffer.flags.c_contiguous
            or not buffer.flags.writeable
        ):
            raise ValueError(
                "execute_inplace requires a writeable C-contiguous complex128 "
                "buffer (the transform overwrites it)"
            )
        program = self.program
        if program is not None and hasattr(program, "execute_inplace"):
            if self.is_forward:
                return program.execute_inplace(buffer)
            return program.execute_inverse_inplace(buffer)
        result = self.execute(buffer)
        np.copyto(buffer, result)
        return buffer

    def execute_batch(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Apply the plan along an arbitrary axis (batched over the rest).

        All sub-transforms run as one strided batched call; the executor (or
        backend kernel) copies to contiguous storage only when the moved
        view actually requires it.
        """

        x = np.asarray(x)
        if not (self.real and self.is_forward):
            # Forward real plans keep their float64 input; everything else
            # runs in complex128.
            x = np.asarray(x, dtype=np.complex128)
        moved = np.moveaxis(x, axis, -1)
        return np.moveaxis(self.execute(moved), -1, axis)

    def inverse_plan(self) -> "Plan":
        """Return the plan for the opposite direction."""

        direction = (
            PlanDirection.BACKWARD if self.is_forward else PlanDirection.FORWARD
        )
        return Plan(
            self.n, direction, self.flops, self.backend, self.real,
            self.inplace, self.native, self.fallbacks,
        )

    def describe(self) -> str:
        """Human-readable one-line description (mirrors ``fftw_print_plan``)."""

        factors = "x".join(str(f) for f in factorization.radix_schedule(self.n))
        backend = self.backend or "fftlib"
        kind = "real, " if self.real else ""
        inplace = ", inplace" if self.inplace else ""
        native = ""
        if self.native and self.program is not None:
            # foreign backends run their own compiled kernels: nothing to report
            active, reason = _native_program_state(self.program)
            native = ", native" if active else f", native-fallback({reason})"
        notes = "".join(f", {note}" for note in self.fallbacks)
        return (
            f"Plan(n={self.n}, {kind}dir={self.direction.value}, backend={backend}"
            f"{inplace}{native}{notes}, radices={factors}, ~{self.flops:.0f} flops)"
        )
