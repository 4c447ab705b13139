"""Fused protected programs: one end-to-end ABFT check around the lowering.

The scheme objects in :mod:`repro.core` verify a transform by wrapping it -
they run the two-part decomposition, re-derive checksum operators per call,
and pay several extra full passes over the data even when no fault injector
is live.  The paper's offline check (Algorithm 1, ``c . x = r . X``) needs
only the transform's input and output, so it can sit around *whatever*
program the size lowers to.

:class:`ProtectedStageProgram` freezes, at plan time, everything that check
needs next to the plan's own :class:`~repro.fftlib.executor.StageProgram`
(the same cached object the unprotected and batched paths run, native
stage bodies included):

* the computational weights ``r`` and the input encoding ``c = r A``,
  bit-identical to :class:`~repro.core.constants.SchemeConstants` (same
  encoding family, closed form vs naive);
* the memory-checksum locating pair ``(w1, w2)`` and its plan-time weight
  RMS.

Per call, :meth:`encode` is one ``c . x`` dot and :meth:`execute_tapped`
runs the program and one ``r . X`` dot, so the spectrum is bit-identical to
the unprotected program.  One check covers the interior stages too: an
error ``e`` in element ``k'`` of row ``b`` after the stage of span ``L``
(``count = n / L`` rows) moves ``r . X`` by ``e`` times
``sum_t r[k' + t L] omega_count^(b t)``.  With ``r_j = omega_p^j`` and ``p``
the smallest *odd* prime not dividing ``n`` (``checksum_prime``) that sum
has magnitude ``|1 - omega_p^n| / |1 - omega_p^L omega_count^b| >=
sin(pi / p)`` (0.87 for ``p = 3``), so no stage boundary is blind.

The inverse needs no second program: ``ifft(X)[j] = F(X)[(n - j) mod n] /
n``.  ``execute_tapped(X, backward=True)`` runs the same forward program on
the spectrum ``X`` itself, so the encode ``c . X``, the check ``r . F(X) =
c . X`` and every threshold are the forward's; one finish pass then
reverses and scales the program's output.  On the native lowering the
finish is one C pass (``repro_inverse_finish``) that also sums ``F(X)`` by
residue class mod ``p`` - ``r`` has period ``p``, so ``r . F(X)`` is ``p``
products of those sums - in place, so the inverse allocates nothing beyond
the program's output.  Wherever the program ran its NumPy bodies (below
the native crossover, without the tier, generic bases above 8) the finish
is the NumPy ``r . F(X)`` dot plus a reversed, scaled copy.
Live fault injectors never reach this module - ``FTPlan`` routes them
through the paper-exact scheme path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.fftlib.executor import (
    _NATIVE_MIN_ELEMENTS,
    StageProgram,
    _cached_program,
    get_program,
)
from repro.telemetry import trace as _trace

__all__ = [
    "ProtectedStageProgram",
    "get_protected_program",
]


@dataclass(frozen=True, eq=False)
class ProtectedStageProgram:
    """A frozen protected execution recipe for one size.

    Immutable after construction and safe to share across threads and the
    program LRU.

    Attributes
    ----------
    n:
        Transform length.
    program:
        The plan's own lowering (:func:`~repro.fftlib.executor.get_program`,
        shared with the unprotected and batched paths via the program
        cache).
    c, r:
        The end-to-end pair: input encoding ``c = r A`` and computational
        weights ``r``, built with the same encoding family (closed form vs
        naive) as :class:`SchemeConstants`, so ``c . x`` is bit-identical
        to the legacy scheme's input checksum.
    p:
        The period of ``r`` (``r_j = omega_p^(j mod p)``): the number of
        residue-class sums the native inverse finish returns.
    optimized / memory_ft:
        The plan-configuration axes the operators were built for (part of
        the program-cache key).
    w1, w2:
        Memory-checksum locating pair (Section 4.1 modified weights when
        ``optimized``, classic otherwise); ``None`` when ``memory_ft`` is
        off.
    w1_rms:
        Plan-time weight RMS of ``w1`` for the memory threshold.
    reuse_input_checksum:
        True when ``w1`` *is* the end-to-end encoding ``c`` (the modified
        weights of the optimized scheme), so ``s1`` equals the input
        checksum bit-for-bit and need not be recomputed.
    """

    n: int
    program: StageProgram
    c: np.ndarray
    r: np.ndarray
    p: int
    optimized: bool
    memory_ft: bool
    w1: "np.ndarray | None"
    w2: "np.ndarray | None"
    w1_rms: float
    reuse_input_checksum: bool

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, n: int, *, optimized: bool, memory_ft: bool) -> "ProtectedStageProgram":
        """Lower size ``n`` plus its verification operators, once.

        The core-layer operator constructors are imported lazily (the same
        direction :meth:`SchemeConstants.with_inplace` already crosses) so
        ``fftlib`` keeps no hard dependency on ``repro.core``.
        """

        from repro.core.checksums import (
            checksum_prime,
            computational_weights,
            input_checksum_weights,
            input_checksum_weights_naive,
            memory_weights_classic,
            memory_weights_modified,
        )
        from repro.core.constants import weight_rms

        program = get_program(n)
        c = input_checksum_weights(n) if optimized else input_checksum_weights_naive(n)
        w1 = w2 = None
        w1_rms = 0.0
        if memory_ft:
            if optimized:
                w1, w2 = memory_weights_modified(n, base=c)
            else:
                w1, w2 = memory_weights_classic(n)
            w1_rms = weight_rms(w1)
        if _trace.active:
            _trace.emit(
                "protected-compile",
                n=int(n),
                optimized=bool(optimized),
                memory_ft=bool(memory_ft),
                native=program.native is not None,
            )
        return cls(
            n=int(n),
            program=program,
            c=c,
            r=computational_weights(n),
            p=checksum_prime(n),
            optimized=bool(optimized),
            memory_ft=bool(memory_ft),
            w1=w1,
            w2=w2,
            w1_rms=w1_rms,
            reuse_input_checksum=w1 is c,
        )

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> complex:
        """The input checksum ``c . x`` (the reference side of the check).

        Same ``np.dot`` on the same operands as
        :func:`~repro.core.checksums.weighted_sum`, so it is bit-identical
        to the legacy scheme's; overflow from a corrupted input is a
        mismatch, not a warning.
        """

        with np.errstate(over="ignore", invalid="ignore"):
            return complex(np.dot(self.c, x))

    def execute_tapped(self, x: np.ndarray, backward: bool = False) -> Tuple[np.ndarray, complex]:
        """Forward DFT of one vector plus its output checksum ``r . X``.

        With ``backward`` the output is the inverse DFT of ``x`` instead,
        ``F(x)`` reversed and scaled by ``1/n``, and the checksum is still
        the forward program's ``r . F(x)``: the one :meth:`encode` predicts.
        """

        out = self.program.execute(x)
        if not backward:
            with np.errstate(over="ignore", invalid="ignore"):
                return out, complex(np.dot(self.r, out))
        if self.n >= _NATIVE_MIN_ELEMENTS and self.program.native is not None:
            # The program ran in C: finish there too, in place, in one pass.
            # reprolint: alloc-ok - p residue-class sums, not an n-vector
            sums = np.empty(self.p, dtype=np.complex128)
            self.program.native.finish_inverse(out, sums)
            with np.errstate(over="ignore", invalid="ignore"):
                return out, complex(np.dot(self.r[: self.p], sums))
        with np.errstate(over="ignore", invalid="ignore"):
            rx = complex(np.dot(self.r, out))
        # reprolint: alloc-ok - the inverse's output: F(x) reversed, then
        # scaled in place through its float64 view, as the C finish scales
        inverse = np.concatenate((out[:1], out[:0:-1]))
        parts = inverse.view(np.float64)
        parts *= 1.0 / self.n
        return inverse, rx

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line listing: the wrapped program plus the check."""

        return (
            f"ProtectedStageProgram(n={self.n}, check=end-to-end, "
            f"optimized={self.optimized}, memory_ft={self.memory_ft}, "
            f"inner={self.program.describe()})"
        )


def get_protected_program(n: int, *, optimized: bool, memory_ft: bool) -> ProtectedStageProgram:
    """Fused protected program for ``n``, from the shared program LRU."""

    key = ("protected", int(n), bool(optimized), bool(memory_ft))
    return _cached_program(
        key, lambda: ProtectedStageProgram.build(n, optimized=optimized, memory_ft=memory_ft)
    )
