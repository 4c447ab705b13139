"""Fused protected programs: one end-to-end ABFT check around the lowering.

The scheme objects in :mod:`repro.core` verify a transform by wrapping it -
they run the two-part decomposition, re-derive checksum operators per call,
and pay several extra full passes over the data even when no fault injector
is live.  The paper's offline check (Algorithm 1, ``c . x = r . X``) needs
only the transform's input and output, so it can sit around *whatever*
program the size lowers to.

:class:`ProtectedStageProgram` is that check next to the plan's own
:class:`~repro.fftlib.executor.StageProgram` (the same cached object the
unprotected paths run, native stage bodies included), or next to a foreign
backend's ``fft`` (:class:`BackendProgram`).  It holds no weights of its
own: ``c = r A`` and ``r`` are the plan's
:class:`~repro.core.constants.SchemeConstants` arrays.

Per call, :meth:`~ProtectedStageProgram.encode` is one ``c . x`` product and
:meth:`~ProtectedStageProgram.execute_tapped` runs the program and one
``r . X`` product, for one vector or a tile of rows, so the spectrum is
bit-identical to the unprotected program.  One check covers the interior
stages too: an error ``e`` in element ``k'`` of row ``b`` after the stage of
span ``L`` (``count = n / L`` rows) moves ``r . X`` by ``e`` times
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
the native crossover, without the tier, generic bases above 8, foreign
backends) the finish is the NumPy ``r . F(X)`` product plus a reversed,
scaled copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from repro.fftlib.executor import _NATIVE_MIN_ELEMENTS, get_program
from repro.telemetry import trace as _trace

if TYPE_CHECKING:  # pragma: no cover - fftlib does not import repro.core at runtime
    from repro.core.constants import SchemeConstants

__all__ = [
    "BackendProgram",
    "ProtectedStageProgram",
    "finish_inverse",
]


class BackendProgram:
    """A registered backend's ``fft`` in the place of a lowered program.

    It has no native tier, so a protected inverse over it finishes in NumPy.
    """

    native = None

    def __init__(self, backend: Any) -> None:
        self.backend = backend

    def execute(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Forward DFT along the last axis, copied into ``out`` when given."""

        y = self.backend.fft(x, axis=-1)
        if out is None:
            return y
        out[...] = y
        return out


@dataclass(frozen=True, eq=False)
class ProtectedStageProgram:
    """The end-to-end check around one size's program.

    Immutable after construction and safe to share across threads.

    Attributes
    ----------
    n:
        Transform length.
    program:
        The plan's own lowering (:func:`~repro.fftlib.executor.get_program`,
        shared with the unprotected paths via the program cache) or a
        :class:`BackendProgram`.
    c, r:
        The end-to-end pair: input encoding ``c = r A`` and computational
        weights ``r``, the plan's ``SchemeConstants.c_n`` and ``r_n``
        themselves.
    p:
        The period of ``r`` (``r_j = omega_p^(j mod p)``): the number of
        residue-class sums the native inverse finish returns.
    """

    n: int
    program: Any
    c: np.ndarray
    r: np.ndarray
    p: int

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, constants: "SchemeConstants", program: Any = None) -> "ProtectedStageProgram":
        """The check of ``constants`` around ``program`` (default: the size's lowering).

        ``checksum_prime`` is imported lazily (the direction
        :meth:`SchemeConstants.with_inplace` already crosses) so ``fftlib``
        keeps no hard dependency on ``repro.core``.
        """

        from repro.core.checksums import checksum_prime

        n = constants.n
        if program is None:
            program = get_program(n)
        if _trace.active:
            _trace.emit("protected-compile", n=int(n), native=program.native is not None)
        return cls(n=n, program=program, c=constants.c_n, r=constants.r_n, p=checksum_prime(n))

    # ------------------------------------------------------------------
    def encode(self, x: np.ndarray) -> Any:
        """The input checksum ``c . x`` (the reference side of the check).

        One value for one vector, one per row for a ``(rows, n)`` tile.
        It runs under the caller's floating-point error state; the kernel
        of :class:`~repro.core.ftplan.FTPlan` ignores overflow for a whole
        call, since overflow from a corrupted input is a mismatch.
        """

        return np.dot(x, self.c)

    def execute_tapped(
        self, x: np.ndarray, backward: bool = False, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Any]:
        """Forward DFT of ``x`` plus its output checksum ``r . X``.

        ``x`` is one vector or a ``(rows, n)`` tile, whose checksum is one
        value per row; ``out``, when given, receives the forward result.
        With ``backward`` the output is the inverse DFT of ``x`` instead,
        ``F(x)`` reversed and scaled by ``1/n``, and the checksum is still
        the forward program's ``r . F(x)``: the one :meth:`encode` predicts.
        Like :meth:`encode`, it runs under the caller's error state.
        """

        y = self.program.execute(x, out=None if backward else out)
        if not backward:
            return y, np.dot(y, self.r)
        return finish_inverse(self.program, y, self.r, self.p)


def finish_inverse(
    program: Any, y: np.ndarray, r: Optional[np.ndarray] = None, p: int = 1
) -> Tuple[np.ndarray, Any]:
    """Turn ``program``'s output ``y = F(x)`` into the inverse DFT of ``x``.

    The inverse is ``y`` reversed and scaled by ``1/n``; with ``r`` (of
    period ``p``) the second value is the check's ``r . F(x)``, else
    ``None``.  Where ``program`` ran in C the finish is one in-place C pass
    a row, else a reversed, scaled NumPy copy.
    """

    n = y.shape[-1]
    if y.size >= _NATIVE_MIN_ELEMENTS and program.native is not None:
        # The program ran in C: finish there too, in place, one pass a row.
        # reprolint: alloc-ok - p residue-class sums a row, not an n-vector
        sums = np.empty(y.shape[:-1] + (p,), dtype=np.complex128)
        for row, row_sums in zip(y.reshape(-1, n), sums.reshape(-1, p)):
            program.native.finish_inverse(row, row_sums)
        return y, None if r is None else np.dot(sums, r[:p])
    rx = None if r is None else np.dot(y, r)
    # reprolint: alloc-ok - the inverse's output: F(x) reversed, then
    # scaled in place through its float64 view, as the C finish scales
    inverse = np.concatenate((y[..., :1], y[..., :0:-1]), axis=-1)
    parts = inverse.view(np.float64)
    parts *= 1.0 / n
    return inverse, rx
