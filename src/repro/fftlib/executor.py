"""Compiled iterative stage programs: the engine's fast execution path.

A recursive Cooley-Tukey engine re-derives the radix schedule, re-looks-up
twiddle tables, and pays two contiguity copies per recursion level on *every*
call.  This module moves all of that work to plan time, FFTW-style:

* :func:`compile_program` lowers a size ``n`` once into a
  :class:`StageProgram` - an explicit, immutable list of iterative
  (Stockham-flavoured) combine :class:`Stage` descriptors sitting on top of a
  base kernel (codelet, direct DFT matrix, or Bluestein), with every
  per-stage twiddle table and butterfly matrix fetched from the shared
  :class:`~repro.fftlib.twiddle.TwiddleCache` exactly once;
* :meth:`StageProgram.execute` runs the program as a tight loop over two
  ping-pong work buffers - no recursion, no repeated factorization, no
  per-level ``ascontiguousarray`` copies - fully batched over arbitrary
  leading axes.

Algorithm
---------
The program maintains the decimation-in-time invariant as a ``(batch, q, p)``
array ``X`` with ``q * p == n``: row ``b`` holds the length-``p`` DFT of the
stride-``q`` input subsequence starting at offset ``b``.  The base kernel
establishes the invariant for ``p = base``; each combine stage of radix ``r``
then merges groups of ``r`` rows,

.. math::

    X'[b', t p + u] = \\sum_{s=0}^{r-1} \\omega_r^{t s}\\,
        \\omega_{r p}^{u s}\\, X[s q' + b', u],

which is one elementwise twiddle multiplication (the precomputed ``(r, p)``
table) followed by one rank-``r`` DFT contraction.  The contraction is
dispatched per stage: hand-written codelets exist for the small radices, but
a single BLAS ``matmul`` against the ``r x r`` DFT matrix - writing straight
into a strided view of the other ping-pong buffer so the ``t``-major output
order needs no transpose pass - measures faster for every radix the planner
emits, so that is the default kernel.  After the last stage ``q == 1`` and
the buffer holds the full transform in natural order.

Programs are cached per size in a thread-safe, size-bounded LRU (the same
shape as the plan cache), so ``Plan`` construction and the
``fftlib`` backend share one compiled program per size.

The cached getters lower with ``native=True`` by default: a call of at least
``_NATIVE_MIN_ELEMENTS`` elements runs the generated-C stage bodies of
:mod:`repro.fftlib.native` in one foreign call; smaller calls, and sizes the
tier cannot serve or serves slower, run the NumPy bodies described above.
The C lowering is resolved on first use, so a process whose calls stay below
the crossover never loads (or, on a cold kernel cache, compiles) the library.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.fftlib import factorization
from repro.fftlib.codelets import apply_codelet, has_codelet
from repro.fftlib.twiddle import get_global_cache
from repro.telemetry import trace as _trace

__all__ = [
    "Stage",
    "StageProgram",
    "RealStageProgram",
    "StockhamStageProgram",
    "compile_program",
    "get_program",
    "get_real_program",
    "get_stockham_program",
    "stockham_supported",
    "program_cache_info",
    "clear_program_cache",
    "fft",
    "ifft",
    "fft_along_axis",
    "ifft_along_axis",
    "rfft",
    "irfft",
]

# Prime base sizes up to this threshold use a cached DFT-matrix product;
# larger primes go through Bluestein.
_DIRECT_PRIME_THRESHOLD = 61

# Radix preference: large radices first so programs stay short (the BLAS
# combine amortizes its call overhead over r butterfly points).
_RADIX_PREFERENCE = (16, 8, 6, 5, 4, 3, 2)

#: A native-lowered program dispatches a call to its generated-C kernels only
#: when ``rows * n`` reaches this many elements.  Below it the foreign call's
#: fixed cost loses to the NumPy stage bodies: measured on a 2-vCPU x86 host
#: (numpy 2.4, OpenBLAS), power-of-two programs ran at 0.2-0.9x native below
#: 1024 elements, 0.9-1.4x at 1024 and 1.0-2.0x from 2048 up.
_NATIVE_MIN_ELEMENTS = 2048

#: Serialises the first resolution of a program's native lowering.
_native_lock = threading.Lock()


def _choose_radix(n: int) -> int:
    for radix in _RADIX_PREFERENCE:
        if n % radix == 0:
            return radix
    return factorization.smallest_prime_factor(n)


def lower(n: int) -> Tuple[int, Tuple[int, ...]]:
    """Split ``n`` into ``(base, radices)`` with ``base * prod(radices) == n``.

    ``base`` is the bottom-level transform length (a codelet size or a
    prime); ``radices`` lists the combine radices outermost first (large
    radices before small ones).  This is the schedule the planner lowers
    into a :class:`StageProgram`.
    """

    radices = []
    m = int(n)
    while not has_codelet(m) and not factorization.is_prime(m):
        r = _choose_radix(m)
        radices.append(r)
        m //= r
    # A tiny base under large combines leaves the bottom stage as a
    # memory-bound (batch, q, 2..8) matmul that dominates the whole program
    # (2^13 ran 4x slower than 2^12 because of it); folding the innermost
    # combine into the base instead yields one well-shaped direct DFT of a
    # moderate size.
    while radices and m < 16 and m * radices[-1] <= 64:
        m *= radices.pop()
    return m, tuple(radices)


@dataclass(frozen=True)
class Stage:
    """One iterative combine stage of a compiled program.

    Attributes
    ----------
    radix:
        Number of length-``span`` transforms merged per output transform.
    span:
        Length ``p`` of the transforms already completed when this stage
        runs; the stage produces transforms of length ``radix * span``.
    count:
        Number of output transforms ``q' = n / (radix * span)`` remaining
        after this stage (1 for the final stage).
    twiddle:
        The ``(radix, span)`` table ``omega_{radix*span}^{s u}`` applied
        before the combine (one :class:`TwiddleCache` hit at compile time).
    matrix:
        The ``radix x radix`` DFT matrix of the combine butterfly (symmetric,
        so it is used untransposed in the matmul).
    """

    radix: int
    span: int
    count: int
    twiddle: np.ndarray
    matrix: np.ndarray


class StageProgram:
    """A fully lowered, reusable execution recipe for one transform size.

    Immutable after construction and safe to share across threads: the only
    mutable state used during execution is a pair of thread-local ping-pong
    buffers.
    """

    __slots__ = (
        "n",
        "base",
        "base_kind",
        "base_matrix",
        "stages",
        "_native",
        "_native_reason",
        "_native_pending",
    )

    def __init__(self, n: int, *, native: bool = False) -> None:
        self.n = int(n)
        if self.n <= 0:
            raise ValueError("transform length must be positive")
        base, radices = lower(self.n)
        self.base = base
        if base == self.n and has_codelet(base):
            self.base_kind = "codelet"
            self.base_matrix = None
        elif factorization.is_prime(base) and base > _DIRECT_PRIME_THRESHOLD:
            self.base_kind = "bluestein"
            self.base_matrix = None
        else:
            # Codelet-sized or small-prime base below combine stages: a
            # single batched product with the cached DFT matrix beats the
            # codelet call chains (BLAS) and handles both cases uniformly.
            self.base_kind = "direct"
            self.base_matrix = get_global_cache().dft_matrix(base)
        stages = []
        span = base
        for radix in reversed(radices):  # combine bottom-up
            stages.append(
                Stage(
                    radix=radix,
                    span=span,
                    count=self.n // (radix * span),
                    twiddle=get_global_cache().stage(radix, span),
                    matrix=get_global_cache().dft_matrix(radix),
                )
            )
            span *= radix
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self._native = None
        self._native_reason = None
        self._native_pending = bool(native)

    @property
    def native(self):
        """The generated-C lowering, or ``None`` (see ``native_fallback_reason``).

        Requesting it never fails, it degrades.  It is built on first use -
        the first call of at least ``_NATIVE_MIN_ELEMENTS`` elements, or a
        caller inspecting it - so the kernel library loads only then.
        """

        if self._native_pending:
            self._resolve_native()
        return self._native

    @property
    def native_fallback_reason(self) -> Optional[str]:
        """Why a requested native lowering degraded to the NumPy bodies."""

        if self._native_pending:
            self._resolve_native()
        return self._native_reason

    def _resolve_native(self) -> None:
        from repro.fftlib.native import build_native_program

        with _native_lock:
            if self._native_pending:
                self._native, self._native_reason = build_native_program(self)
                self._native_pending = False

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Forward DFT along the last axis of ``x`` (batched, out-of-place).

        ``out``, a C-contiguous complex128 array of ``x``'s shape, receives
        the result when given and is returned (a batch written tile by tile
        needs no assembly copy).
        """

        x = np.asarray(x, dtype=np.complex128)
        if x.ndim == 0:
            raise ValueError("input must have at least one dimension")
        n = self.n
        if x.shape[-1] != n:
            raise ValueError(
                f"program of size {n} applied to array with last axis {x.shape[-1]}"
            )
        shape = x.shape
        batch = x.size // n
        xs = x.reshape(batch, n)
        if not xs.flags.c_contiguous:
            # reprolint: alloc-ok - normalisation fallback, never taken for
            # conforming (contiguous) callers
            xs = np.ascontiguousarray(xs)

        native = self.native if batch * n >= _NATIVE_MIN_ELEMENTS else None
        if native is not None:
            # One foreign call per transform: generated C stage bodies, GIL
            # released for the call's duration (ctypes), result written into
            # the out-of-place contract's result array.
            if out is None:
                # reprolint: alloc-ok - the result array itself (out-of-place
                # contract, same as the pure-NumPy final stage below)
                result = np.empty((batch, n), dtype=np.complex128)
            else:
                result = out.reshape(batch, n)
            if self.stages:
                work_a, work_b = _work_buffers(batch * n)
                native.execute(xs, result, work_a, work_b)
            else:
                native.execute(xs, result, None, None)
            return result.reshape(shape) if out is None else out

        if not self.stages:
            # Whole transform handled by the base kernel.
            if self.base_kind == "codelet":
                result = apply_codelet(xs, n)
            elif self.base_kind == "bluestein":
                from repro.fftlib.bluestein import bluestein_fft

                result = bluestein_fft(xs)
            else:
                result = np.matmul(xs, self.base_matrix)
            if out is None:
                return result.reshape(shape)
            out.reshape(batch, n)[...] = result
            return out

        work_a, work_b = _work_buffers(batch * n)

        # --- base kernel: length-`base` DFTs of all stride-q subsequences --
        base = self.base
        q = n // base
        gathered = xs.reshape(batch, base, q).transpose(0, 2, 1)  # view
        if self.base_kind == "bluestein":
            from repro.fftlib.bluestein import bluestein_fft

            # reprolint: alloc-ok - the Bluestein base kernel allocates its
            # own output; large-prime sizes never hit the matmul fast path
            current = np.ascontiguousarray(bluestein_fft(gathered))
        else:
            current = np.matmul(
                gathered, self.base_matrix, out=work_a[: batch * n].reshape(batch, q, base)
            )

        # --- combine stages: tight twiddle-multiply + rank-r DFT loop ------
        last = len(self.stages) - 1
        for index, stage in enumerate(self.stages):
            r, p, count = stage.radix, stage.span, stage.count
            grouped = work_b[: batch * n].reshape(batch, r, count, p)
            np.multiply(
                current.reshape(batch, r, count, p),
                stage.twiddle[:, None, :],
                out=grouped,
            )
            if index == last and out is not None:
                target = out.reshape(batch, count, r * p)
            elif index == last:
                # reprolint: alloc-ok - the result array itself (out-of-place
                # contract); execute_into is the allocation-free variant
                target = np.empty((batch, count, r * p), dtype=np.complex128)
            else:
                target = work_a[: batch * n].reshape(batch, count, r * p)
            # t-major output without a transpose pass: matmul writes into a
            # strided view whose last axis is the butterfly output index.
            np.matmul(
                grouped.transpose(0, 2, 3, 1),
                stage.matrix,
                out=target.reshape(batch, count, r, p).transpose(0, 1, 3, 2),
            )
            current = target
        return current.reshape(shape) if out is None else out

    # ------------------------------------------------------------------
    def profile(self, x: np.ndarray):
        """One *timed* execution, broken into base-kernel and combine phases.

        Returns a :class:`repro.telemetry.profile.ProfileResult` whose
        entries mirror the stage loop of :meth:`execute` (same kernels, same
        buffers, a ``perf_counter`` pair around each phase).  Diagnostic
        path: unlike the hot execute methods it may allocate and format
        freely, which is why it lives outside the ``execute*`` naming that
        the hot-path contract (and reprolint) covers.
        """

        import time

        from repro.telemetry.profile import ProfileEntry, ProfileResult

        x = np.asarray(x, dtype=np.complex128)
        if x.ndim == 0:
            raise ValueError("input must have at least one dimension")
        n = self.n
        if x.shape[-1] != n:
            raise ValueError(
                f"program of size {n} applied to array with last axis {x.shape[-1]}"
            )
        shape = x.shape
        batch = x.size // n
        xs = np.ascontiguousarray(x.reshape(batch, n))
        entries = []
        perf = time.perf_counter

        def _result(current, total):
            return ProfileResult(
                n=n,
                description=self.describe(),
                entries=tuple(entries),
                total_seconds=total,
                output=current.reshape(shape),
            )

        native = self.native if batch * n >= _NATIVE_MIN_ELEMENTS else None
        if native is not None:
            out = np.empty((batch, n), dtype=np.complex128)
            start = perf()
            if self.stages:
                work_a, work_b = _work_buffers(batch * n)
                native.execute(xs, out, work_a, work_b)
            else:
                native.execute(xs, out, None, None)
            elapsed = perf() - start
            entries.append(
                ProfileEntry("native kernel (one foreign call)", elapsed)
            )
            return _result(out, elapsed)

        if not self.stages:
            start = perf()
            if self.base_kind == "codelet":
                out = apply_codelet(xs, n)
            elif self.base_kind == "bluestein":
                from repro.fftlib.bluestein import bluestein_fft

                out = bluestein_fft(xs)
            else:
                out = np.matmul(xs, self.base_matrix)
            elapsed = perf() - start
            entries.append(ProfileEntry(f"base {self.base_kind}({self.base})", elapsed))
            return _result(out, elapsed)

        work_a, work_b = _work_buffers(batch * n)
        base = self.base
        q = n // base
        gathered = xs.reshape(batch, base, q).transpose(0, 2, 1)
        start = perf()
        if self.base_kind == "bluestein":
            from repro.fftlib.bluestein import bluestein_fft

            current = np.ascontiguousarray(bluestein_fft(gathered))
        else:
            current = np.matmul(
                gathered, self.base_matrix, out=work_a[: batch * n].reshape(batch, q, base)
            )
        entries.append(ProfileEntry(f"base {self.base_kind}({self.base})", perf() - start))

        last = len(self.stages) - 1
        total = entries[0].seconds
        for index, stage in enumerate(self.stages):
            r, p, count = stage.radix, stage.span, stage.count
            start = perf()
            grouped = work_b[: batch * n].reshape(batch, r, count, p)
            np.multiply(
                current.reshape(batch, r, count, p),
                stage.twiddle[:, None, :],
                out=grouped,
            )
            if index == last:
                target = np.empty((batch, count, r * p), dtype=np.complex128)
            else:
                target = work_a[: batch * n].reshape(batch, count, r * p)
            np.matmul(
                grouped.transpose(0, 2, 3, 1),
                stage.matrix,
                out=target.reshape(batch, count, r, p).transpose(0, 1, 3, 2),
            )
            elapsed = perf() - start
            entries.append(
                ProfileEntry(f"combine radix {r} (span {p} -> {r * p})", elapsed)
            )
            total += elapsed
            current = target
        return _result(current, total)

    # ------------------------------------------------------------------
    def execute_into(self, data: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Run the program between two caller-provided equal-size buffers.

        ``data`` holds the input and is clobbered (it becomes the twiddle
        staging area); the result lands in ``work``, which is returned.
        Both must be ``(batch, n)`` complex128 arrays whose *last* axis is
        unit-stride (leading strides are free - the in-place Stockham path
        passes row-strided halves of the caller's buffer) and they must not
        overlap.  Nothing is allocated: every reshape only splits an axis
        (always a view) and every kernel writes through a strided view, so
        this is the allocation-free core that
        :class:`StockhamStageProgram` builds its half-transforms on.

        Bluestein bases are not supported (their convolution needs its own
        scratch); callers gate on :func:`stockham_supported`.
        """

        if self.base_kind == "bluestein":
            raise ValueError("execute_into does not support Bluestein base kernels")
        n = self.n
        if data.ndim != 2 or data.shape != work.shape or data.shape[-1] != n:
            raise ValueError(
                f"execute_into expects matching (batch, {n}) buffers, got "
                f"{data.shape} and {work.shape}"
            )
        batch = data.shape[0]

        native = self.native if batch * n >= _NATIVE_MIN_ELEMENTS else None
        if (
            native is not None
            and data.strides[-1] == data.itemsize
            and work.strides[-1] == work.itemsize
        ):
            # Same two-buffer discipline in one GIL-free call (the C driver
            # stages the first combine through `data` when the stage count
            # is odd so the result still lands in `work`).
            return native.execute_into(data, work)

        if not self.stages:
            if self.base_kind == "codelet":
                apply_codelet(data, n, out=work)
            else:
                np.matmul(data, self.base_matrix, out=work)
            return work

        # --- base kernel: stride-q gather view of `data`, result in `work`
        base = self.base
        q = n // base
        gathered = data.reshape(batch, base, q).transpose(0, 2, 1)  # view
        np.matmul(gathered, self.base_matrix, out=work.reshape(batch, q, base))

        # --- combine stages: twiddle stage into `data` (dead input), rank-r
        # DFT back into `work`; the result therefore stays in `work` for
        # every stage, including the last.
        for stage in self.stages:
            r, p, count = stage.radix, stage.span, stage.count
            grouped = data.reshape(batch, r, count, p)
            np.multiply(
                work.reshape(batch, r, count, p),
                stage.twiddle[:, None, :],
                out=grouped,
            )
            np.matmul(
                grouped.transpose(0, 2, 3, 1),
                stage.matrix,
                out=work.reshape(batch, count, r, p).transpose(0, 1, 3, 2),
            )
        return work

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line program listing (base kernel plus combine radices).

        The native lowering is listed once it has been resolved (by a call
        of at least ``_NATIVE_MIN_ELEMENTS`` elements or a read of
        :attr:`native`): listing a program never loads the kernel library.
        """

        combines = "*".join(str(s.radix) for s in self.stages) or "-"
        if self._native_pending:
            kernels = ", native-unresolved"
        elif self._native is not None:
            kernels = ", native"
        elif self._native_reason is not None:
            kernels = ", native-fallback"
        else:
            kernels = ""
        return (
            f"StageProgram(n={self.n}, base={self.base}[{self.base_kind}], "
            f"combine={combines}{kernels})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def compile_program(n: int) -> StageProgram:
    """Lower size ``n`` into a fresh (uncached) :class:`StageProgram`.

    Most callers want :func:`get_program`, which memoizes compilation in a
    thread-safe LRU; this entry point exists for tests and planner
    experiments that need an independent program object.
    """

    return StageProgram(n)


class RealStageProgram:
    """A compiled real-to-complex transform of one size (conjugate-even packing).

    For even ``n`` the ``n`` real samples are viewed as ``n/2`` complex
    samples, transformed with the cached half-length complex
    :class:`StageProgram`, and disentangled with one vectorized pass:

    .. math::

        X[k] = A_k\\,Z_{ext}[k] + B_k\\,\\overline{Z_{ext}[h-k]},
        \\qquad
        A_k = \\tfrac{1}{2}(1 - i\\,\\omega_n^k),\\;
        B_k = \\tfrac{1}{2}(1 + i\\,\\omega_n^k),

    with ``h = n/2`` and ``Z_ext[h] = Z[0]``.  The inverse uses the conjugate
    coefficients (``Z[k] = conj(A_k) X[k] + conj(B_k) conj(X[h-k])``) followed
    by the half-length inverse, so both directions run at half the complex
    flop/byte cost.  Odd lengths have no packing trick; they run the
    full-length complex program and keep the ``n//2 + 1`` non-redundant bins.

    Like :class:`StageProgram`, instances are immutable after construction,
    batched over arbitrary leading axes, and memoized in the same LRU
    (:func:`get_real_program`).
    """

    __slots__ = ("n", "bins", "half", "program", "_a", "_b", "_ia", "_ib", "_native")

    def __init__(self, n: int, *, native: bool = False) -> None:
        self.n = int(n)
        if self.n <= 0:
            raise ValueError("transform length must be positive")
        self.bins = self.n // 2 + 1
        self._native = bool(native)
        if self.n % 2 == 0 and self.n > 1:
            self.half = self.n // 2
            self.program = get_program(self.half, native=self._native)
            w = np.exp(-2j * np.pi * np.arange(self.bins) / self.n)
            self._a = 0.5 * (1.0 - 1j * w)
            self._b = 0.5 * (1.0 + 1j * w)
            # The inverse entangle uses the conjugate coefficients on every
            # call; precompute them once so the hot paths never conjugate a
            # table per transform.
            self._ia = np.conj(self._a)
            self._ib = np.conj(self._b)
        else:
            self.half = 0
            self.program = get_program(self.n, native=self._native) if self.n > 1 else None
            self._a = self._b = self._ia = self._ib = None

    @property
    def stockham(self) -> Optional["StockhamStageProgram"]:
        """The in-place half-length lowering, or ``None`` when unsupported.

        Fetched lazily from the shared program LRU (it is only needed by
        the overwrite execution mode): the packed view aliases the caller's
        float buffer, so an overwrite-mode rfft destroys its input and
        needs no ping-pong buffers at all.
        """

        if self.half and stockham_supported(self.half):
            return get_stockham_program(self.half, native=self._native)
        return None

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> np.ndarray:
        """Packed forward transform along the last axis of a real array."""

        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 0:
            raise ValueError("input must have at least one dimension")
        if x.shape[-1] != self.n:
            raise ValueError(
                f"real program of size {self.n} applied to array with last axis {x.shape[-1]}"
            )
        if self.n == 1:
            return x.astype(np.complex128)  # reprolint: alloc-ok - trivial n=1 path
        if self.half == 0:
            # Odd lengths fall back to the full-length complex transform;
            # the packed even-length pipeline below is the real fast path.
            # reprolint: alloc-ok - cold odd-length fallback (widen + slice copy)
            full = self.program.execute(x.astype(np.complex128))
            return np.ascontiguousarray(full[..., : self.bins])  # reprolint: alloc-ok
        return self.disentangle(self.transform_half(self.pack(x)))

    # ------------------------------------------------------------------
    # the three even-length pipeline steps, exposed separately so callers
    # (the ABFT fast path) can verify the half-length sub-transform's
    # checksum *between* them - interior online verification instead of
    # only end-to-end.
    # ------------------------------------------------------------------
    def pack(self, x: np.ndarray) -> np.ndarray:
        """View ``n`` real samples as the ``n/2`` packed complex sequence.

        Adjacent (even, odd) sample pairs ARE the complex128 memory layout,
        so the packing ``z[j] = x[2j] + i x[2j+1]`` is a zero-copy view
        (a copy happens only for non-contiguous input).  Even lengths only.
        """

        if self.half == 0:
            raise ValueError("packing requires an even transform length > 1")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.n:
            raise ValueError(
                f"real program of size {self.n} applied to array with last axis {x.shape[-1]}"
            )
        if x.strides[-1] != x.itemsize:
            x = np.ascontiguousarray(x)
        return x.view(np.complex128)

    def transform_half(self, z: np.ndarray) -> np.ndarray:
        """The cached half-length complex transform of the packed sequence."""

        return self.program.execute(z)

    @property
    def supports_overwrite(self) -> bool:
        """Whether :meth:`execute_overwrite` can actually run in place."""

        return self.stockham is not None

    def execute_overwrite(self, x: np.ndarray) -> np.ndarray:
        """Packed forward transform that may destroy its input buffer.

        When the half-length Stockham lowering exists and ``x`` is a
        contiguous writeable float64 buffer, the packed view is transformed
        in place (the caller's samples are gone afterwards - the paper's
        Section 5 in-place discipline) and only the ``n//2 + 1``-bin output
        is allocated.  Otherwise this silently degrades to the ordinary
        out-of-place :meth:`execute`.
        """

        if (
            self.stockham is not None
            and isinstance(x, np.ndarray)
            and x.dtype == np.float64
            and x.flags.c_contiguous
            and x.flags.writeable
            and x.ndim > 0
            and x.shape[-1] == self.n
        ):
            z = x.view(np.complex128)  # zero-copy packed view of the buffer
            self.stockham.execute_inplace(z)
            return self.disentangle(z)
        return self.execute(x)

    def disentangle(self, spectrum: np.ndarray) -> np.ndarray:
        """Packed ``n//2 + 1``-bin spectrum from the half-length transform.

        Disentangles on reversed-slice *views* (no index-array gathers):
        interior bins pair ``Z[k]`` with ``conj(Z[h-k])``; bins 0 and ``h``
        both pair ``Z[0]`` with itself.
        """

        h = self.half
        out = np.empty(spectrum.shape[:-1] + (self.bins,), dtype=np.complex128)
        interior = out[..., 1:h]
        np.multiply(spectrum[..., 1:h], self._a[1:h], out=interior)
        interior += self._b[1:h] * np.conj(spectrum[..., h - 1 : 0 : -1])
        z0 = spectrum[..., 0]
        out[..., 0] = self._a[0] * z0 + self._b[0] * np.conj(z0)
        out[..., h] = self._a[h] * z0 + self._b[h] * np.conj(z0)
        return out

    # ------------------------------------------------------------------
    def execute_inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Real inverse transform of a packed ``n//2 + 1``-bin spectrum."""

        spectrum = np.asarray(spectrum, dtype=np.complex128)
        if spectrum.ndim == 0:
            raise ValueError("input must have at least one dimension")
        if spectrum.shape[-1] != self.bins:
            raise ValueError(
                f"spectrum has {spectrum.shape[-1]} bins, expected {self.bins} for n={self.n}"
            )
        if self.n == 1:
            return np.real(spectrum).astype(np.float64)  # reprolint: alloc-ok - trivial n=1 path
        if self.half == 0:
            # Odd length: rebuild the Hermitian spectrum, run the compiled
            # complex inverse (conjugation identity), strip the imaginary
            # rounding noise.
            negative = np.conj(spectrum[..., -1:0:-1])
            # reprolint: alloc-ok - cold odd-length fallback (full-spectrum rebuild)
            full = np.concatenate([spectrum, negative], axis=-1)
            time_domain = np.conj(self.program.execute(np.conj(full))) / self.n
            return np.real(time_domain)
        h = self.half
        # Z[k] = conj(A_k) X[k] + conj(B_k) conj(X[h-k]), k = 0..h-1; the
        # reflected operand X[h], X[h-1], ..., X[1] is a reversed-slice view.
        # reprolint: alloc-ok - half-length entangle intermediate, becomes the
        # result's backing store via the zero-copy float64 view below
        z = np.empty(spectrum.shape[:-1] + (h,), dtype=np.complex128)
        np.multiply(spectrum[..., :h], self._ia[:h], out=z)
        z += self._ib[:h] * np.conj(spectrum[..., h:0:-1])
        time_half = np.conj(self.program.execute(np.conj(z)))
        time_half /= h
        # The complex128 layout of the half-length signal IS the interleaved
        # (even, odd) float64 sample sequence: unpacking is a zero-copy view.
        if time_half.strides[-1] != time_half.itemsize:
            time_half = np.ascontiguousarray(time_half)  # reprolint: alloc-ok - strided fallback
        return time_half.view(np.float64)

    # ------------------------------------------------------------------
    def profile(self, x: np.ndarray):
        """Timed per-phase breakdown of one packed forward execution.

        Same diagnostic contract as :meth:`StageProgram.profile`: pack,
        half-length transform stages, and the disentangle pass each get a
        timed entry.  Odd lengths profile the full-length complex program
        plus the bin slice.
        """

        import time

        from repro.telemetry.profile import ProfileEntry, ProfileResult

        x = np.asarray(x, dtype=np.float64)
        perf = time.perf_counter
        if self.n == 1 or self.half == 0:
            start = perf()
            out = self.execute(x)
            elapsed = perf() - start
            label = "trivial n=1" if self.n == 1 else "odd length (full complex + slice)"
            return ProfileResult(
                n=self.n,
                description=self.describe(),
                entries=(ProfileEntry(label, elapsed),),
                total_seconds=elapsed,
                output=out,
            )
        start = perf()
        z = self.pack(x)
        pack_seconds = perf() - start
        inner = self.program.profile(z)
        start = perf()
        out = self.disentangle(inner.output)
        repack_seconds = perf() - start
        entries = (
            (ProfileEntry("pack (zero-copy complex view)", pack_seconds),)
            + inner.entries
            + (ProfileEntry("disentangle (conjugate-even repack)", repack_seconds),)
        )
        return ProfileResult(
            n=self.n,
            description=self.describe(),
            entries=entries,
            total_seconds=pack_seconds + inner.total_seconds + repack_seconds,
            output=out,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line program listing (half-length program plus repack pass)."""

        if self.n == 1:
            return "RealStageProgram(n=1, trivial)"
        if self.half == 0:
            return f"RealStageProgram(n={self.n}, odd -> {self.program.describe()})"
        return f"RealStageProgram(n={self.n}, packed -> {self.program.describe()})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class StockhamStageProgram:
    """An in-place compiled transform: caller's buffer plus one half scratch.

    The ping-pong :class:`StageProgram` doubles the working set - two
    full-size work buffers plus the output array.  At the paper's 2^20+
    sizes (Section 5) that extra memory traffic is what the in-place
    execution argument is about, so this program runs the transform *in the
    caller's buffer* with exactly one half-size scratch allocation:

    1. **deinterleave** - the odd-index samples move to the scratch ``S``
       with one strided copy; the even-index samples are compacted into the
       buffer's first half ``B1`` by a doubling schedule of
       ``ceil(log2 n/2)`` slice copies whose source and destination ranges
       never overlap (no hidden NumPy temporaries);
    2. **two half transforms** - the cached ``n/2``-point
       :class:`StageProgram` runs via :meth:`StageProgram.execute_into`,
       which ping-pongs its self-sorting combine stages between two
       *caller-provided* buffers: the even half between ``B1`` and ``B2``
       (the buffer's second half), the odd half between ``S`` and ``B1``;
    3. **autosort butterfly** - the final radix-2 DIT combine
       ``X[k] = E[k] + omega_n^k O[k]``, ``X[k+n/2] = E[k] - omega_n^k O[k]``
       writes both halves straight into their natural-order positions
       (three elementwise passes, no permutation pass, no final copy).

    Every write in steps 2-3 lands in a strided view of either the caller's
    buffer or the single scratch - the Stockham discipline of alternating
    buffers per stage, at half the usual footprint.  The half-length
    programs are shared with the out-of-place path through the program LRU,
    so compiling a Stockham program warms the ping-pong path too (and vice
    versa).

    Supported sizes: even ``n >= 2`` whose half-length program does not
    bottom out in a Bluestein base (the chirp convolution needs its own
    full-size scratch); see :func:`stockham_supported`.  Instances are
    immutable and thread-safe - the only mutable execution state is the
    thread-local scratch.
    """

    __slots__ = ("n", "half", "program", "twiddle")

    def __init__(self, n: int, *, native: bool = False) -> None:
        self.n = int(n)
        if self.n < 2 or self.n % 2:
            raise ValueError(
                f"in-place Stockham programs require an even size >= 2, got {n}"
            )
        self.half = self.n // 2
        self.program = get_program(self.half, native=native)
        if self.program.base_kind == "bluestein":
            raise ValueError(
                f"size {n} has a Bluestein half-length base; the in-place "
                f"Stockham lowering does not support it"
            )
        #: omega_n^k for k < n/2 - the only root table the autosort
        #: butterfly needs (one TwiddleCache hit at compile time).
        self.twiddle = get_global_cache().half_vector(self.n)

    # ------------------------------------------------------------------
    def execute_inplace(self, buf: np.ndarray) -> np.ndarray:
        """Forward DFT along the last axis, overwriting ``buf``.

        ``buf`` must be a writeable C-contiguous complex128 array whose
        last axis has length ``n`` (arbitrary leading batch axes).  The
        transform allocates nothing beyond the reusable thread-local
        scratch of *half* the buffer's size; the (mutated) buffer is
        returned holding the natural-order spectrum.
        """

        rows = self._as_rows(buf)
        batch = rows.shape[0]
        h = self.half
        scratch = _stockham_scratch(batch * h)[: batch * h].reshape(batch, h)
        b1 = rows[:, :h]
        b2 = rows[:, h:]

        # --- deinterleave: odds -> scratch, evens compacted into b1 -------
        scratch[...] = rows[:, 1::2]
        # Doubling schedule: destination [j, 2j) <- source [2j, 4j) (stride
        # 2).  Source start 2j == destination end, so the slices never
        # overlap and NumPy never buffers; element 0 is already in place.
        j = 1
        while j < h:
            w = min(j, h - j)
            rows[:, j : j + w] = rows[:, 2 * j : 2 * (j + w) : 2]
            j *= 2

        # --- the two half-length transforms -------------------------------
        self.program.execute_into(b1, b2)      # E = FFT(evens), staging in b1
        self.program.execute_into(scratch, b1)  # O = FFT(odds), staging in scratch

        # --- radix-2 autosort butterfly, natural order, no final copy -----
        np.multiply(b1, self.twiddle, out=scratch)  # t = omega * O
        np.add(b2, scratch, out=b1)                 # X[:h]  = E + t
        np.subtract(b2, scratch, out=b2)            # X[h:]  = E - t
        return buf

    def execute_inverse_inplace(self, buf: np.ndarray) -> np.ndarray:
        """Normalised inverse DFT along the last axis, overwriting ``buf``.

        Uses the conjugation identity in place: conjugate, forward
        transform, conjugate and scale - the same three-buffer discipline,
        still nothing allocated beyond the half-size scratch.
        """

        rows = self._as_rows(buf)
        np.conj(rows, out=rows)
        self.execute_inplace(rows)
        np.conj(rows, out=rows)
        rows *= 1.0 / self.n
        return buf

    # ------------------------------------------------------------------
    def execute(self, x: np.ndarray) -> np.ndarray:
        """Out-of-place convenience wrapper: copy once, transform in place.

        Gives the Stockham lowering the same call signature as
        :class:`StageProgram`, so plans can swap programs freely; the copy
        is the *only* full-size allocation on this path (the ping-pong
        executor pays it too, as its output array).
        """

        x = np.asarray(x, dtype=np.complex128)
        if x.ndim == 0:
            raise ValueError("input must have at least one dimension")
        if x.shape[-1] != self.n:
            raise ValueError(
                f"program of size {self.n} applied to array with last axis {x.shape[-1]}"
            )
        # reprolint: alloc-ok - the documented single full-size allocation of
        # the out-of-place wrapper (the ping-pong executor pays it too)
        out = np.empty(x.shape, dtype=np.complex128)
        np.copyto(out, x)
        return self.execute_inplace(out)

    # ------------------------------------------------------------------
    def _as_rows(self, buf: np.ndarray) -> np.ndarray:
        if not isinstance(buf, np.ndarray) or buf.dtype != np.complex128:
            raise ValueError("in-place execution requires a complex128 ndarray buffer")
        if not buf.flags.c_contiguous or not buf.flags.writeable:
            raise ValueError(
                "in-place execution requires a writeable C-contiguous buffer"
            )
        if buf.ndim == 0 or buf.shape[-1] != self.n:
            raise ValueError(
                f"program of size {self.n} applied to buffer with last axis "
                f"{buf.shape[-1] if buf.ndim else 0}"
            )
        return buf.reshape(-1, self.n)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line program listing (half program plus autosort combine)."""

        return (
            f"StockhamStageProgram(n={self.n}, inplace, scratch={self.half}, "
            f"half -> {self.program.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


def stockham_supported(n: int) -> bool:
    """Whether size ``n`` has an in-place Stockham lowering.

    Even sizes whose half-length program bottoms out in a codelet or a
    direct small-prime DFT qualify; odd sizes have no parity split and
    Bluestein halves need their own convolution scratch.  Callers fall back
    to the ping-pong :class:`StageProgram` (plus a copy when in-place
    semantics were requested) for unsupported sizes.
    """

    n = int(n)
    if n < 2 or n % 2:
        return False
    return get_program(n // 2).base_kind != "bluestein"


# ----------------------------------------------------------------------
# thread-local ping-pong work buffers
# ----------------------------------------------------------------------

_tls = threading.local()


def _work_buffers(count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Two reusable complex work buffers of at least ``count`` elements.

    Thread-local so concurrently executing plans never share scratch space;
    grown (never shrunk) as larger transforms appear.
    """

    pair = getattr(_tls, "buffers", None)
    if pair is None or pair[0].size < count:
        pair = (
            np.empty(count, dtype=np.complex128),
            np.empty(count, dtype=np.complex128),
        )
        _tls.buffers = pair
    return pair


def _stockham_scratch(count: int) -> np.ndarray:
    """The single reusable half-size scratch of the in-place Stockham path.

    Thread-local like the ping-pong pair (concurrent in-place executions
    never share it) but deliberately *separate* from it: an in-place
    transform must not inflate the out-of-place buffers, and the peak-memory
    guarantee - at most one buffer of half the working set - is what the
    scratch-accounting tests assert against.
    """

    buf = getattr(_tls, "stockham", None)
    if buf is None or buf.size < count:
        buf = np.empty(count, dtype=np.complex128)
        _tls.stockham = buf
    return buf


# ----------------------------------------------------------------------
# the program cache (shape mirrors the FTPlan "wisdom" cache)
# ----------------------------------------------------------------------

class ProgramCacheInfo(NamedTuple):
    hits: int
    misses: int
    size: int
    limit: int


_DEFAULT_PROGRAM_CACHE_LIMIT = 128

_cache_lock = threading.RLock()
#: keyed by ``n`` (complex programs), ``("real", n)`` (real programs),
#: ``("stockham", n)`` (in-place Stockham programs), or
#: ``("protected", n, optimized, memory_ft)`` (fused protected programs,
#: see :mod:`repro.fftlib.protected`).  Native-tier lowerings are distinct
#: entries under ``("native", <key>)`` so a native request never mutates
#: (or is satisfied by) the pure-NumPy program of the same size.
_programs: "OrderedDict[object, object]" = OrderedDict()
#: per-key once-guards: key -> Event set when that key's compile finishes
_inflight: dict = {}
_cache_limit = _DEFAULT_PROGRAM_CACHE_LIMIT
_hits = 0
_misses = 0


def _cached_program(key, factory):
    """Fetch ``key`` from the shared program LRU, compiling via ``factory``.

    Compilation happens *outside* the cache lock, guarded per key: the first
    thread to request a key compiles it while concurrent requests for the
    same key wait on its event (no duplicate compilation stampede), and
    requests for *different* keys compile concurrently (no serialization of
    unrelated planner threads behind one big lock).
    """

    global _hits, _misses
    while True:
        with _cache_lock:
            cached = _programs.get(key)
            if cached is not None:
                _hits += 1
                _programs.move_to_end(key)
                return cached
            guard = _inflight.get(key)
            if guard is None:
                guard = threading.Event()
                _inflight[key] = guard
                owner = True
            else:
                owner = False
        if not owner:
            # Another thread is compiling this key; wait and re-check the
            # cache (looping covers the owner failing or the entry being
            # evicted between its insert and our wake-up).
            guard.wait()
            continue
        try:
            created = factory()
        except BaseException:
            with _cache_lock:
                _inflight.pop(key, None)
            guard.set()
            raise
        with _cache_lock:
            _misses += 1
            _programs[key] = created
            while len(_programs) > _cache_limit:
                _programs.popitem(last=False)
            _inflight.pop(key, None)
        guard.set()
        if _trace.active:
            # The owner's factory path is the one actual compile per key
            # (waiters and cache hits never reach here).
            _trace.emit("program-compile", key=key, program=created.describe())
        return created


def get_program(n: int, *, native: bool = True) -> StageProgram:
    """The (cached) compiled stage program for an ``n``-point transform.

    The default lowering runs the generated-C stage bodies (see
    :mod:`repro.fftlib.native`) for calls of at least
    ``_NATIVE_MIN_ELEMENTS`` elements and the NumPy bodies below that.
    When the tier cannot serve the size (``REPRO_NO_NATIVE=1``, no
    compiler, a Bluestein base, an order the C kernels run slower or not
    at all) the program keeps its NumPy bodies and records the reason on
    ``native_fallback_reason``.  ``native=False`` asks for the NumPy bodies
    explicitly (a separate cache entry: baselines and differential tests).
    """

    n = int(n)
    if native:
        return _cached_program(("native", n), lambda: StageProgram(n, native=True))
    return _cached_program(n, lambda: StageProgram(n))


def get_real_program(n: int, *, native: bool = True) -> RealStageProgram:
    """The (cached) compiled real-to-complex program for ``n`` real samples.

    Shares the complex program LRU (keys are tagged), so a real program and
    the half-length complex program it wraps count as two entries.
    """

    n = int(n)
    if native:
        return _cached_program(
            ("native", ("real", n)), lambda: RealStageProgram(n, native=True)
        )
    return _cached_program(("real", n), lambda: RealStageProgram(n))


def get_stockham_program(n: int, *, native: bool = True) -> StockhamStageProgram:
    """The (cached) in-place Stockham program for an ``n``-point transform.

    Shares the program LRU under ``("stockham", n)`` keys; the half-length
    :class:`StageProgram` it wraps is the same object the out-of-place path
    caches, so the two lowerings share twiddle tables and butterflies.
    Raises ``ValueError`` for unsupported sizes (see
    :func:`stockham_supported`).
    """

    n = int(n)
    if native:
        return _cached_program(
            ("native", ("stockham", n)), lambda: StockhamStageProgram(n, native=True)
        )
    return _cached_program(("stockham", n), lambda: StockhamStageProgram(n))


def program_cache_info() -> ProgramCacheInfo:
    """Hit/miss/size statistics of the program cache."""

    with _cache_lock:
        return ProgramCacheInfo(_hits, _misses, len(_programs), _cache_limit)


def clear_program_cache() -> None:
    """Drop all compiled programs and reset the statistics."""

    global _hits, _misses
    with _cache_lock:
        _programs.clear()
        _hits = 0
        _misses = 0


# ----------------------------------------------------------------------
# module-level transforms (what ``repro.fftlib`` exports as rfft, irfft and
# fft_along_axis)
# ----------------------------------------------------------------------

def fft(x: np.ndarray) -> np.ndarray:
    """Forward DFT along the last axis via the compiled stage program."""

    x = np.asarray(x, dtype=np.complex128)
    if x.ndim == 0:
        raise ValueError("input must have at least one dimension")
    if x.shape[-1] == 0:
        raise ValueError("transform length must be positive")
    return get_program(x.shape[-1]).execute(x)


def ifft(x: np.ndarray) -> np.ndarray:
    """Inverse DFT along the last axis (normalised by ``1/n``).

    Uses the conjugation identity ``ifft(x) = conj(fft(conj(x))) / n`` so the
    forward program serves both directions.
    """

    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    return np.conj(fft(np.conj(x))) / n


def rfft(x: np.ndarray) -> np.ndarray:
    """Packed real-to-complex DFT along the last axis (compiled, batched)."""

    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        raise ValueError("input must have at least one dimension")
    if x.shape[-1] == 0:
        raise ValueError("transform length must be positive")
    return get_real_program(x.shape[-1]).execute(x)


def irfft(spectrum: np.ndarray, n: Optional[int] = None) -> np.ndarray:
    """Real inverse of :func:`rfft` along the last axis (compiled, batched).

    ``n`` defaults to ``2 * (bins - 1)``, the even-length case; pass it
    explicitly to recover an odd-length signal.
    """

    spectrum = np.asarray(spectrum, dtype=np.complex128)
    if spectrum.ndim == 0:
        raise ValueError("input must have at least one dimension")
    if n is None:
        n = 2 * (spectrum.shape[-1] - 1)
    return get_real_program(n).execute_inverse(spectrum)


def fft_along_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Forward DFT along an arbitrary axis."""

    x = np.asarray(x, dtype=np.complex128)
    if axis == -1 or axis == x.ndim - 1:
        return fft(x)
    moved = np.moveaxis(x, axis, -1)
    return np.moveaxis(fft(moved), -1, axis)


def ifft_along_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Inverse DFT along an arbitrary axis."""

    x = np.asarray(x, dtype=np.complex128)
    if axis == -1 or axis == x.ndim - 1:
        return ifft(x)
    moved = np.moveaxis(x, axis, -1)
    return np.moveaxis(ifft(moved), -1, axis)
