"""ctypes binding and per-program descriptors for the native kernel tier.

This module is the only place that talks to the compiled shared object.  It
exposes the capability gate the rest of the stack (and the reprolint
``capability-guard`` rule) keys on:

* :func:`native_supported` - ``True`` only when the tier is enabled
  (``REPRO_NO_NATIVE`` unset) *and* the kernel library compiled and loaded;
  the first call triggers the one-time build via the kernel cache.
* :func:`get_native_kernels` - the bound :class:`ctypes.CDLL`.  Call sites
  must be dominated by :func:`native_supported` / ``supports_native``
  evidence (lint-enforced); calling it unguarded raises when the tier is
  unavailable instead of returning garbage.
* :func:`build_native_program` - lowers a compiled
  :class:`~repro.fftlib.executor.StageProgram` into a
  :class:`NativeProgram`: the stage descriptors (spans, counts,
  twiddle-table and butterfly-matrix pointers) marshalled once into ctypes
  arrays, so each transform afterwards is a *single* foreign call - and
  ctypes drops the GIL for the call's duration, so the serve daemon's
  worker threads run native transforms concurrently.
  :meth:`NativeProgram.finish_inverse` binds the inverse finish, the one
  in-place pass that turns the program's output into the inverse transform
  and sums the end-to-end check on the way.
* :func:`native_info` - ``cache_info()``-style counters: compiles, disk
  hits, failures, programs built, fallbacks, and the current status/reason.

Fallback is always correct and never raises: any reason the tier cannot
serve a program (disabled, no compiler, compile failure, Bluestein base, a
combine radix other than 16) or serves it slower than NumPy (a
generic base order past :data:`~.generator.GENERIC_BASE_MAX`) is reported as
a reason string, counted in the telemetry registry (``native_fallbacks``),
and emitted as a ``fallback`` trace event when tracing is on; the caller
keeps the pure-NumPy stage bodies.  The program's shape is checked before
the library is touched, so a size the tier would not run never triggers the
one-time compile.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

from .cache import cache_dir, cache_stats, load_library, reset_cache_state
from .generator import CODELET_RADICES, COMBINE_RADIX, GENERIC_BASE_MAX

__all__ = [
    "native_supported",
    "native_unavailable_reason",
    "get_native_kernels",
    "NativeProgram",
    "build_native_program",
    "native_info",
    "reset_native_state",
]

_DISABLE_ENV = "REPRO_NO_NATIVE"

_c64 = ctypes.c_int64
_cvp = ctypes.c_void_p

_bind_lock = threading.Lock()
_bound_libs: "set[int]" = set()

_counter_lock = threading.Lock()
_programs_built = 0
_fallbacks = 0


def _disabled() -> Optional[str]:
    """The disable reason, or ``None`` when the tier may run.

    Checked on every capability query (not cached) so flipping
    ``REPRO_NO_NATIVE`` in a test or a child process takes effect
    immediately without touching the compiled-library cache.
    """

    if os.environ.get(_DISABLE_ENV, "") not in ("", "0"):
        return f"disabled by {_DISABLE_ENV}"
    return None


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the foreign signatures once per loaded library.

    All pointer parameters are declared ``c_void_p`` and passed as raw
    addresses - the marshalling cost per call is a handful of boxed ints,
    negligible against even the smallest transform.
    """

    key = id(lib)
    if key in _bound_libs:
        return lib
    with _bind_lock:
        if key in _bound_libs:
            return lib
        lib.repro_execute.restype = None
        lib.repro_execute.argtypes = [
            _c64, _c64, _c64,            # batch, n, base
            _cvp, _c64,                  # base_matrix, nstages
            _cvp, _cvp,                  # spans, counts
            _cvp,                        # twiddles**
            _cvp, _c64,                  # in, in_rs
            _cvp, _c64,                  # out, out_rs
            _cvp, _cvp,                  # work_a, work_b
        ]
        lib.repro_execute_into.restype = None
        lib.repro_execute_into.argtypes = [
            _c64, _c64, _c64,
            _cvp, _c64,
            _cvp, _cvp,
            _cvp,
            _cvp, _c64,                  # data, data_rs
            _cvp, _c64,                  # work, work_rs
        ]
        lib.repro_inverse_finish.restype = None
        lib.repro_inverse_finish.argtypes = [
            _c64, _c64, ctypes.c_double,  # n, p, scale
            _cvp, _cvp,                  # y, sums
        ]
        _bound_libs.add(key)
    return lib


def native_supported() -> bool:
    """Whether the native tier can execute programs in this process.

    The first call on an enabled host triggers the one-time compile/load
    through the kernel cache; the outcome is remembered, so this is cheap
    on every later call.  Always ``False`` under ``REPRO_NO_NATIVE``.
    """

    if _disabled() is not None:
        return False
    lib, _ = load_library()
    return lib is not None


def native_unavailable_reason() -> Optional[str]:
    """Why :func:`native_supported` is ``False`` (``None`` when it is not)."""

    disabled = _disabled()
    if disabled is not None:
        return disabled
    _, reason = load_library()
    return reason


def get_native_kernels() -> ctypes.CDLL:
    """The bound kernel library.

    Callers must hold :func:`native_supported` evidence (the reprolint
    ``capability-guard`` rule enforces this); an unguarded call on an
    unavailable tier raises ``RuntimeError`` rather than half-working.
    """

    disabled = _disabled()
    if disabled is not None:
        raise RuntimeError(f"native kernel tier unavailable: {disabled}")
    lib, reason = load_library()
    if lib is None:
        raise RuntimeError(f"native kernel tier unavailable: {reason}")
    return _bind(lib)


class NativeProgram:
    """The marshalled native execution recipe of one :class:`StageProgram`.

    Immutable after construction and safe to share across threads: every
    field is a prebuilt ctypes/NumPy constant, and the underlying C kernels
    touch only the buffers passed per call.  The ``_refs`` tuple pins the
    contiguous twiddle/matrix arrays whose addresses the pointer tables
    hold.
    """

    __slots__ = (
        "n",
        "base",
        "nstages",
        "_lib",
        "_base_matrix_ptr",
        "_spans",
        "_counts",
        "_tw_ptrs",
        "_refs",
        "_tables",
    )

    def __init__(self, lib: ctypes.CDLL, program: Any) -> None:
        self._lib = lib
        self.n = program.n
        self.base = program.base
        stages = program.stages
        self.nstages = len(stages)

        refs = []
        if program.base in CODELET_RADICES:
            # Unrolled base codelet: the C side dispatches on the order.
            self._base_matrix_ptr = 0
        else:
            matrix = program.base_matrix
            if matrix is None:
                # Codelet-kind bases outside the unrolled set (n itself is a
                # tiny codelet size): fetch the same cached DFT matrix the
                # direct kind would use.
                from repro.fftlib.twiddle import get_global_cache

                matrix = get_global_cache().dft_matrix(program.base)
            matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
            refs.append(matrix)
            self._base_matrix_ptr = matrix.ctypes.data

        self._spans = np.array([s.span for s in stages], dtype=np.int64)
        self._counts = np.array([s.count for s in stages], dtype=np.int64)
        tw_addrs = []
        for stage in stages:
            # Every combine is radix 16 (see _program_obstacle): only the
            # twiddles travel.
            twiddle = np.ascontiguousarray(stage.twiddle, dtype=np.complex128)
            refs.append(twiddle)
            tw_addrs.append(twiddle.ctypes.data)
        self._tw_ptrs = (_cvp * max(self.nstages, 1))(*(tw_addrs or [0]))
        self._refs = tuple(refs)
        # the stage tables' addresses, taken once: ``.ctypes`` costs ~2 us a call
        self._tables = (
            self._spans.ctypes.data,
            self._counts.ctypes.data,
            ctypes.addressof(self._tw_ptrs),
        )

    # ------------------------------------------------------------------
    def _row_stride(self, arr: np.ndarray) -> int:
        return arr.strides[0] // arr.itemsize if arr.shape[0] > 1 else self.n

    def execute(
        self,
        xs: np.ndarray,
        out: np.ndarray,
        work_a: Optional[np.ndarray],
        work_b: Optional[np.ndarray],
    ) -> np.ndarray:
        """Out-of-place transform of ``(batch, n)`` rows; one foreign call."""

        self._lib.repro_execute(
            xs.shape[0],
            self.n,
            self.base,
            self._base_matrix_ptr,
            self.nstages,
            *self._tables,
            xs.ctypes.data,
            self._row_stride(xs),
            out.ctypes.data,
            self._row_stride(out),
            work_a.ctypes.data if work_a is not None else 0,
            work_b.ctypes.data if work_b is not None else 0,
        )
        return out

    def execute_into(self, data: np.ndarray, work: np.ndarray) -> np.ndarray:
        """Two-buffer transform (clobbers ``data``, result in ``work``)."""

        self._lib.repro_execute_into(
            data.shape[0],
            self.n,
            self.base,
            self._base_matrix_ptr,
            self.nstages,
            *self._tables,
            data.ctypes.data,
            self._row_stride(data),
            work.ctypes.data,
            self._row_stride(work),
        )
        return work

    def finish_inverse(self, y: np.ndarray, sums: np.ndarray) -> None:
        """Turn ``y = F(X)`` into ``ifft(X)`` in place; one foreign call.

        ``y`` is one contiguous row of the program's output.  On return
        ``sums`` (``p`` complex values) holds ``y``'s residue-class sums mod
        ``p``, ``sums[k] = sum of F(X)[j] over j = k (mod p)``, and ``y``
        holds ``F(X)[(n - j) mod n] / n``.
        """

        self._lib.repro_inverse_finish(
            self.n, sums.size, 1.0 / self.n, y.ctypes.data, sums.ctypes.data
        )


def _program_obstacle(program: Any) -> Optional[str]:
    """Why ``program`` should not run natively, or ``None`` when it should."""

    if program.base_kind == "bluestein":
        return "Bluestein base kernels run pure-NumPy (chirp convolution)"
    if program.base not in CODELET_RADICES and program.base > GENERIC_BASE_MAX:
        return (
            f"generic base order {program.base} runs faster as the NumPy "
            f"matrix product"
        )
    for stage in program.stages:
        # Unreachable through executor.lower (every base that passes the
        # check above combines with radix 16 only); the C drivers run every
        # stage as radix 16.
        if stage.radix != COMBINE_RADIX:
            return (
                f"combine radix {stage.radix} has no generated kernel "
                f"(radix {COMBINE_RADIX} only)"
            )
    return None


def build_native_program(
    program: Any,
) -> Tuple[Optional[NativeProgram], Optional[str]]:
    """``(native, None)`` for a runnable lowering, else ``(None, reason)``.

    Never raises for an unavailable tier or an unsupported program shape -
    the caller keeps the pure-NumPy stage bodies and surfaces the reason.
    """

    global _programs_built, _fallbacks
    reason = _program_obstacle(program)
    if reason is None:
        reason = native_unavailable_reason()
    if reason is not None:
        with _counter_lock:
            _fallbacks += 1
        _metrics.inc("native_fallbacks", reason=reason)
        if _trace.active:
            _trace.emit(
                "fallback", kind="native", n=int(program.n), reason=reason
            )
        return None, reason
    if not native_supported():  # pragma: no cover - raced env flip
        return None, native_unavailable_reason()
    native = NativeProgram(get_native_kernels(), program)
    with _counter_lock:
        _programs_built += 1
    return native, None


def native_info() -> Dict[str, Any]:
    """``cache_info()``-style snapshot of the tier's state and counters."""

    # Probe support *before* reading the cache counters: the probe lazily
    # loads the shared library, and that load is itself a disk hit - read
    # the other way round, the first snapshot under-reports by one and two
    # back-to-back renders of an idle process disagree.
    supported = native_supported()
    stats = cache_stats()
    with _counter_lock:
        built = _programs_built
        fallbacks = _fallbacks
    return {
        "supported": supported,
        "reason": None if supported else native_unavailable_reason(),
        "cache_dir": cache_dir(),
        "compiles": stats.compiles,
        "disk_hits": stats.disk_hits,
        "failures": stats.failures,
        "programs_built": built,
        "fallbacks": fallbacks,
    }


def reset_native_state() -> None:
    """Forget the loaded library, bindings, and counters (test hook)."""

    global _programs_built, _fallbacks
    reset_cache_state()
    with _bind_lock:
        _bound_libs.clear()
    with _counter_lock:
        _programs_built = 0
        _fallbacks = 0
