"""The sub-FFT backend registry.

Every plan in this library ultimately applies a raw (unprotected) FFT kernel
to the last axis of an array.  This module puts that kernel behind a tiny
interface so that schemes, benchmarks, and the CLI can select it uniformly:

* ``"fftlib"`` - the repository's own plan-based engine (codelets,
  mixed-radix, Bluestein).  This is the faithful FFTW stand-in whose stage
  structure the ABFT schemes instrument, and the default.
* ``"numpy"`` - NumPy's pocketfft.  Much faster in wall-clock terms (it is
  compiled), which makes it the backend of choice for large fault campaigns
  and for measuring checksum overhead unclouded by pure-Python FFT cost.

Third parties can plug in additional kernels (``pyfftw``, ``scipy.fft``,
accelerator wrappers) with :func:`register_backend`; nothing above this
module needs to change.  Checksum protection is backend-agnostic: the ABFT
schemes only require that the kernel computes the DFT, so a registered
backend is automatically covered by the same verification machinery.
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "FFTBackend",
    "FFTLibBackend",
    "NumpyFFTBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "default_backend_name",
    "set_default_backend",
    "resolve_backend_name",
]


class FFTBackend(abc.ABC):
    """A raw sub-FFT kernel: forward/backward DFTs along one axis.

    Backends are stateless; twiddle/working storage belongs to the plans
    that call them.  ``ifft`` must be fully normalised (``1/n``), matching
    the convention of :func:`numpy.fft.ifft` and the internal engine.
    """

    #: registry key (also what ``--backend`` and ``FTConfig.backend`` accept)
    name: str = "base"
    #: one-line human description for listings
    description: str = ""
    #: whether plans on this backend may lower to the in-place Stockham
    #: program (see :class:`repro.fftlib.executor.StockhamStageProgram`).
    #: Foreign kernels allocate their own output arrays, so only the
    #: internal engine can honour the half-size-working-set contract;
    #: ``Plan.execute_inplace`` on other backends degrades to
    #: transform-and-copy.
    supports_inplace: bool = False
    #: whether plans on this backend may lower their stage bodies to the
    #: generated-C native kernel tier (see :mod:`repro.fftlib.native`).
    #: Only the internal engine exposes the stage structure the generator
    #: mirrors; foreign kernels are already compiled code.  The flag means
    #: "may request", not "will get": with no working C compiler (or under
    #: ``REPRO_NO_NATIVE=1``) the lowering silently keeps its pure-NumPy
    #: stage bodies and reports the reason in ``Plan.describe()``.
    supports_native: bool = False

    @abc.abstractmethod
    def fft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Forward DFT along ``axis`` (batched over all other axes)."""

    @abc.abstractmethod
    def ifft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Normalised inverse DFT along ``axis``."""

    # -- real-input transforms -----------------------------------------
    # The base implementations derive the packed ``n//2 + 1`` layout from
    # the complex kernel, so every registered backend supports real plans
    # out of the box; backends with a native half-complex kernel override
    # them (both built-ins do).

    def rfft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Packed real-to-complex DFT along ``axis`` (``n//2 + 1`` bins)."""

        x = np.asarray(x, dtype=np.float64)
        n = x.shape[axis]
        spectrum = self.fft(x.astype(np.complex128), axis=axis)
        index = [slice(None)] * spectrum.ndim
        index[axis] = slice(0, n // 2 + 1)
        return np.ascontiguousarray(spectrum[tuple(index)])

    def irfft(self, spectrum: np.ndarray, n: Optional[int] = None, axis: int = -1) -> np.ndarray:
        """Real inverse of :meth:`rfft` along ``axis`` (length ``n``)."""

        spectrum = np.asarray(spectrum, dtype=np.complex128)
        bins = spectrum.shape[axis]
        if n is None:
            n = 2 * (bins - 1)
        if bins != n // 2 + 1:
            raise ValueError(f"spectrum has {bins} bins, expected {n // 2 + 1} for n={n}")
        index = [slice(None)] * spectrum.ndim
        index[axis] = slice(-2, 0, -1) if n % 2 == 0 else slice(-1, 0, -1)
        full = np.concatenate([spectrum, np.conj(spectrum[tuple(index)])], axis=axis)
        return np.real(self.ifft(full, axis=axis))

    def describe(self) -> str:
        return f"{self.name}: {self.description}"


class FFTLibBackend(FFTBackend):
    """The internal plan-based engine (compiled stage programs).

    Executes through :mod:`repro.fftlib.executor`: a cached, iterative stage
    program per size (codelets / DFT-matrix base kernels, BLAS rank-``r``
    combines, Bluestein for large primes) rather than the seed's per-call
    recursion - see the executor module for the lowering.
    """

    name = "fftlib"
    description = "internal compiled stage-program engine (codelets, mixed-radix, Bluestein)"
    supports_inplace = True
    supports_native = True

    def fft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        from repro.fftlib.executor import fft_along_axis

        return fft_along_axis(x, axis)

    def ifft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        from repro.fftlib.executor import ifft_along_axis

        return ifft_along_axis(x, axis)

    def rfft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        from repro.fftlib.executor import rfft

        x = np.asarray(x, dtype=np.float64)
        if axis == -1 or axis == x.ndim - 1:
            return rfft(x)
        return np.moveaxis(rfft(np.moveaxis(x, axis, -1)), -1, axis)

    def irfft(self, spectrum: np.ndarray, n: Optional[int] = None, axis: int = -1) -> np.ndarray:
        from repro.fftlib.executor import irfft

        spectrum = np.asarray(spectrum, dtype=np.complex128)
        if axis == -1 or axis == spectrum.ndim - 1:
            return irfft(spectrum, n)
        return np.moveaxis(irfft(np.moveaxis(spectrum, axis, -1), n), -1, axis)


class NumpyFFTBackend(FFTBackend):
    """NumPy's pocketfft (compiled; the fast path for large workloads)."""

    name = "numpy"
    description = "numpy.fft (pocketfft); compiled, fastest for large sizes"

    def fft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.fft(np.asarray(x, dtype=np.complex128), axis=axis)

    def ifft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.ifft(np.asarray(x, dtype=np.complex128), axis=axis)

    def rfft(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return np.fft.rfft(np.asarray(x, dtype=np.float64), axis=axis)

    def irfft(self, spectrum: np.ndarray, n: Optional[int] = None, axis: int = -1) -> np.ndarray:
        return np.fft.irfft(np.asarray(spectrum, dtype=np.complex128), n=n, axis=axis)


_LOCK = threading.RLock()
_REGISTRY: Dict[str, FFTBackend] = {}
_DEFAULT_NAME = "fftlib"


def register_backend(backend: FFTBackend, *, overwrite: bool = False) -> FFTBackend:
    """Register ``backend`` under ``backend.name``; returns it for chaining."""

    name = getattr(backend, "name", "")
    if not name or name == "base":
        raise ValueError("backend must define a non-default 'name'")
    with _LOCK:
        if name in _REGISTRY and not overwrite:
            raise ValueError(f"backend {name!r} already registered (pass overwrite=True)")
        _REGISTRY[name] = backend
    return backend


def available_backends() -> Sequence[str]:
    """Names accepted by :func:`get_backend` (and ``--backend`` options)."""

    with _LOCK:
        return tuple(_REGISTRY.keys())


def get_backend(name: Optional[str] = None) -> FFTBackend:
    """Look up a backend by name (``None`` = the process-wide default)."""

    with _LOCK:
        key = name or _DEFAULT_NAME
        backend = _REGISTRY.get(key)
    if backend is None:
        raise KeyError(
            f"unknown FFT backend {key!r}; available: {', '.join(available_backends())}"
        )
    return backend


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Canonical registry name for ``name`` (validates; ``None`` = default)."""

    return get_backend(name).name


def default_backend_name() -> str:
    # Rebinding a module global is atomic, so a read needs no lock: plan()
    # reads this on every cache hit.
    return _DEFAULT_NAME


def set_default_backend(name: str) -> None:
    """Change the process-wide default backend (must already be registered)."""

    global _DEFAULT_NAME
    resolved = resolve_backend_name(name)
    with _LOCK:
        _DEFAULT_NAME = resolved


register_backend(FFTLibBackend())
register_backend(NumpyFFTBackend())
