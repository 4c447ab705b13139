"""Input validation helpers.

Every public entry point of the library funnels its array arguments through
the helpers in this module so that error messages are uniform and so that the
numerical kernels can assume contiguous ``complex128`` data.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

__all__ = [
    "as_complex_vector",
    "as_complex_matrix",
    "as_real_array",
    "ensure_positive_int",
    "ensure_power_of",
    "is_power_of_two",
    "split_size",
]


def as_complex_vector(x, *, copy: bool = False, name: str = "x") -> np.ndarray:
    """Return ``x`` as a 1-D contiguous ``complex128`` array.

    Parameters
    ----------
    x:
        Array-like input.  Real inputs are promoted to complex.
    copy:
        When ``True`` the returned array never aliases the input.  Schemes
        that mutate their working buffer (in-place plans, fault injection)
        request a copy explicitly.
    name:
        Name used in error messages.
    """

    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    result = np.ascontiguousarray(arr, dtype=np.complex128)
    if copy and result is arr:
        result = result.copy()
    elif copy and np.shares_memory(result, arr):
        result = result.copy()
    return result


def as_real_array(x, *, name: str = "x") -> np.ndarray:
    """Real-valued ``x`` as C-contiguous float64, copied only when it is not.

    Complex input with zero imaginary parts is accepted; any non-zero
    imaginary part raises ``ValueError``.
    """

    arr = np.asarray(x)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise ValueError(f"real plan expects real-valued {name}")
        arr = arr.real
    return np.ascontiguousarray(arr, dtype=np.float64)


def as_complex_matrix(x, *, name: str = "x") -> np.ndarray:
    """Return ``x`` as a 2-D contiguous ``complex128`` array."""

    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def ensure_positive_int(value, *, name: str = "value") -> int:
    """Validate that ``value`` is a positive integer and return it as ``int``."""

    try:
        ivalue = int(value)
    except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
        raise TypeError(f"{name} must be an integer, got {value!r}") from exc
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return ivalue


def is_power_of_two(n: int) -> bool:
    """Return ``True`` when ``n`` is a positive power of two."""

    return n > 0 and (n & (n - 1)) == 0


def ensure_power_of(n: int, base: int, *, name: str = "n") -> int:
    """Validate that ``n`` is a positive power of ``base``."""

    n = ensure_positive_int(n, name=name)
    base = ensure_positive_int(base, name="base")
    if base < 2:
        raise ValueError("base must be >= 2")
    value = n
    while value % base == 0:
        value //= base
    if value != 1:
        raise ValueError(f"{name}={n} is not a power of {base}")
    return n


def split_size(n: int) -> Tuple[int, int]:
    """Split ``n`` into two factors ``(m, k)`` with ``m * k == n``.

    This mirrors FFTW's behaviour for the highest level of a Cooley-Tukey
    decomposition: the factors are chosen as close to ``sqrt(n)`` as possible
    so both sub-problems are of size :math:`\\Theta(\\sqrt{N})`, which is what
    the paper's online ABFT scheme relies on for cheap recomputation.
    """

    n = ensure_positive_int(n, name="n")
    if n == 1:
        return 1, 1
    best = (1, n)
    root = int(np.sqrt(n))
    for candidate in range(root, 0, -1):
        if n % candidate == 0:
            best = (n // candidate, candidate)
            break
    m, k = best
    # Convention used throughout the repository: the transform of size N is
    # computed as k FFTs of size m followed by m FFTs of size k (N = m * k),
    # with m >= k.
    if m < k:
        m, k = k, m
    return m, k


def iter_chunks(total: int, chunk: int) -> Iterable[Tuple[int, int]]:
    """Yield ``(start, stop)`` pairs covering ``range(total)`` in chunks."""

    total = ensure_positive_int(total, name="total")
    chunk = ensure_positive_int(chunk, name="chunk")
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        yield start, stop
        start = stop
