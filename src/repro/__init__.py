"""repro: online ABFT for the fast Fourier transform.

A from-scratch reproduction of *Liang et al., "Correcting Soft Errors Online
in Fast Fourier Transform", SC'17*: a plan-based FFT library (the FFTW
stand-in), the offline and online algorithm-based fault tolerance schemes,
fault injection machinery, a simulated-MPI parallel in-place scheme with
communication-computation overlap, and the paper's analytic overhead model.

Quick start
-----------
The public API is plan-centric (FFTW-style *plan once, execute many*):

>>> import numpy as np
>>> import repro
>>> p = repro.plan(4096)                            # opt-online+mem scheme
>>> x = np.random.default_rng(0).standard_normal(4096) + 0j
>>> result = p.execute(x)
>>> bool(np.allclose(result.output, np.fft.fft(x)))
True
>>> result.report.detected                          # nothing went wrong
False
>>> repro.plan(4096) is p                           # plans are cached
True

Plans are configured declaratively and cached by ``(n, config)``:

>>> p = repro.plan(4096, backend="numpy")           # pocketfft kernel
>>> p = repro.plan(4096, "opt-offline")             # legacy registry name
>>> p = repro.plan(4096, repro.FTConfig(kind="online", optimized=True,
...                                     memory_ft=False))

and support protected inverses and vectorized batched execution:

>>> X = np.random.default_rng(1).standard_normal((64, 4096)) + 0j
>>> batch = repro.plan(4096).execute_many(X)        # vectorized protection
>>> bool(np.allclose(batch.output, np.fft.fft(X, axis=-1)))
True

Real signals are first-class: ``real=True`` plans run a compiled
half-complex program (~2x fewer flops/bytes) and protect the packed
``n//2 + 1`` spectrum directly:

>>> xr = np.random.default_rng(2).standard_normal(4096)
>>> pr = repro.plan(4096, real=True)
>>> bool(np.allclose(pr.execute(xr).output, np.fft.rfft(xr)))
True

See ``examples/`` for fault-injection demos and ``benchmarks/`` for the
harnesses that regenerate every table and figure of the paper.
"""

from repro import telemetry
from repro.core.base import OptimizationFlags, SchemeResult
from repro.core.config import FTConfig
from repro.core.ftplan import (
    BatchResult,
    FTPlan,
    PlanCacheInfo,
    clear_plan_cache,
    plan,
    plan_cache_info,
    set_plan_cache_limit,
)
from repro.core.thresholds import RoundoffModel, ThresholdPolicy
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultKind, FaultSite, FaultSpec
from repro.fftlib.backends import (
    FFTBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
)

__version__ = "1.1.0"


def native_cache_info() -> dict:
    """Counters and status of the native kernel tier (compiles, disk hits,
    failures, programs built, fallbacks), mirroring :func:`plan_cache_info`
    and the other ``*_info`` surfaces.  The same numbers appear under
    ``repro.telemetry.snapshot()["caches"]["native"]``.
    """

    from repro.fftlib.native import native_info

    return native_info()


__all__ = [
    "telemetry",
    "native_cache_info",
    "plan",
    "FTPlan",
    "FTConfig",
    "BatchResult",
    "PlanCacheInfo",
    "plan_cache_info",
    "clear_plan_cache",
    "set_plan_cache_limit",
    "FFTBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "OptimizationFlags",
    "SchemeResult",
    "RoundoffModel",
    "ThresholdPolicy",
    "FaultInjector",
    "FaultKind",
    "FaultSite",
    "FaultSpec",
    "__version__",
]
