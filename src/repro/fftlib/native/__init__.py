"""Native codelet kernel tier: generated C stage bodies behind ``ctypes``.

The tier compiles :mod:`~repro.fftlib.native.generator`'s C translation unit
once per (generator version, compiler, flags) into a per-user kernel cache
(:mod:`~repro.fftlib.native.cache`) and dispatches compiled
:class:`~repro.fftlib.executor.StageProgram` bodies to it through
:mod:`~repro.fftlib.native.kernels` - zero hard dependencies, GIL-free
execution, and silent pure-NumPy fallback whenever any link in that chain
is missing (no compiler, failed compile, ``REPRO_NO_NATIVE=1``, or an
unsupported program shape).
"""

from repro.fftlib.native.cache import cache_dir, cache_stats
from repro.fftlib.native.generator import (
    CODELET_RADICES,
    GENERATOR_VERSION,
    GENERIC_BASE_MAX,
    generate_source,
)
from repro.fftlib.native.kernels import (
    NativeProgram,
    build_native_program,
    get_native_kernels,
    native_info,
    native_supported,
    native_unavailable_reason,
    reset_native_state,
)

__all__ = [
    "CODELET_RADICES",
    "GENERATOR_VERSION",
    "GENERIC_BASE_MAX",
    "generate_source",
    "cache_dir",
    "cache_stats",
    "NativeProgram",
    "build_native_program",
    "get_native_kernels",
    "native_info",
    "native_supported",
    "native_unavailable_reason",
    "reset_native_state",
]
