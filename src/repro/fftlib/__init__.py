"""A from-scratch, plan-based FFT library (the repository's FFTW stand-in).

The SC'17 paper instruments FFTW, whose execution of a large transform is a
tree of plans: the highest level splits an ``N``-point problem into ``k``
``m``-point sub-transforms, a twiddle-factor multiplication, and ``m``
``k``-point sub-transforms.  The online ABFT scheme attaches checksums to the
boundaries of exactly those stages.  This package provides the same
structure:

``backends``
    The sub-FFT kernel registry: the internal engine below vs.
    ``numpy.fft`` (pocketfft) vs. anything registered by the user, selected
    uniformly by schemes, benchmarks, and the CLI.
``dft``
    Reference O(N^2) discrete Fourier transforms used for validation and as
    the base-case "codelet" for small prime sizes.
``codelets``
    Hand-written butterflies for tiny sizes (1-8, 16), batched over leading
    axes, mirroring FFTW codelets.
``executor``
    The compiled execution path: sizes are lowered once into iterative
    stage programs (precomputed twiddle tables, base kernels, rank-``r``
    combines) executed over ping-pong work buffers - this is what plans and
    the ``fftlib`` backend actually run.  Its batched module-level
    ``rfft``/``irfft``/``fft_along_axis`` are re-exported here.
``bluestein``
    Chirp-z transform for large prime sizes.
``plan`` / ``planner``
    Plan objects with precomputed twiddle factors and a small planner that
    resolves a lowering per size and caches the plans (FFTW's "wisdom").
``two_layer``
    The explicit highest-level ``N = m * k`` decomposition with stage-level
    entry points (per-sub-FFT execution, twiddle stage) used by the ABFT
    schemes in :mod:`repro.core`.
``three_layer``
    The ``N = r * k^2`` decomposition used by in-place plans in the parallel
    scheme (Fig. 5 of the paper).
"""

from repro.fftlib.backends import (
    FFTBackend,
    FFTLibBackend,
    NumpyFFTBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend_name,
    set_default_backend,
)
from repro.fftlib.dft import direct_dft, direct_idft, dft_matrix
from repro.fftlib.twiddle import TwiddleCache, twiddle_factors, omega
from repro.fftlib.codelets import SUPPORTED_CODELET_SIZES, apply_codelet, has_codelet
from repro.fftlib.executor import (
    StageProgram,
    StockhamStageProgram,
    compile_program,
    get_program,
    get_stockham_program,
    stockham_supported,
    program_cache_info,
    clear_program_cache,
    fft_along_axis,
    irfft,
    rfft,
)
from repro.fftlib.bluestein import bluestein_fft
from repro.fftlib.plan import Plan, PlanDirection
from repro.fftlib.planner import Planner, plan_fft, get_default_planner
from repro.fftlib.two_layer import TwoLayerDecomposition, TwoLayerPlan
from repro.fftlib.three_layer import ThreeLayerPlan

__all__ = [
    "FFTBackend",
    "FFTLibBackend",
    "NumpyFFTBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
    "set_default_backend",
    "direct_dft",
    "direct_idft",
    "dft_matrix",
    "TwiddleCache",
    "twiddle_factors",
    "omega",
    "SUPPORTED_CODELET_SIZES",
    "apply_codelet",
    "has_codelet",
    "fft_along_axis",
    "StageProgram",
    "StockhamStageProgram",
    "compile_program",
    "get_program",
    "get_stockham_program",
    "stockham_supported",
    "program_cache_info",
    "clear_program_cache",
    "bluestein_fft",
    "Plan",
    "PlanDirection",
    "Planner",
    "plan_fft",
    "get_default_planner",
    "TwoLayerDecomposition",
    "TwoLayerPlan",
    "ThreeLayerPlan",
    "rfft",
    "irfft",
]
