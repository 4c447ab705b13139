"""The paper's contribution: offline and online ABFT schemes for the FFT.

Layout
------

``checksums``
    The checksum algebra: the :math:`\\omega_3` computational checksum vector
    of Wang & Jha (:math:`\\omega_p`, ``p`` the smallest odd prime not
    dividing ``n``, when 3 divides ``n``), the closed-form input checksum
    vector ``rA``, the classic and modified (Section 4.1) memory checksum
    pairs, and the locate-and-correct procedure for memory errors.
``thresholds``
    Round-off error modelling and the selection of the detection threshold
    :math:`\\eta` (Section 8).
``detection``
    Verification / correction bookkeeping shared by all schemes.
``dmr``
    Double/triple modular redundancy helpers used for the twiddle stage and
    checksum generation.
``plain``
    The unprotected baseline (our FFTW stand-in).
``offline``
    The classical offline ABFT scheme (Algorithm 1), naive and optimized,
    with optional memory fault tolerance.
``online``
    The paper's two-layer online ABFT scheme (Algorithm 2) and the memory
    fault tolerance hierarchy of Fig. 2, without the Section 4 optimizations.
``optimized``
    The fully optimized online scheme of Fig. 3 (modified checksums,
    verification postponing, incremental checksum generation, contiguous
    buffering), with individual optimizations toggleable for ablations.
``constants``
    :class:`SchemeConstants`: the frozen plan-time bundle of every
    data-independent weight vector and threshold input, built once per plan
    and threaded into all four schemes.
``config``
    :class:`FTConfig`: the frozen, validated, hashable description of a
    protected transform (scheme kind, factors, thresholds, flags, dtype,
    backend) with legacy registry-name conversion.
``ftplan``
    The plan-centric public API: ``repro.plan`` (thread-safe LRU "wisdom"
    cache), :class:`FTPlan` with ``execute`` / ``inverse`` / batched
    ``execute_many``.
"""

from repro.core.base import FTScheme, OptimizationFlags, SchemeResult
from repro.core.checksums import (
    ChecksumPair,
    MemoryChecksumVectors,
    computational_weights,
    input_checksum_weights,
    input_checksum_weights_naive,
    locate_single_error,
    memory_weights_classic,
    memory_weights_modified,
    omega3,
    weighted_sum,
)
from repro.core.constants import SchemeConstants
from repro.core.thresholds import RoundoffModel, ThresholdPolicy
from repro.core.detection import CorrectionRecord, FTReport, VerificationRecord
from repro.core.dmr import dmr_elementwise, dmr_scalar
from repro.core.plain import PlainFFT
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.optimized import OptimizedOnlineABFT
from repro.core.config import FTConfig, SCHEME_KINDS, legacy_scheme_names
from repro.core.ftplan import (
    BatchResult,
    FTPlan,
    PlanCacheInfo,
    clear_plan_cache,
    plan,
    plan_cache_info,
    set_plan_cache_limit,
)

__all__ = [
    "FTConfig",
    "SCHEME_KINDS",
    "legacy_scheme_names",
    "BatchResult",
    "FTPlan",
    "PlanCacheInfo",
    "clear_plan_cache",
    "plan",
    "plan_cache_info",
    "set_plan_cache_limit",
    "FTScheme",
    "OptimizationFlags",
    "SchemeResult",
    "ChecksumPair",
    "MemoryChecksumVectors",
    "computational_weights",
    "input_checksum_weights",
    "input_checksum_weights_naive",
    "locate_single_error",
    "memory_weights_classic",
    "memory_weights_modified",
    "omega3",
    "weighted_sum",
    "SchemeConstants",
    "RoundoffModel",
    "ThresholdPolicy",
    "CorrectionRecord",
    "FTReport",
    "VerificationRecord",
    "dmr_elementwise",
    "dmr_scalar",
    "PlainFFT",
    "OfflineABFT",
    "OnlineABFT",
    "OptimizedOnlineABFT",
]
