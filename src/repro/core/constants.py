"""Plan-time ABFT constants: the :class:`SchemeConstants` bundle.

Every checksum weight vector the schemes use is a pure function of the
transform size and the configuration - the computational vector ``r``
(powers of ``omega_p``, ``p = 3`` unless 3 divides the size), the
closed-form/naive input checksum encodings
``rA``, the classic and modified memory-locating pairs, and the RMS
magnitudes the threshold policy derives from the weight vectors.  The seed
rebuilt all of them on *every* ``run()``; this module computes them exactly
once per plan (``FTPlan.__init__`` builds one bundle and threads it into the
scheme it constructs; schemes built directly create their own).

Fault-injection semantics are preserved: when a *live* injector is present,
the online schemes still regenerate their ``rA`` vectors under DMR so the
``CHECKSUM_COMPUTE`` fault site behaves exactly as in the paper (and as in
the seed).  A fault-free run uses the bundle in place of that regeneration
- and because every vector is produced by the same deterministic
expressions the schemes used per-run, the fault-free results are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from repro.core.checksums import (
    MemoryChecksumVectors,
    computational_weights,
    halfcomplex_weights,
    input_checksum_weights,
    input_checksum_weights_naive,
    memory_weights_classic,
    memory_weights_modified,
)
from repro.fftlib.two_layer import TwoLayerDecomposition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config builds schemes)
    from repro.core.config import FTConfig

__all__ = ["SchemeConstants", "weight_rms"]


def weight_rms(weights: Optional[np.ndarray]) -> float:
    """RMS magnitude of a weight vector (the threshold policy's input).

    Matches the expression inside
    :meth:`repro.core.thresholds.ThresholdPolicy.eta_memory` exactly so that
    precomputed values are bit-identical to per-call ones.
    """

    if weights is None:
        return 0.0
    weights = np.asarray(weights)
    n = weights.shape[0]
    return float(np.sqrt(np.mean(np.abs(weights) ** 2))) if n else 0.0


@dataclass(frozen=True, eq=False)
class SchemeConstants:
    """Frozen, data-independent state of one protected transform.

    Built once at plan time by :meth:`for_config` (or the scheme-specific
    constructors below); fields that a configuration does not need are
    ``None``.  Arrays must be treated as immutable - they are shared between
    the plan, the scheme, and (for the modified pairs) each other.
    """

    n: int
    m: int
    k: int

    # --- per-stage computational checksum vectors (online schemes) -------
    r_m: Optional[np.ndarray] = None
    c_m: Optional[np.ndarray] = None
    r_k: Optional[np.ndarray] = None
    c_k: Optional[np.ndarray] = None

    # --- end-to-end vectors (offline scheme, batched protection) ---------
    r_n: Optional[np.ndarray] = None
    c_n: Optional[np.ndarray] = None

    # --- memory-locating pairs -------------------------------------------
    #: input columns (length m)
    w1_m: Optional[np.ndarray] = None
    w2_m: Optional[np.ndarray] = None
    #: output rows (length k)
    w1_k: Optional[np.ndarray] = None
    w2_k: Optional[np.ndarray] = None
    #: classic pair for the incrementally built row checksums (length k)
    u1_k: Optional[np.ndarray] = None
    u2_k: Optional[np.ndarray] = None
    #: end-to-end pair (length n)
    w1_n: Optional[np.ndarray] = None
    w2_n: Optional[np.ndarray] = None
    #: naive-scheme helper objects (classic weights + locate/correct)
    mem_m: Optional[MemoryChecksumVectors] = None
    mem_k: Optional[MemoryChecksumVectors] = None

    # --- precomputed threshold inputs (weight-vector RMS magnitudes) -----
    w1_m_rms: float = 0.0
    w1_k_rms: float = 0.0
    u1_k_rms: float = 0.0
    w1_n_rms: float = 0.0

    # --- real-input (packed half-complex) transform state ----------------
    #: the transform consumes n real samples and returns bins = n//2 + 1
    real: bool = False
    bins: int = 0
    #: conjugate-even fold of ``r_n`` onto the packed layout:
    #: ``r . X_full == hc_a . P + hc_b . conj(P)`` (so the closed-form rA
    #: input encodings keep working unchanged on real data)
    hc_a: Optional[np.ndarray] = None
    hc_b: Optional[np.ndarray] = None
    #: locating pair over the packed spectrum itself (output memory FT)
    p1_h: Optional[np.ndarray] = None
    p2_h: Optional[np.ndarray] = None
    p1_h_rms: float = 0.0
    #: interior verification of the compiled real fast path (even n only):
    #: the computational/input checksum pair of the cached *half-length*
    #: complex sub-transform, so ``c_h . z = r_h . Z`` is checked before the
    #: disentangle pass - faults are caught mid-pipeline, not only
    #: end-to-end.
    r_h: Optional[np.ndarray] = None
    c_h: Optional[np.ndarray] = None

    # --- in-place (overwrite) execution state ----------------------------
    #: the checksum-carried input surrogate of the in-place path: with
    #: ``F`` the (symmetric) DFT matrix, ``w1 . X == (F w1) . x``, so
    #: encoding ``(F w1) . x`` and ``(F w2) . x`` *before* the transform
    #: destroys the input yields the locating pair of the OUTPUT - a
    #: detected single-element corruption of the overwritten buffer is
    #: located and repaired without ever re-reading the (gone) input,
    #: the paper's Fig. 4 backup discipline carried by checksums instead
    #: of copies.  ``fw1_n``/``fw2_n`` are ``F w1_n``/``F w2_n`` (one
    #: compiled FFT each at plan time).
    inplace: bool = False
    fw1_n: Optional[np.ndarray] = None
    fw2_n: Optional[np.ndarray] = None
    #: the same carried pair for real plans, folded onto the packed
    #: ``n//2 + 1`` layout: ``p1_h . P == (F [p1_h; 0]) . x`` with the
    #: packed weights zero-extended to length ``n``.
    fp1_h: Optional[np.ndarray] = None
    fp2_h: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def with_real(self, memory_ft: bool, *, optimized: bool = True) -> "SchemeConstants":
        """This bundle extended with the packed-layout (rfft) vectors.

        Folds the end-to-end computational vector onto the ``n//2 + 1``
        layout and, with memory fault tolerance, adds a classic locating
        pair defined directly on the packed spectrum (the weights must be a
        function of the *stored* layout for single-bin location to work).
        Even sizes also get the half-length interior pair ``(r_h, c_h)``
        used by the compiled fast path's mid-pipeline verification, with
        the encoding (closed-form vs naive) matching ``optimized``.
        """

        bins = self.n // 2 + 1
        r_n = self.r_n if self.r_n is not None else computational_weights(self.n)
        hc_a, hc_b = halfcomplex_weights(r_n)
        p1_h = p2_h = None
        p1_h_rms = 0.0
        if memory_ft:
            p1_h, p2_h = memory_weights_classic(bins)
            p1_h_rms = weight_rms(p1_h)
        r_h = c_h = None
        if self.n % 2 == 0 and self.n > 2:
            half = self.n // 2
            r_h = computational_weights(half)
            encode = input_checksum_weights if optimized else input_checksum_weights_naive
            c_h = encode(half)
        return replace(
            self,
            real=True,
            bins=bins,
            r_n=r_n,
            hc_a=hc_a,
            hc_b=hc_b,
            p1_h=p1_h,
            p2_h=p2_h,
            p1_h_rms=p1_h_rms,
            r_h=r_h,
            c_h=c_h,
        )

    # ------------------------------------------------------------------
    def with_inplace(self) -> "SchemeConstants":
        """This bundle extended with the in-place carried locating pairs.

        Uses the compiled executor to evaluate ``F w`` once per weight
        vector at plan time (the vectors are data-independent, like every
        other field here).  Without memory fault tolerance there is no
        locating pair to carry, so a detected in-place violation is
        honestly uncorrectable - the input no longer exists to recompute
        from - and the bundle only gains the ``inplace`` marker.
        """

        from repro.fftlib.executor import fft as compiled_fft

        fw1 = fw2 = None
        if self.w1_n is not None and self.w2_n is not None:
            fw1 = compiled_fft(np.asarray(self.w1_n, dtype=np.complex128))
            fw2 = compiled_fft(np.asarray(self.w2_n, dtype=np.complex128))
        fp1 = fp2 = None
        if self.real and self.p1_h is not None and self.p2_h is not None:
            ext1 = np.zeros(self.n, dtype=np.complex128)
            ext1[: self.bins] = self.p1_h
            ext2 = np.zeros(self.n, dtype=np.complex128)
            ext2[: self.bins] = self.p2_h
            fp1 = compiled_fft(ext1)
            fp2 = compiled_fft(ext2)
        return replace(
            self, inplace=True, fw1_n=fw1, fw2_n=fw2, fp1_h=fp1, fp2_h=fp2
        )

    # ------------------------------------------------------------------
    @classmethod
    def for_plain(
        cls, n: int, m: Optional[int] = None, k: Optional[int] = None, *, real: bool = False
    ) -> "SchemeConstants":
        """The (empty) bundle of the unprotected baseline."""

        decomp = TwoLayerDecomposition.for_size(n, m, k)
        bundle = cls(n=decomp.n, m=decomp.m, k=decomp.k)
        return replace(bundle, real=True, bins=decomp.n // 2 + 1) if real else bundle

    @classmethod
    def for_offline(
        cls,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        optimized: bool,
        memory_ft: bool,
        real: bool = False,
    ) -> "SchemeConstants":
        """End-to-end vectors of Algorithm 1 (naive or optimized encoding)."""

        decomp = TwoLayerDecomposition.for_size(n, m, k)
        c_n = input_checksum_weights(n) if optimized else input_checksum_weights_naive(n)
        r_n = computational_weights(n)
        w1_n = w2_n = None
        if memory_ft:
            if optimized:
                # Section 4.1: rA doubles as the first locating vector.
                w1_n, w2_n = memory_weights_modified(n, base=c_n)
            else:
                w1_n, w2_n = memory_weights_classic(n)
        bundle = cls(
            n=decomp.n,
            m=decomp.m,
            k=decomp.k,
            r_n=r_n,
            c_n=c_n,
            w1_n=w1_n,
            w2_n=w2_n,
            w1_n_rms=weight_rms(w1_n),
        )
        return bundle.with_real(memory_ft, optimized=optimized) if real else bundle

    @classmethod
    def for_online(
        cls,
        n: int,
        m: Optional[int] = None,
        k: Optional[int] = None,
        *,
        optimized: bool,
        memory_ft: bool,
        modified_checksums: bool,
        real: bool = False,
    ) -> "SchemeConstants":
        """Per-stage vectors of Algorithm 2 / the Section 4 optimized scheme."""

        decomp = TwoLayerDecomposition.for_size(n, m, k)
        m_, k_ = decomp.m, decomp.k
        encode = input_checksum_weights if optimized else input_checksum_weights_naive
        c_m = encode(m_)
        c_k = encode(k_)
        kwargs: Dict[str, Any] = dict(
            n=decomp.n,
            m=m_,
            k=k_,
            r_m=computational_weights(m_),
            c_m=c_m,
            r_k=computational_weights(k_),
            c_k=c_k,
        )
        if memory_ft:
            if optimized:
                if modified_checksums:
                    w1_m = c_m
                    w2_m = c_m * np.arange(1, m_ + 1, dtype=np.float64)
                    w1_k = c_k
                    w2_k = c_k * np.arange(1, k_ + 1, dtype=np.float64)
                else:
                    w1_m, w2_m = memory_weights_classic(m_)
                    w1_k, w2_k = memory_weights_classic(k_)
                u1_k, u2_k = memory_weights_classic(k_)
                kwargs.update(
                    w1_m=w1_m,
                    w2_m=w2_m,
                    w1_k=w1_k,
                    w2_k=w2_k,
                    u1_k=u1_k,
                    u2_k=u2_k,
                    w1_m_rms=weight_rms(w1_m),
                    w1_k_rms=weight_rms(w1_k),
                    u1_k_rms=weight_rms(u1_k),
                )
            else:
                mem_m = MemoryChecksumVectors(m_, modified=False)
                mem_k = MemoryChecksumVectors(k_, modified=False)
                kwargs.update(
                    mem_m=mem_m,
                    mem_k=mem_k,
                    w1_m_rms=weight_rms(mem_m.w1),
                    w1_k_rms=weight_rms(mem_k.w1),
                )
        bundle = cls(**kwargs)
        return bundle.with_real(memory_ft, optimized=optimized) if real else bundle

    @classmethod
    def for_config(cls, n: int, config: "FTConfig") -> "SchemeConstants":
        """Build the bundle an :class:`~repro.core.config.FTConfig` needs.

        This is what ``FTPlan.__init__`` calls once per plan; the resulting
        bundle is threaded into the scheme constructor and reused for the
        plan's own batched end-to-end protection vectors.
        """

        real = bool(getattr(config, "real", False))
        inplace = bool(getattr(config, "inplace", False))
        if config.kind == "plain":
            return cls.for_plain(n, config.m, config.k, real=real)
        if config.kind == "offline":
            bundle = cls.for_offline(
                n, config.m, config.k,
                optimized=config.optimized,
                memory_ft=config.memory_ft,
                real=real,
            )
            return bundle.with_inplace() if inplace else bundle
        flags = config.flags
        modified = True if flags is None else bool(flags.modified_checksums)
        if not config.optimized:
            modified = False
        bundle = cls.for_online(
            n, config.m, config.k,
            optimized=config.optimized,
            memory_ft=config.memory_ft,
            modified_checksums=modified,
            real=real,
        )
        # The plan's batched end-to-end protection (execute_many) needs the
        # full-length vectors as well; build them with the same rules the
        # offline scheme uses so the two share one bundle.
        end_to_end = cls.for_offline(
            n, config.m, config.k,
            optimized=config.optimized,
            memory_ft=config.memory_ft,
        )
        bundle = replace(
            bundle,
            r_n=end_to_end.r_n,
            c_n=end_to_end.c_n,
            w1_n=end_to_end.w1_n,
            w2_n=end_to_end.w2_n,
            w1_n_rms=end_to_end.w1_n_rms,
        )
        return bundle.with_inplace() if inplace else bundle
