"""Declarative scheme configuration: :class:`FTConfig`.

Protection schemes are named by registry strings (``"opt-online+mem"``).
``FTConfig`` is the single frozen, validated, *hashable* description of a
protected transform behind those names:

* ``kind`` / ``optimized`` / ``memory_ft`` select the algorithm (the nine
  legacy registry names are exactly the reachable combinations),
* ``m`` / ``k`` pin the two-layer factors,
* ``thresholds`` / ``flags`` carry the detection policy and the Section 4
  optimization toggles,
* ``dtype`` selects the output precision,
* ``backend`` selects the raw sub-FFT kernel
  (:mod:`repro.fftlib.backends`).

Because the dataclass is frozen and every field is hashable, ``(n, config)``
is directly usable as a plan-cache key - which is what
:func:`repro.core.ftplan.plan` does.  :meth:`FTConfig.from_name` /
:meth:`FTConfig.to_name` convert to and from the registry strings, the one
name grammar of the CLI, the serve protocol, and saved benchmark
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace as _dc_replace
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import FTScheme, OptimizationFlags
from repro.core.offline import OfflineABFT
from repro.core.online import OnlineABFT
from repro.core.optimized import OptimizedOnlineABFT
from repro.core.plain import PlainFFT
from repro.core.thresholds import ThresholdPolicy

__all__ = ["SCHEME_KINDS", "FTConfig", "legacy_scheme_names"]

#: The algorithm families a config can select.
SCHEME_KINDS = ("plain", "offline", "online")

#: Output dtypes the plan API supports (execution is always complex128
#: internally; complex64 halves the memory of stored batched results).
_SUPPORTED_DTYPES = ("complex64", "complex128")

#: Legacy registry name -> (kind, optimized, memory_ft), in the order the
#: registry historically listed them (``legacy_scheme_names`` preserves it).
_NAME_TO_TRIPLE: Dict[str, Tuple[str, bool, bool]] = {
    "fftw": ("plain", False, False),
    "offline": ("offline", False, False),
    "opt-offline": ("offline", True, False),
    "offline+mem": ("offline", False, True),
    "opt-offline+mem": ("offline", True, True),
    "online": ("online", False, False),
    "opt-online": ("online", True, False),
    "online+mem": ("online", False, True),
    "opt-online+mem": ("online", True, True),
}

_TRIPLE_TO_NAME = {triple: name for name, triple in _NAME_TO_TRIPLE.items()}

#: Sub-FFT backends expressible as a name flag (``"opt-online+mem+numpy"``).
#: These are the two stdlib-registered backends; custom backends registered
#: through :func:`repro.fftlib.backends.register_backend` remain a
#: programmatic knob (``FTConfig(backend=...)``) without a name flag.
_BACKEND_FLAGS = ("numpy", "fftlib")


def legacy_scheme_names() -> Sequence[str]:
    """The registry names accepted by :meth:`FTConfig.from_name`."""

    return tuple(_NAME_TO_TRIPLE.keys())


@dataclass(frozen=True)
class FTConfig:
    """Frozen, validated description of one protected-transform setup.

    The default configuration is the paper's shipping scheme: the fully
    optimized online ABFT with memory fault tolerance
    (``opt-online+mem``).

    Attributes
    ----------
    kind:
        ``"plain"`` (unprotected baseline), ``"offline"`` (Algorithm 1), or
        ``"online"`` (Algorithm 2 / Fig. 3).
    optimized:
        Apply the Section 4 optimizations (offline: optimized encoding;
        online: the :class:`OptimizedOnlineABFT` scheme).  Must be ``False``
        for ``kind="plain"``.
    memory_ft:
        Enable the memory fault-tolerance hierarchy.  Must be ``False`` for
        ``kind="plain"``.
    m, k:
        Optional explicit two-layer factors (``n = m * k``; checked against
        ``n`` at plan time).
    thresholds:
        Detection-threshold policy (``None`` = scheme default).
    flags:
        Optimization/ablation toggles.  For offline schemes the
        ``group_size`` / ``max_retries`` members are honoured; the rest only
        apply to online schemes.
    dtype:
        Output dtype, ``"complex128"`` (default) or ``"complex64"``.
        Execution is always double precision internally.
    backend:
        Sub-FFT kernel registry name (``None`` = process default; see
        :mod:`repro.fftlib.backends`).  The two stdlib backends carry a
        legacy-name flag (``"opt-online+mem+numpy"`` /
        ``"opt-online+mem+fftlib"``), so name-driven surfaces (the CLI,
        the serve daemon) can select the pocketfft substrate explicitly.
    real:
        Real-input mode: the plan consumes ``n`` float64 samples and
        produces the packed ``n//2 + 1`` half-complex spectrum
        (``numpy.fft.rfft`` layout), protected with conjugate-even checksum
        weights so detection/correction work directly on the packed layout.
        Legacy registry names carry the flag as a ``+real`` suffix
        (``"opt-online+mem+real"``).
    inplace:
        In-place execution (the paper's Section 5 discipline): the plan
        lowers the Stockham autosort program where the size supports it,
        and ``FTPlan.execute``/``execute_many`` accept an ``out=`` buffer
        that is *overwritten* - the input is destroyed mid-transform, so
        recovery runs from the checksum-carried surrogate (the locating
        pair re-encoded onto the output side) instead of re-executing.
        Legacy registry names carry the flag as a ``+ip`` suffix
        (``"opt-online+mem+ip"``; composes as ``"...+real+ip"``).

    There is no kernel-tier field: fftlib plans always lower to the
    executor's default programs, which run the generated-C stage bodies
    (:mod:`repro.fftlib.native`) where they measure faster and the NumPy
    bodies elsewhere.  A legacy ``+native`` name suffix still parses, to
    the same config as the name without it.
    """

    kind: str = "online"
    optimized: bool = True
    memory_ft: bool = True
    m: Optional[int] = None
    k: Optional[int] = None
    thresholds: Optional[ThresholdPolicy] = None
    flags: Optional[OptimizationFlags] = None
    dtype: str = "complex128"
    backend: Optional[str] = None
    real: bool = False
    inplace: bool = False

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(
                f"unknown scheme kind {self.kind!r}; expected one of {', '.join(SCHEME_KINDS)}"
            )
        if self.kind == "plain" and (self.optimized or self.memory_ft):
            raise ValueError(
                "kind='plain' is the unprotected baseline; it has no "
                "optimized or memory_ft variants"
            )
        for label, value in (("m", self.m), ("k", self.k)):
            if value is not None:
                if int(value) != value or value <= 0:
                    raise ValueError(f"{label} must be a positive integer, got {value!r}")
                object.__setattr__(self, label, int(value))
        normalized = np.dtype(self.dtype).name
        if normalized not in _SUPPORTED_DTYPES:
            raise ValueError(
                f"unsupported dtype {self.dtype!r}; expected one of {', '.join(_SUPPORTED_DTYPES)}"
            )
        object.__setattr__(self, "dtype", normalized)
        if self.thresholds is not None and not isinstance(self.thresholds, ThresholdPolicy):
            raise TypeError("thresholds must be a ThresholdPolicy (or None)")
        if self.flags is not None and not isinstance(self.flags, OptimizationFlags):
            raise TypeError("flags must be OptimizationFlags (or None)")
        object.__setattr__(self, "real", bool(self.real))
        object.__setattr__(self, "inplace", bool(self.inplace))

    def __hash__(self) -> int:
        # plan() hashes its cache key on every hit; the fields are frozen,
        # so they are hashed once (the tuple the generated __hash__ hashes).
        cached: Optional[int] = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        # str hashes differ between processes: a copy hashes itself afresh
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    # ------------------------------------------------------------------
    # legacy-name conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_name(cls, name: str, **overrides: Any) -> "FTConfig":
        """Build a config from a legacy registry name.

        A ``+real`` suffix selects the packed real-input transform
        (``"opt-online+mem+real"``), a ``+ip`` suffix in-place execution
        (``"opt-online+mem+ip"``), a ``+numpy`` / ``+fftlib`` suffix the
        sub-FFT backend (``"opt-online+mem+numpy"`` runs the checksummed
        pipeline on pocketfft); they compose as ``"...+real+ip+numpy"``.
        A trailing ``+native`` (the retired kernel-tier flag) is accepted
        and ignored, so old names select the same kernels as before.
        ``overrides`` set any other field (``m``, ``k``, ``thresholds``,
        ``flags``, ``dtype``, ``backend``, ``real``, ``inplace``).  An
        unknown name raises ``KeyError``.
        """

        base = name.removesuffix("+native")
        for backend_flag in _BACKEND_FLAGS:
            if base.endswith("+" + backend_flag):
                base = base[: -len(backend_flag) - 1]
                if overrides.get("backend") is None:
                    overrides["backend"] = backend_flag
                break
        # A flag suffix wins over the unset sentinels (the CLI forwards
        # real=False verbatim); only an explicit True override is redundant.
        if base.endswith("+ip"):
            base = base[: -len("+ip")]
            if not overrides.get("inplace"):
                overrides["inplace"] = True
        if base.endswith("+real"):
            base = base[: -len("+real")]
            if not overrides.get("real"):
                overrides["real"] = True
        triple = _NAME_TO_TRIPLE.get(base)
        if triple is None:
            raise KeyError(
                f"unknown scheme {name!r}; available: {', '.join(_NAME_TO_TRIPLE)}"
            )
        kind, optimized, memory_ft = triple
        return cls(kind=kind, optimized=optimized, memory_ft=memory_ft, **overrides)

    def to_name(self) -> str:
        """The legacy registry name selecting this algorithm combination."""

        name = _TRIPLE_TO_NAME[(self.kind, self.optimized, self.memory_ft)]
        if self.real:
            name += "+real"
        if self.inplace:
            name += "+ip"
        # Only the stdlib-registered backends have name flags; a custom
        # registered backend stays a programmatic-only knob, like dtype.
        if self.backend in _BACKEND_FLAGS:
            name += f"+{self.backend}"
        return name

    def replace(self, **changes: Any) -> "FTConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""

        return _dc_replace(self, **changes)

    # ------------------------------------------------------------------
    # scheme construction
    # ------------------------------------------------------------------
    def build(self, n: int, **extra: Any) -> FTScheme:
        """Instantiate the scheme this config describes for size ``n``.

        ``extra`` keyword arguments are forwarded to the scheme constructor
        verbatim (after the config-derived ones), so
        ``FTConfig.from_name(name).build(n, **kwargs)`` builds a scheme by
        registry name.
        """

        kwargs: Dict[str, Any] = {
            "m": self.m,
            "k": self.k,
            "thresholds": self.thresholds,
            "backend": self.backend,
            "real": self.real,
        }
        if self.kind == "plain":
            if self.flags is not None:
                kwargs["group_size"] = self.flags.group_size
            kwargs.update(extra)
            m = kwargs.pop("m")
            k = kwargs.pop("k")
            return PlainFFT(n, m, k, **kwargs)
        if self.kind == "offline":
            kwargs["optimized"] = self.optimized
            kwargs["memory_ft"] = self.memory_ft
            if self.flags is not None:
                kwargs["group_size"] = self.flags.group_size
                kwargs["max_retries"] = self.flags.max_retries
            kwargs.update(extra)
            m = kwargs.pop("m")
            k = kwargs.pop("k")
            return OfflineABFT(n, m, k, **kwargs)
        cls = OptimizedOnlineABFT if self.optimized else OnlineABFT
        kwargs["memory_ft"] = self.memory_ft
        kwargs["flags"] = self.flags
        kwargs.update(extra)
        m = kwargs.pop("m")
        k = kwargs.pop("k")
        return cls(n, m, k, **kwargs)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"kind={self.kind}"]
        if self.kind != "plain":
            parts.append(f"optimized={self.optimized}")
            parts.append(f"memory_ft={self.memory_ft}")
        if self.m is not None or self.k is not None:
            parts.append(f"m={self.m}, k={self.k}")
        if self.real:
            parts.append("real=True")
        if self.inplace:
            parts.append("inplace=True")
        if self.dtype != "complex128":
            parts.append(f"dtype={self.dtype}")
        if self.backend is not None:
            parts.append(f"backend={self.backend}")
        return f"FTConfig({', '.join(parts)})"
