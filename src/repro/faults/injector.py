"""The site-based fault injector.

Protected schemes call :meth:`FaultInjector.visit` at well-defined points of
their execution ("sites"), handing over the live array for that site.  The
injector checks its armed :class:`~repro.faults.models.FaultSpec` list and,
on a match, corrupts one element *in place* and records a
:class:`~repro.faults.models.FaultEvent`.

Keeping injection outside the schemes (rather than corrupting inputs up
front) is what lets the campaigns target the paper's specific scenarios:
"an error strikes the input of the second FFT" (Table 5, e2), "a
computational error strikes one m-point FFT" (Table 1, 1c), "two memory
faults on different processors" (Tables 2-3), and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.faults.bitflip import flip_bit_in_complex, random_high_bit
from repro.faults.models import FaultEvent, FaultKind, FaultSite, FaultSpec
from repro.utils.rng import default_rng

__all__ = ["FaultInjector", "NullInjector"]


class NullInjector:
    """Injector that never fires; used for fault-free runs.

    Schemes accept ``injector=None`` and substitute this object so the hot
    path does not need ``if injector is not None`` checks everywhere.
    ``is_live`` is ``False``: schemes take each part as one group, skip
    the per-sub-FFT visit loops and use their plan-time constants directly,
    because no fault can strike.
    """

    #: no faults can ever fire through this injector
    is_live = False

    events: List[FaultEvent] = []

    def visit(
        self,
        site: FaultSite,
        array: np.ndarray,
        *,
        index: Optional[int] = None,
        rank: Optional[int] = None,
    ) -> bool:
        return False

    @property
    def fired_count(self) -> int:
        return 0

    def reset(self) -> None:  # pragma: no cover - trivial
        pass


@dataclass
class FaultInjector:
    """Armed with a list of fault specs; corrupts visited arrays in place."""

    #: a live injector: schemes must expose every fault site (visit loops,
    #: DMR-recomputed checksum vectors) exactly as the paper's algorithms do
    is_live = True

    specs: List[FaultSpec] = field(default_factory=list)
    rng: Optional[np.random.Generator] = None
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = default_rng()
        self.specs = list(self.specs)

    # ------------------------------------------------------------------
    # arming helpers
    # ------------------------------------------------------------------
    def arm(self, spec: FaultSpec) -> "FaultInjector":
        """Add a spec (chainable)."""

        self.specs.append(spec)
        return self

    def arm_computational(
        self,
        site: FaultSite = FaultSite.STAGE1_COMPUTE,
        *,
        index: Optional[int] = None,
        element: Optional[int] = None,
        magnitude: float = 1.0,
        rank: Optional[int] = None,
    ) -> "FaultInjector":
        """Arm the paper's computational-fault model (add a constant)."""

        return self.arm(
            FaultSpec(
                site=site,
                index=index,
                element=element,
                kind=FaultKind.ADD_CONSTANT,
                magnitude=magnitude,
                rank=rank,
            )
        )

    def arm_memory(
        self,
        site: FaultSite = FaultSite.INTERMEDIATE,
        *,
        index: Optional[int] = None,
        element: Optional[int] = None,
        magnitude: float = 1.0,
        rank: Optional[int] = None,
    ) -> "FaultInjector":
        """Arm the paper's memory-fault model (overwrite with a constant)."""

        return self.arm(
            FaultSpec(
                site=site,
                index=index,
                element=element,
                kind=FaultKind.SET_CONSTANT,
                magnitude=magnitude,
                rank=rank,
            )
        )

    def arm_bitflip(
        self,
        site: FaultSite,
        *,
        index: Optional[int] = None,
        element: Optional[int] = None,
        bit: Optional[int] = None,
        imaginary: bool = False,
        rank: Optional[int] = None,
    ) -> "FaultInjector":
        """Arm a single-bit-flip memory fault (Table 6 methodology)."""

        return self.arm(
            FaultSpec(
                site=site,
                index=index,
                element=element,
                kind=FaultKind.BIT_FLIP,
                bit=bit,
                imaginary=imaginary,
                rank=rank,
            )
        )

    # ------------------------------------------------------------------
    # the hook called by protected schemes
    # ------------------------------------------------------------------
    def visit(
        self,
        site: FaultSite,
        array: np.ndarray,
        *,
        index: Optional[int] = None,
        rank: Optional[int] = None,
    ) -> bool:
        """Possibly corrupt ``array`` in place; return ``True`` if a fault fired.

        ``array`` must be a writable ``complex128`` array; the corrupted
        element is chosen by the matching spec (or at random within the
        array when the spec does not pin one down).
        """

        fired_any = False
        for spec in self.specs:
            if not spec.matches(site, index, rank):
                continue
            self._apply(spec, array, site, index, rank)
            fired_any = True
        return fired_any

    # ------------------------------------------------------------------
    def _apply(
        self,
        spec: FaultSpec,
        array: np.ndarray,
        site: FaultSite,
        index: Optional[int],
        rank: Optional[int],
    ) -> None:
        if array.size == 0:  # pragma: no cover - defensive
            return
        if spec.element is None:
            element = int(self.rng.integers(0, array.size))
        else:
            element = int(spec.element) % array.size
        # Index through the original (possibly non-contiguous view) so the
        # corruption lands in the caller's memory; flattening would silently
        # copy strided views and the "fault" would never be observed.
        location = np.unravel_index(element, array.shape)
        original = complex(array[location])

        # Real-valued layouts (rfft inputs / irfft outputs) store a single
        # component per element; bit flips target that component and the
        # corrupted value is stored without an imaginary part.
        is_real_array = np.isrealobj(array)
        if spec.kind is FaultKind.ADD_CONSTANT:
            corrupted = original + complex(spec.magnitude)
        elif spec.kind is FaultKind.SET_CONSTANT:
            corrupted = complex(spec.magnitude)
        elif spec.kind is FaultKind.BIT_FLIP:
            bit = spec.bit if spec.bit is not None else random_high_bit(self.rng)
            imaginary = spec.imaginary and not is_real_array
            corrupted = flip_bit_in_complex(original, bit, imaginary=imaginary)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown fault kind {spec.kind}")

        array[location] = corrupted.real if is_real_array else corrupted
        spec.fired += 1
        self.events.append(
            FaultEvent(
                site=site,
                index=index,
                element=element,
                kind=spec.kind,
                rank=rank,
                original_value=original,
                corrupted_value=corrupted,
            )
        )

    # ------------------------------------------------------------------
    @property
    def fired_count(self) -> int:
        """Total number of faults that have fired."""

        return len(self.events)

    def reset(self) -> None:
        """Re-arm all specs and clear the event log."""

        for spec in self.specs:
            spec.fired = 0
        self.events.clear()

    @classmethod
    def from_specs(cls, specs: Sequence[FaultSpec], *, seed: Optional[int] = None) -> "FaultInjector":
        return cls(specs=list(specs), rng=default_rng(seed))
