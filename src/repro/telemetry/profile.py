"""Stage-level timing profiles: the data types behind ``FTPlan.profile(x)``.

A profile is one *timed* execution broken into labelled phases: the base
kernel, each lowered combine stage, the checksum encode pass, and the tap
verification of a protected plan.  The timing instrumentation lives on the
program objects themselves (:meth:`repro.fftlib.executor.StageProgram.
profile`, :meth:`repro.core.ftplan.FTPlan.profile`); this module only holds
the result containers and the text rendering the ``repro profile`` CLI
prints, so it stays stdlib-only and import-cycle-free.

Profiling deliberately runs *outside* the hot-path contract: a profiled
execution may allocate, lock, and format freely - it is a diagnostic run,
never the steady-state path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple

__all__ = ["ProfileEntry", "ProfileResult"]


@dataclass(frozen=True)
class ProfileEntry:
    """One timed phase of a profiled execution."""

    label: str
    seconds: float


@dataclass(frozen=True)
class ProfileResult:
    """The per-phase breakdown of one profiled execution."""

    n: int
    description: str
    entries: Tuple[ProfileEntry, ...]
    total_seconds: float
    #: the profiled execution's output (so a profile run is still a
    #: usable transform); excluded from equality and repr.
    output: Any = field(default=None, compare=False, repr=False)

    def format(self) -> str:
        """Human-readable per-phase table (what ``repro profile`` prints)."""

        lines: List[str] = [self.description]
        width = max((len(e.label) for e in self.entries), default=0)
        denom = self.total_seconds if self.total_seconds > 0 else 1.0
        for entry in self.entries:
            share = 100.0 * entry.seconds / denom
            lines.append(
                f"  {entry.label.ljust(width)}  {entry.seconds * 1e6:12.1f} us  {share:5.1f}%"
            )
        lines.append(
            f"  {'total'.ljust(width)}  {self.total_seconds * 1e6:12.1f} us  100.0%"
        )
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()
