"""Verification and correction bookkeeping.

Every protected scheme returns an :class:`FTReport` alongside its output.
The report records each checksum verification (site, residual, threshold,
verdict), each correction action (sub-FFT recomputation, memory-element
repair, DMR vote), and whether anything remained uncorrectable.  Campaigns
and benchmarks read these records to build the paper's fault tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.telemetry import metrics as _metrics
from repro.telemetry import trace as _trace

__all__ = ["VerificationRecord", "CorrectionRecord", "FTReport"]


@dataclass(frozen=True)
class VerificationRecord:
    """One checksum comparison."""

    site: str
    index: Optional[int]
    residual: float
    threshold: float
    detected: bool


@dataclass(frozen=True)
class CorrectionRecord:
    """One corrective action taken by a scheme."""

    kind: str  # "recompute", "memory-correct", "dmr-vote", "restart"
    site: str
    index: Optional[int]
    detail: str = ""


@dataclass
class FTReport:
    """Aggregated fault-tolerance activity of one protected execution."""

    scheme: str = ""
    verifications: List[VerificationRecord] = field(default_factory=list)
    corrections: List[CorrectionRecord] = field(default_factory=list)
    uncorrectable: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # recording helpers
    # ------------------------------------------------------------------
    def record_verification(
        self,
        site: str,
        index: Optional[int],
        residual: float,
        threshold: float,
        detected: bool,
    ) -> VerificationRecord:
        record = VerificationRecord(site, index, float(residual), float(threshold), bool(detected))
        self.verifications.append(record)
        # Process-wide telemetry rides on the same choke points every scheme
        # already funnels through, so no execution path can under-report:
        # volume counters mirror from bump() (which the vectorized batch
        # paths call in bulk), fault events from the record_* methods.
        # merge() folds raw lists/counters and never re-enters either, so
        # merged per-rank reports count exactly once.
        self.bump("verifications")
        scheme = self.scheme or "unlabelled"
        if detected:
            _metrics.inc("abft_detected", site=site, scheme=scheme)
            if _trace.active:
                _trace.emit(
                    "threshold-violation",
                    site=site,
                    index=index,
                    residual=float(residual),
                    threshold=float(threshold),
                    scheme=scheme,
                )
        return record

    def record_correction(self, kind: str, site: str, index: Optional[int], detail: str = "") -> CorrectionRecord:
        record = CorrectionRecord(kind, site, index, detail)
        self.corrections.append(record)
        self.bump(f"corrections::{kind}")
        self.bump("corrections")
        scheme = self.scheme or "unlabelled"
        _metrics.inc("abft_corrected", kind=kind, site=site, scheme=scheme)
        if index is not None:
            # A concrete index means the locating pair (or DMR vote)
            # pinpointed the faulty element, not just the faulty pass.
            _metrics.inc("abft_located", site=site, scheme=scheme)
        if kind == "restart":
            _metrics.inc("abft_retries", site=site, scheme=scheme)
        if _trace.active:
            _trace.emit(
                "repair",
                kind=kind,
                site=site,
                index=index,
                detail=detail,
                scheme=scheme,
            )
        return record

    def record_uncorrectable(self, message: str) -> None:
        self.uncorrectable.append(message)
        self.bump("uncorrectable")
        scheme = self.scheme or "unlabelled"
        _metrics.inc("abft_uncorrectable", scheme=scheme)
        if _trace.active:
            _trace.emit("uncorrectable", message=message, scheme=scheme)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount
        # The verification *volume* counters mirror into the registry here
        # rather than in record_verification: the vectorized batch paths
        # bump whole-batch amounts without materializing per-row records,
        # and this choke point sees both.  Per-site labels live on the
        # event counters (abft_detected / abft_corrected / ...), which only
        # the record_* methods feed.
        if counter == "verifications":
            _metrics.inc("abft_verifications", amount, scheme=self.scheme or "unlabelled")
        elif counter == "memory-verifications":
            _metrics.inc(
                "abft_memory_verifications", amount, scheme=self.scheme or "unlabelled"
            )

    def merge(self, other: "FTReport") -> None:
        """Fold another report (e.g. from a per-rank execution) into this one."""

        self.verifications.extend(other.verifications)
        self.corrections.extend(other.corrections)
        self.uncorrectable.extend(other.uncorrectable)
        self.notes.extend(other.notes)
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def detected(self) -> bool:
        """Whether any verification flagged an error."""

        return any(v.detected for v in self.verifications)

    @property
    def detection_count(self) -> int:
        return sum(1 for v in self.verifications if v.detected)

    @property
    def corrected(self) -> bool:
        """Whether at least one corrective action was taken and nothing was left broken."""

        return bool(self.corrections) and not self.uncorrectable

    @property
    def correction_count(self) -> int:
        return len(self.corrections)

    @property
    def recompute_count(self) -> int:
        return self.counters.get("corrections::recompute", 0) + self.counters.get("corrections::restart", 0)

    @property
    def memory_correction_count(self) -> int:
        return self.counters.get("corrections::memory-correct", 0)

    @property
    def dmr_correction_count(self) -> int:
        return self.counters.get("corrections::dmr-vote", 0)

    @property
    def clean(self) -> bool:
        """True when no error was detected and nothing was corrected."""

        return not self.detected and not self.corrections and not self.uncorrectable

    @property
    def has_uncorrectable(self) -> bool:
        return bool(self.uncorrectable)

    def summary(self) -> Dict[str, int]:
        return {
            # the counter, not len(verifications): the protected kernel
            # counts its clean checks without recording them
            "verifications": self.counters.get("verifications", 0),
            "detections": self.detection_count,
            "corrections": len(self.corrections),
            "recomputations": self.recompute_count,
            "memory_corrections": self.memory_correction_count,
            "dmr_corrections": self.dmr_correction_count,
            "uncorrectable": len(self.uncorrectable),
        }
