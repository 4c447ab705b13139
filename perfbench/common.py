"""Shared helpers: checkout discovery, statistics, counters, op accounting,
and the machine fingerprint every result is stamped with."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import sys
from pathlib import Path

#: an op's output may differ from the numpy reference by at most this much,
#: relative to the reference's largest magnitude
MAX_REL_ERROR = 1e-8

#: run-time files (unix sockets, the kernel cache, traces) live here, inside
#: the checkout; the directory is listed in the root .gitignore
RUN_DIR = ".perfbench"


def checkout_root() -> Path:
    """The checkout under measurement: the parent of this directory.

    Refuses to run when the checkout holds no program sources, so a copy of
    the benchmark alone can never measure some other installed ``repro``.
    """

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {root} holds no src/repro; run it from a full checkout")
    return root


def use_checkout(root: Path) -> None:
    """Work in ``root`` and import the program from ``root/src`` only.

    Children inherit the same working directory and ``PYTHONPATH``.
    ``XDG_CACHE_HOME`` moves the program's on-disk caches (the native kernel
    cache, which ``/stats`` probes) into the checkout, so the benchmark
    writes nowhere else.  No ``REPRO_*`` or BLAS variable is set: the
    program runs as a user runs it.
    """

    os.chdir(root)
    src = str(root / "src")
    sys.path.insert(0, src)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    run_dir = root / RUN_DIR
    run_dir.mkdir(exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(run_dir / "cache")
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def within_tolerance(output, reference) -> bool:
    """Whether the largest elementwise error, relative to the reference's
    largest magnitude, is at most ``MAX_REL_ERROR`` (a NaN error is not)."""

    import numpy as np

    error = np.max(np.abs(np.asarray(output) - reference)) / np.max(np.abs(reference))
    return bool(error <= MAX_REL_ERROR)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""

    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def counter_totals(counters) -> dict:
    """Counter totals by name, summed over labels.

    Accepts the in-process ``repro.telemetry.counters()`` mapping (keys are
    ``(name, labels)``) and the daemon's ``/stats`` ``counters`` mapping
    (keys are rendered ``name{labels}`` strings).
    """

    totals: dict = {}
    for key, value in counters.items():
        name = key[0] if isinstance(key, tuple) else key.split("{", 1)[0]
        totals[name] = totals.get(name, 0) + value
    return totals


def delta(after: dict, before: dict, name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""

    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Tally:
    """Timed ops of one phase and their failure accounting."""

    def __init__(self) -> None:
        #: (end time, latency, faulty, input index) of every op that returned
        self.records: list = []
        self.failures: dict = {}
        self.attempted = 0
        self.armed = 0
        self.fired = 0

    @property
    def failed(self) -> int:
        """Ops that failed, each counted once whatever its reasons."""

        return self.failures.get("ops", 0)

    def fail(self, reasons) -> None:
        self.failures["ops"] = self.failures.get("ops", 0) + 1
        for reason in reasons:
            self.failures[reason] = self.failures.get(reason, 0) + 1

    def add(self, other: "Tally") -> "Tally":
        self.records += other.records
        for reason, count in other.failures.items():
            self.failures[reason] = self.failures.get(reason, 0) + count
        self.attempted += other.attempted
        self.armed += other.armed
        self.fired += other.fired
        return self


# On a shared 2-vCPU Intel Xeon host, each vCPU switches every second or so
# between stretches where small numpy calls run ~1.7x slower and stretches
# where they do not (numpy.fft at n=1024: 14 or 24 us, CPU time equal to wall
# time in both), and how much of a run falls in slow stretches varies from
# run to run.  A run is therefore cut into windows, and its timings come from the
# faster half of them: the stretches where the program, not its neighbours,
# sets the pace.
WINDOW_S = 1.0
KEPT_SHARE = 0.5


def window_of(end: float, start: float, seconds: float) -> int:
    """The window an op ending at ``end`` belongs to; ops finishing after the
    last full window count toward it."""

    return min(int((end - start) / WINDOW_S), max(int(seconds / WINDOW_S), 1) - 1)


def latency_stats(records: list) -> dict:
    """Fault-free latency percentiles and the faulty ops' median, in ms."""

    clean = [latency for _, latency, faulty, _ in records if not faulty]
    return {
        "latency_p50_ms": median(clean) * 1e3,
        "latency_p90_ms": percentile(clean, 90) * 1e3,
        "latency_p99_ms": percentile(clean, 99) * 1e3,
        "samples": len(clean),
        "recovery_p50_ms": median([r[1] for r in records if r[2]]) * 1e3,
    }


def least_contended(records: list, start: float, seconds: float) -> list:
    """The fault-free records of the windows with the lowest median
    fault-free latency, and the faulty records of the windows with the
    lowest median faulty latency.

    Each kind of op picks its own windows.  A faulty op takes the scheme
    path, mostly small numpy calls in Python loops, and a fault-free op the
    fused program's large calls; the host does not slow the two in the
    same stretches, so windows ranked by fault-free ops alone would keep a
    share of slowed faulty ops that varies from run to run.
    """

    kept: list = []
    for faulty in (False, True):
        windows: dict = {}
        for record in records:
            if record[2] == faulty:
                windows.setdefault(window_of(record[0], start, seconds), []).append(record)
        # a window holding only stragglers from a neighbouring one is no sample
        full = max(len(members) for members in windows.values()) / 2
        speeds = {
            window: median([record[1] for record in members])
            for window, members in windows.items()
            if len(members) >= full
        }
        ranked = sorted(speeds, key=speeds.get)
        for window in ranked[: max(1, round(len(ranked) * KEPT_SHARE))]:
            kept += windows[window]
    return kept


# ----------------------------------------------------------------------
# machine fingerprint
# ----------------------------------------------------------------------

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """The BLAS numpy links and the thread count it actually uses."""

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = str(blas.get("name"))
        info["version"] = str(blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted(set(re.findall(r"(/\S*blas\S*\.so\S*)", handle.read())))
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = int(function())
                return info
    return info


def fingerprint() -> dict:
    """What a result depends on besides the code: host, runtime and environment."""

    import numpy as np

    env_names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CC")
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "c_compiler": next(
            (cc for cc in (os.environ.get("CC"), "cc", "gcc", "clang") if cc and shutil.which(cc)),
            None,
        ),
        "env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_") or name in env_names
        },
    }


def fingerprint_id(stamp: dict) -> str:
    return hashlib.sha256(json.dumps(stamp, sort_keys=True).encode()).hexdigest()[:12]


def compare_fingerprint(root: Path, current: dict) -> list:
    """Record ``current`` in the checkout; return the fields that differ from
    the fingerprint of the previous run there (empty when comparable)."""

    path = root / RUN_DIR / "fingerprint.json"
    differs: list = []
    if path.is_file():
        previous = json.loads(path.read_text(encoding="utf-8"))
        fields = set(previous) | set(current)
        differs = sorted(k for k in fields if previous.get(k) != current.get(k))
    path.write_text(json.dumps(current, sort_keys=True), encoding="utf-8")
    return differs
