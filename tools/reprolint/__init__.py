"""reprolint: AST-based invariant checker for the repro codebase.

The repository's correctness rests on a handful of contracts that unit
tests only probe pointwise: hot-path stage programs must not allocate,
shared LRU caches must only be mutated under their locks, plan-time
dataclasses stay frozen, capability-gated program paths stay behind their
guards, and ``numpy.fft`` stays confined to the backend registry.  This
package turns each contract into a machine-checked rule:

``hotpath-alloc``
    ``execute*`` / ``transform*`` / ``*_into`` / ``*_overwrite`` functions
    in the executor, real-transform, and FTPlan fast paths may not call
    allocating constructors.
``lock-discipline``
    module- or class-level mutable containers and counters, in scopes that
    declare a ``threading.Lock``/``RLock``, may only be mutated inside a
    ``with <lock>:`` block.
``frozen-object``
    no attribute assignment on instances of ``@dataclass(frozen=True)``
    plan-time objects outside their own ``__init__``/``__post_init__``.
``capability-guard``
    calls into ``get_stockham_program`` / ``get_native_kernels`` /
    ``execute_inplace`` must be dominated by the matching capability
    guard (``stockham_supported``, ``supports_inplace``,
    ``native_supported``, ``hasattr``, ``is not None``, ...).
``fft-boundary``
    ``numpy.fft`` may only be touched by ``fftlib/backends.py`` and tests.

A violation is silenced with a same-line (or preceding-line) waiver
comment naming the rule: ``# reprolint: alloc-ok - <why>``.  Run it as
``python -m reprolint src tests benchmarks`` from the repository root.
"""

from __future__ import annotations

from reprolint.engine import FileContext, Project, Violation, scan_paths

__all__ = ["FileContext", "Project", "Violation", "scan_paths"]

__version__ = "0.1.0"
