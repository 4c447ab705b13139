"""Rule ``hotpath-alloc``: hot-path stage-program bodies must not allocate.

The paper's low-overhead claim rests on the executor's compiled programs
reusing thread-local scratch instead of allocating per call (PR 5's
tracemalloc test asserts this for one size; this rule asserts the *shape*
for every size).  Functions whose name marks them as hot - ``execute*`` /
``transform*`` prefixes, ``*_into`` / ``*_overwrite`` suffixes - in the
executor, the real-transform module, and the FTPlan transform fast paths
may not:

* call allocating numpy constructors (``np.empty`` / ``zeros`` /
  ``concatenate`` / ``array`` / ``ascontiguousarray`` / ...),
* call ``.copy()`` or ``.astype()`` on anything,
* build list/set/dict literals or comprehensions inside a loop.

The sanctioned escape hatches are the thread-local scratch helpers
(``_work_buffers`` / ``_stockham_scratch``, whose *bodies* are not hot
functions) and an explicit ``# reprolint: alloc-ok - <why>`` waiver for
the handful of boundary allocations (final output buffers, cold fallback
branches) that are part of the contract.

Telemetry emits in hot functions follow the same discipline: an
``emit(...)`` call on a trace alias (``_trace.emit`` / ``trace.emit``)
must be lexically dominated by an ``if`` whose test reads ``.active``, so
the disabled path costs one attribute check and never allocates, locks, or
formats (the :mod:`repro.telemetry.trace` hot-path contract).  The
always-on counters (``_metrics.inc``) are exempt: incrementing a
per-thread shard is lock-free and allocation-free by construction.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from reprolint.engine import FileContext, Project, Violation

RULE = "hotpath-alloc"
WAIVER = "alloc-ok"

#: file -> hot-function name prefixes enforced there.  The ``_into`` /
#: ``_overwrite`` suffixes are hot in every listed file.
HOT_FILES = {
    "src/repro/fftlib/executor.py": ("execute", "transform"),
    # FTPlan's entry points and kernel run the (allocating) protection
    # bookkeeping; only the kernel's transform callables (_transform_*,
    # around the tapped program) are allocation-sensitive.
    "src/repro/core/ftplan.py": ("transform",),
    # The fused protected program: execute_tapped (the plan's program plus
    # the r . X dot) and encode (the c . x dot) are the protected hot path.
    "src/repro/fftlib/protected.py": ("execute", "encode", "transform"),
    # The native-tier ctypes shim: each NativeProgram.execute* is one
    # foreign call plus pointer marshalling - any numpy allocation here
    # would defeat the tier's purpose.
    "src/repro/fftlib/native/kernels.py": ("execute", "transform"),
    # The serve daemon's per-request hot path: frame parse (head JSON +
    # zero-copy payload view; response encodes carry waivers for the one
    # response-buffer copy) and the batch append (dict lookup + two list
    # appends between parse and flush).  Batch *execution* goes through
    # execute_many and is covered by ftplan's entries.
    "src/repro/server/protocol.py": ("parse", "encode"),
    "src/repro/server/batching.py": ("append",),
}
HOT_SUFFIXES = ("_into", "_overwrite")

#: allocating numpy constructors (``asarray`` is deliberately absent: it is
#: the no-copy normalisation idiom and never allocates for conforming input)
NUMPY_ALLOCATORS = frozenset(
    {
        "empty",
        "zeros",
        "ones",
        "full",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
        "array",
        "copy",
        "concatenate",
        "stack",
        "hstack",
        "vstack",
        "column_stack",
        "tile",
        "repeat",
        "ascontiguousarray",
        "asfortranarray",
    }
)

#: allocating methods on any receiver
ALLOCATING_METHODS = frozenset({"copy", "astype"})

NUMPY_ALIASES = frozenset({"np", "numpy"})

#: receiver names an ``emit(...)`` attribute call is treated as telemetry on
TRACE_ALIASES = frozenset({"_trace", "trace"})


def is_hot_function(name: str, prefixes: Tuple[str, ...]) -> bool:
    stripped = name.lstrip("_")
    if any(stripped.startswith(prefix) for prefix in prefixes):
        return True
    return name.endswith(HOT_SUFFIXES)


def _hot_prefixes(ctx: FileContext) -> Tuple[str, ...]:
    for rel, prefixes in HOT_FILES.items():
        if ctx.matches(rel):
            return prefixes
    return ()


def check(ctx: FileContext, project: Project) -> Iterator[Violation]:
    prefixes = _hot_prefixes(ctx)
    if not prefixes:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef) and is_hot_function(node.name, prefixes):
            yield from _check_function(ctx, node)


def _check_function(ctx: FileContext, func: ast.FunctionDef) -> Iterator[Violation]:
    for finding, node in _walk(func, in_loop=False):
        if ctx.waived(WAIVER, node):
            continue
        yield Violation(
            ctx.rel,
            node.lineno,
            RULE,
            f"{finding} in hot function {func.name!r} "
            f"(waive with '# reprolint: {WAIVER} - <why>' or use the "
            f"thread-local scratch helpers)",
        )
    for node in _unguarded_emits(func, guarded=False):
        if ctx.waived(WAIVER, node):
            continue
        yield Violation(
            ctx.rel,
            node.lineno,
            RULE,
            f"unguarded telemetry emit in hot function {func.name!r}: wrap "
            f"in 'if _trace.active:' so the disabled path stays a single "
            f"attribute check (waive with '# reprolint: {WAIVER} - <why>')",
        )


def _walk(node: ast.AST, in_loop: bool) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (description, node) for every allocation under ``node``.

    Tracks loop nesting lexically; nested function definitions are walked
    too (a closure defined in a hot body runs on the hot path).
    """

    children: List[ast.AST] = list(ast.iter_child_nodes(node))
    for child in children:
        child_in_loop = in_loop or isinstance(child, (ast.For, ast.While))
        if isinstance(child, ast.Call):
            label = _allocating_call(child, in_loop)
            if label:
                yield label, child
        elif in_loop and isinstance(
            child, (ast.List, ast.Set, ast.Dict, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            yield f"{_literal_label(child)} inside a loop", child
        yield from _walk(child, child_in_loop)


def _allocating_call(call: ast.Call, in_loop: bool) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        base = func.value
        if (
            isinstance(base, ast.Name)
            and base.id in NUMPY_ALIASES
            and func.attr in NUMPY_ALLOCATORS
        ):
            return f"allocating call {base.id}.{func.attr}(...)"
        if func.attr in ALLOCATING_METHODS:
            return f"allocating method call .{func.attr}(...)"
    elif (
        in_loop
        and isinstance(func, ast.Name)
        and func.id in {"list", "dict", "set", "bytearray"}
    ):
        # container constructors follow the same rule as container
        # literals: per-iteration allocation is what the rule forbids
        return f"allocating constructor {func.id}(...) inside a loop"
    return ""


def _is_emit_call(node: ast.AST) -> bool:
    """Whether ``node`` is a telemetry emit (``_trace.emit(...)`` shape)."""

    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "emit":
        base = func.value
        return isinstance(base, ast.Name) and base.id in TRACE_ALIASES
    return isinstance(func, ast.Name) and func.id == "emit"


def _test_reads_active(test: ast.AST) -> bool:
    """Whether an ``if`` test reads the trace gate (``....active``)."""

    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "active":
            return True
        if isinstance(sub, ast.Name) and sub.id == "active":
            return True
    return False


def _unguarded_emits(node: ast.AST, guarded: bool) -> Iterator[ast.AST]:
    """Yield emit calls not lexically dominated by an ``if ... .active:``."""

    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _test_reads_active(child.test):
            for stmt in child.body:
                yield from _unguarded_emits(stmt, True)
            for stmt in child.orelse:
                yield from _unguarded_emits(stmt, guarded)
            continue
        if not guarded and _is_emit_call(child):
            yield child
        yield from _unguarded_emits(child, guarded)


def _literal_label(node: ast.AST) -> str:
    return {
        ast.List: "list literal",
        ast.Set: "set literal",
        ast.Dict: "dict literal",
        ast.ListComp: "list comprehension",
        ast.SetComp: "set comprehension",
        ast.DictComp: "dict comprehension",
    }[type(node)]
