"""Rule ``capability-guard``: gated program paths stay behind their guards.

The in-place Stockham lowering and the native kernel tier only exist for
sizes/backends/hosts that advertise the capability (``stockham_supported``,
``FFTBackend.supports_inplace`` / ``supports_native``,
``native_supported``).  A call site that skips
the guard works on the sizes the author tested and raises (or silently
degrades) on the rest - exactly the class of bug a reproduction cannot
afford on untested paths.  In ``src`` (tests and benchmarks may poke the
internals directly):

* calls to ``get_stockham_program(...)`` / ``.execute_inplace(...)`` /
  ``.execute_inverse_inplace(...)`` must sit in a function that shows
  in-place guard evidence;
* calls to ``get_native_kernels(...)`` must sit in a function that shows
  native-tier guard evidence (``native_supported`` / ``supports_native``) -
  the unguarded call raises when the tier is down (no compiler,
  ``REPRO_NO_NATIVE``), which is precisely the degraded environment a
  graceful-fallback path must survive.

Guard evidence is lexical: a reference to one of the capability predicates,
a ``hasattr(...)`` probe, or an ``is None`` / ``is not None`` receiver
check, either in the enclosing function or in the enclosing class's
``__init__`` / ``__post_init__`` (constructor-established invariants).
A class calling its *own* method (``self.execute_inplace(...)`` inside the
class that defines it) is exempt - the program object is the capability.
Anything intentionally unguarded takes
``# reprolint: capability-ok - <why>``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from reprolint.engine import FileContext, Project, Violation

RULE = "capability-guard"
WAIVER = "capability-ok"

INPLACE_TOKENS = frozenset({"stockham_supported", "supports_inplace"})
NATIVE_TOKENS = frozenset({"native_supported", "supports_native"})

#: function-call targets -> required guard tokens
CALL_TARGETS = {
    "get_stockham_program": INPLACE_TOKENS,
    "get_native_kernels": NATIVE_TOKENS,
}
#: method-call targets -> required guard tokens
METHOD_TARGETS = {
    "execute_inplace": INPLACE_TOKENS,
    "execute_inverse_inplace": INPLACE_TOKENS,
}


def check(ctx: FileContext, project: Project) -> Iterator[Violation]:
    if ctx.in_tree("tests", "benchmarks", "tools"):
        return
    for func, owner, ancestors in _functions_with_class(ctx.tree):
        yield from _check_function(ctx, func, owner, ancestors)


def _functions_with_class(tree: ast.Module):
    """Yield (function, enclosing class, enclosing function chain) triples."""

    def walk(node, owner, ancestors):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child, ancestors)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner, tuple(ancestors)
                yield from walk(child, owner, ancestors + [child])
            else:
                yield from walk(child, owner, ancestors)

    yield from walk(tree, None, [])


def _check_function(
    ctx: FileContext,
    func: ast.FunctionDef,
    owner: Optional[ast.ClassDef],
    ancestors: Tuple[ast.FunctionDef, ...],
) -> Iterator[Violation]:
    evidence: Optional[Set[str]] = None  # computed lazily, once per function
    for node in _walk_skipping_nested(func):
        if not isinstance(node, ast.Call):
            continue
        target = _call_target(node)
        if target is None:
            continue
        label, tokens = target
        if _is_own_method_call(node, owner):
            continue
        if evidence is None:
            # a closure inherits the guards its enclosing functions
            # established; a method inherits its class's constructor guards
            evidence = _guard_evidence(func)
            for ancestor in ancestors:
                evidence |= _guard_evidence(ancestor)
            if owner is not None:
                for stmt in owner.body:
                    if isinstance(stmt, ast.FunctionDef) and stmt.name in (
                        "__init__",
                        "__post_init__",
                    ):
                        evidence |= _guard_evidence(stmt)
        if tokens & evidence or "hasattr" in evidence or "is-none" in evidence:
            continue
        if ctx.waived(WAIVER, node):
            continue
        yield Violation(
            ctx.rel,
            node.lineno,
            RULE,
            f"{label} without a capability guard in {func.name!r} "
            f"(expected one of {sorted(tokens)}, a hasattr probe, or an "
            f"'is None' receiver check; waive with "
            f"'# reprolint: {WAIVER} - <why>')",
        )


def _walk_skipping_nested(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested function defs
    (those are reported once, under their own name, with chained evidence)."""

    def walk(node: ast.AST) -> Iterator[ast.AST]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield child
            yield from walk(child)

    yield from walk(func)


def _call_target(node: ast.Call) -> Optional[Tuple[str, frozenset]]:
    func = node.func
    if isinstance(func, ast.Name) and func.id in CALL_TARGETS:
        return f"call to {func.id}(...)", CALL_TARGETS[func.id]
    if isinstance(func, ast.Attribute) and func.attr in METHOD_TARGETS:
        return f"call to .{func.attr}(...)", METHOD_TARGETS[func.attr]
    return None


def _is_own_method_call(node: ast.Call, owner: Optional[ast.ClassDef]) -> bool:
    """``self.execute_inplace(...)`` inside the class that defines it."""

    if owner is None:
        return False
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return False
    return any(
        isinstance(stmt, ast.FunctionDef) and stmt.name == func.attr
        for stmt in owner.body
    )


def _guard_evidence(func: ast.FunctionDef) -> Set[str]:
    evidence: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            if node.id in INPLACE_TOKENS | NATIVE_TOKENS:
                evidence.add(node.id)
            elif node.id == "hasattr":
                evidence.add("hasattr")
        elif isinstance(node, ast.Attribute):
            if node.attr in INPLACE_TOKENS | NATIVE_TOKENS:
                evidence.add(node.attr)
        elif isinstance(node, ast.Compare):
            if any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
                isinstance(cmp, ast.Constant) and cmp.value is None
                for cmp in node.comparators
            ):
                evidence.add("is-none")
    return evidence
