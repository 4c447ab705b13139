"""Rule ``lock-discipline``: shared mutable state is only touched under its lock.

The program / twiddle / plan LRU caches and the planner's wisdom are
process-wide state hit from every worker thread; PR 4's cache-stampede bug
was exactly an unlocked mutation of one of them.  This rule makes the
discipline structural:

* In a **module** that declares a lock (``NAME = threading.Lock()`` /
  ``RLock()`` at module level), every module-level mutable container
  (dict / list / set / ``OrderedDict`` / ... assignment or literal) may only
  be mutated - subscript store/delete, mutator method call - inside a
  ``with <that lock>:`` block, and every module global that functions rebind
  through ``global`` (cache counters, default names, cache limits) may only
  be rebound under the lock as well.
* In a **class** whose ``__init__`` / ``__post_init__`` (or dataclass field
  ``default_factory``) declares a lock attribute, every container / counter
  attribute initialised there may only be mutated outside the initialiser
  inside ``with self.<lock>:``.

Scopes that declare no lock are exempt: the rule enforces declared
discipline, it does not guess which unlocked state is shared.  Intentional
unlocked access (single-threaded setup paths) takes a
``# reprolint: lock-ok - <why>`` waiver.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from reprolint.engine import FileContext, Project, Violation

RULE = "lock-discipline"
WAIVER = "lock-ok"

LOCK_CTORS = frozenset({"Lock", "RLock"})
CONTAINER_CTORS = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "add",
        "discard",
        "appendleft",
        "popleft",
    }
)


def check(ctx: FileContext, project: Project) -> Iterator[Violation]:
    yield from _check_module(ctx)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            yield from _check_class(ctx, node)


# ----------------------------------------------------------------------
# declaration harvesting
# ----------------------------------------------------------------------

def _is_lock_ctor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name in LOCK_CTORS


def _is_container_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in CONTAINER_CTORS
    return False


def _assign_pairs(node: ast.stmt) -> List[Tuple[str, ast.AST]]:
    """(name, value) pairs for simple-name module/class level assignments."""

    pairs: List[Tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                pairs.append((target.id, node.value))
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            pairs.append((node.target.id, node.value))
    return pairs


@dataclass
class _Scope:
    """Declared guards and guarded names of one module or class."""

    kind: str  # "module" | "class"
    name: str
    locks: Set[str] = field(default_factory=set)
    containers: Set[str] = field(default_factory=set)
    rebindables: Set[str] = field(default_factory=set)


# ----------------------------------------------------------------------
# module scope
# ----------------------------------------------------------------------

def _module_scope(ctx: FileContext) -> Optional[_Scope]:
    scope = _Scope(kind="module", name=ctx.rel)
    module_names: Set[str] = set()
    for stmt in ctx.tree.body:
        for name, value in _assign_pairs(stmt):
            module_names.add(name)
            if _is_lock_ctor(value):
                scope.locks.add(name)
            elif _is_container_value(value):
                scope.containers.add(name)
    if not scope.locks:
        return None
    # globals rebound from inside functions are guarded too (counters, the
    # default-backend name, lazily created singletons)
    for func in ast.walk(ctx.tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    scope.rebindables.update(set(node.names) & module_names)
    return scope


def _check_module(ctx: FileContext) -> Iterator[Violation]:
    scope = _module_scope(ctx)
    if scope is None:
        return
    for func in _top_level_functions(ctx.tree):
        yield from _check_body(ctx, scope, func, receiver=None)


def _top_level_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt


# ----------------------------------------------------------------------
# class scope
# ----------------------------------------------------------------------

def _class_scope(node: ast.ClassDef) -> Optional[_Scope]:
    scope = _Scope(kind="class", name=node.name)
    for stmt in node.body:
        # dataclass-style declarations: ``x: T = field(default_factory=dict)``
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            factory = _field_default_factory(stmt.value)
            if factory in LOCK_CTORS or factory == "Lock":
                scope.locks.add(stmt.target.id)
            elif factory in CONTAINER_CTORS:
                scope.containers.add(stmt.target.id)
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ("__init__", "__post_init__"):
            for inner in ast.walk(stmt):
                if not isinstance(inner, ast.Assign):
                    continue
                for target in inner.targets:
                    if not (_is_self_attr(target)):
                        continue
                    attr = target.attr  # type: ignore[union-attr]
                    if _is_lock_ctor(inner.value):
                        scope.locks.add(attr)
                    elif _is_container_value(inner.value):
                        scope.containers.add(attr)
                    elif isinstance(inner.value, ast.Constant) and isinstance(
                        inner.value.value, int
                    ) and not isinstance(inner.value.value, bool):
                        scope.rebindables.add(attr)
    if not scope.locks:
        return None
    return scope


def _field_default_factory(value: Optional[ast.AST]) -> str:
    if not isinstance(value, ast.Call):
        return ""
    func = value.func
    if getattr(func, "id", getattr(func, "attr", "")) != "field":
        return ""
    for keyword in value.keywords:
        if keyword.arg == "default_factory":
            factory = keyword.value
            return (
                factory.attr
                if isinstance(factory, ast.Attribute)
                else getattr(factory, "id", "")
            )
    return ""


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _check_class(ctx: FileContext, node: ast.ClassDef) -> Iterator[Violation]:
    scope = _class_scope(node)
    if scope is None:
        return
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name not in (
            "__init__",
            "__post_init__",
        ):
            yield from _check_body(ctx, scope, stmt, receiver="self")


# ----------------------------------------------------------------------
# mutation walk
# ----------------------------------------------------------------------

def _check_body(
    ctx: FileContext,
    scope: _Scope,
    func: ast.FunctionDef,
    receiver: Optional[str],
) -> Iterator[Violation]:
    declared_globals: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_globals.update(node.names)
    yield from _walk(ctx, scope, func, receiver, declared_globals, locked=False)


def _walk(
    ctx: FileContext,
    scope: _Scope,
    node: ast.AST,
    receiver: Optional[str],
    declared_globals: Set[str],
    locked: bool,
) -> Iterator[Violation]:
    for child in ast.iter_child_nodes(node):
        child_locked = locked or (
            isinstance(child, ast.With) and _with_holds_lock(child, scope, receiver)
        )
        if not child_locked:
            for name, description, site in _mutations(
                child, scope, receiver, declared_globals
            ):
                if ctx.waived(WAIVER, site):
                    continue
                yield Violation(
                    ctx.rel,
                    site.lineno,
                    RULE,
                    f"{description} of {scope.kind}-level {name!r} outside "
                    f"'with {_guard_label(scope, receiver)}:' "
                    f"(waive with '# reprolint: {WAIVER} - <why>')",
                )
        yield from _walk(ctx, scope, child, receiver, declared_globals, child_locked)


def _guard_label(scope: _Scope, receiver: Optional[str]) -> str:
    lock = sorted(scope.locks)[0]
    return f"{receiver}.{lock}" if receiver else lock


def _with_holds_lock(node: ast.With, scope: _Scope, receiver: Optional[str]) -> bool:
    for item in node.items:
        expr = item.context_expr
        if receiver is None:
            if isinstance(expr, ast.Name) and expr.id in scope.locks:
                return True
        else:
            if (
                _is_self_attr(expr)
                and expr.attr in scope.locks  # type: ignore[union-attr]
            ):
                return True
    return False


def _mutations(
    node: ast.AST,
    scope: _Scope,
    receiver: Optional[str],
    declared_globals: Set[str],
) -> Iterator[Tuple[str, str, ast.AST]]:
    """Guarded-name mutations performed directly by ``node`` (not children)."""

    def guarded_base(expr: ast.AST) -> Optional[str]:
        if receiver is None:
            if isinstance(expr, ast.Name) and expr.id in scope.containers:
                return expr.id
        else:
            if _is_self_attr(expr) and expr.attr in scope.containers:  # type: ignore[union-attr]
                return expr.attr
        return None

    def rebind_target(expr: ast.AST) -> Optional[str]:
        if receiver is None:
            if (
                isinstance(expr, ast.Name)
                and expr.id in declared_globals
                and expr.id in (scope.rebindables | scope.containers)
            ):
                return expr.id
        else:
            if _is_self_attr(expr) and expr.attr in (  # type: ignore[union-attr]
                scope.rebindables | scope.containers
            ):
                return expr.attr
        return None

    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        verb = "augmented assignment" if isinstance(node, ast.AugAssign) else "assignment"
        for target in targets:
            if isinstance(target, ast.Subscript):
                name = guarded_base(target.value)
                if name:
                    yield name, "subscript store", node
            else:
                name = rebind_target(target)
                if name:
                    yield name, verb, node
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                name = guarded_base(target.value)
                if name:
                    yield name, "subscript delete", node
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            name = guarded_base(func.value)
            if name:
                yield name, f".{func.attr}(...) call", node
