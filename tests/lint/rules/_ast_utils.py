"""Shared AST helpers for the rules."""

from __future__ import annotations

import ast
from typing import Iterator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee (``fi.weight_patch_session``)."""
    return dotted_name(call.func)


def terminal_name(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


#: Receiver names that mark a method call as pool/executor dispatch (plain
#: ``values.map(...)`` style calls on other objects are ignored).
POOL_HINTS = ("pool", "executor")


def pool_dispatch_method(call: ast.Call) -> str | None:
    """Method name of a pool/executor dispatch call, ``None`` otherwise.

    A call counts as pool dispatch when it is a method call whose receiver is
    named like a pool (``pool.map(...)``, ``self.executor.submit(...)``) or is
    a direct ``Pool(...)``/``...Executor(...)`` construction.
    """
    if not isinstance(call.func, ast.Attribute):
        return None
    receiver = terminal_name(call.func.value)
    if receiver is not None:
        if any(hint in receiver.lower() for hint in POOL_HINTS):
            return call.func.attr
        return None
    if isinstance(call.func.value, ast.Call):
        callee = terminal_name(call.func.value.func) or ""
        if "Pool" in callee or "Executor" in callee:
            return call.func.attr
    return None


def is_set_expression(node: ast.AST) -> bool:
    """True for set displays, set comprehensions and set()/frozenset() calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in {"set", "frozenset"}
    return False


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` without descending into nested function/class scopes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            yield from walk_scope(child)


def assigned_names(node: ast.AST) -> set[str]:
    """All names bound (Store context) anywhere under ``node``."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
        elif isinstance(child, (ast.Global, ast.Nonlocal)):
            names.update(child.names)
    return names


def function_parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """All parameter names of ``fn``."""
    args = fn.args
    params = [
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ]
    return {arg.arg for arg in params}
