"""Rule ``worker-purity`` — shard workers must be pure, picklable functions.

:class:`~repro.alficore.campaign.ShardedCampaignExecutor` owes its central
guarantee — merged shard output byte-identical to a serial run — to worker
functions that derive *everything* from their pickled job argument.  Two
hazards break this silently:

* **unpicklable callables**: lambdas and closures dispatched to a
  ``multiprocessing`` pool work under the ``fork`` start method and crash
  (or worse, resolve differently) under ``spawn`` — the method used on
  macOS/Windows and the fallback in this repo's pool setup.
* **mutable module-level state**: a worker that reads a module-level
  list/dict/set observes the *parent* process state under ``fork`` but a
  freshly imported module under ``spawn``; with in-process execution
  (``workers=1``) earlier shards can even leak state into later ones.
  Either way the shard result depends on where it ran.

Flagged: lambdas/closures passed to pool dispatch calls (``map``,
``imap*``, ``starmap*``, ``apply*``, ``submit``), and dispatched
module-level functions that use ``global`` or read module-level mutable
containers instead of taking the state through their job argument.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tests.lint import FileContext, Finding
from tests.lint.rules._ast_utils import (
    assigned_names,
    dotted_name,
    function_parameters,
    pool_dispatch_method,
    terminal_name,
)

RULE = "worker-purity"

_DISPATCH_METHODS = {
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "apply",
    "apply_async",
    "submit",
}

_MUTABLE_FACTORY_CALLS = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}


def _is_pool_dispatch(call: ast.Call) -> bool:
    return pool_dispatch_method(call) in _DISPATCH_METHODS


def _worker_expression(call: ast.Call) -> ast.expr | None:
    if call.args:
        worker = call.args[0]
        # functools.partial(fn, ...) — the wrapped callable is what matters.
        if isinstance(worker, ast.Call) and (dotted_name(worker.func) or "").endswith("partial"):
            return worker.args[0] if worker.args else None
        return worker
    return None


def _module_mutable_globals(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers."""
    mutable: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        is_mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and (terminal_name(value.func) or "") in _MUTABLE_FACTORY_CALLS
        )
        if is_mutable:
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable.add(target.id)
    return mutable


def _impure_reads(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, mutable_globals: set[str]
) -> Iterator[tuple[ast.AST, str]]:
    local_names = function_parameters(fn) | assigned_names(fn)
    globals_declared: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
            yield node, f"uses 'global {', '.join(node.names)}'"
    reported: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in mutable_globals
            and node.id not in local_names - globals_declared
            and node.id not in reported
        ):
            reported.add(node.id)
            yield node, f"reads mutable module-level '{node.id}'"


def check(ctx: FileContext) -> Iterator[Finding]:
    module_functions = {
        stmt.name: stmt
        for stmt in ctx.tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    mutable_globals = _module_mutable_globals(ctx.tree)

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not _is_pool_dispatch(node):
            continue
        worker = _worker_expression(node)
        if worker is None:
            continue

        if isinstance(worker, ast.Lambda):
            yield ctx.finding(
                worker,
                RULE,
                "lambda dispatched to a worker pool: not picklable under the "
                "'spawn' start method; move the worker to a module-level function "
                "that derives all state from its job argument",
            )
            continue

        if not isinstance(worker, ast.Name):
            continue
        enclosing = ctx.enclosing_function(node)
        if enclosing is not None and any(
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == worker.id
            for stmt in ast.walk(enclosing)
        ):
            yield ctx.finding(
                worker,
                RULE,
                f"nested function '{worker.id}' dispatched to a worker pool: "
                "closures are not picklable under 'spawn'; hoist it to module "
                "level and pass captured state through the job argument",
            )
            continue

        fn = module_functions.get(worker.id)
        if fn is None:
            continue
        for offender, reason in _impure_reads(fn, mutable_globals):
            yield ctx.finding(
                offender,
                RULE,
                f"worker '{fn.name}' {reason}: under 'spawn' (or in-process "
                "fallback) workers see different module state than the parent, "
                "so shard output depends on where it ran; pass the state through "
                "the pickled job argument instead",
            )
