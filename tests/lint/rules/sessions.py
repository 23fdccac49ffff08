"""Rule ``session-context`` — fault sessions must be restored.

Both kinds of session work on the *caller's own* model object:
``WeightPatchSession`` patches corruptions into its weights,
``NeuronInjectionSession``/``NeuronFaultGroup`` register forward hooks on its
injectable layers.  The bit-exact-restore guarantee — the property every
byte-identity test in this repo leans on — holds only if ``__exit__`` (or an
explicit ``restore()``/``close()``) runs for every session that was entered.
A session created outside a ``with`` block and never restored leaves
corrupted weights, or a dropped neuron session its injection hooks, on the
caller's model: for every later fault group, golden pass and campaign.

The rule flags calls to session constructors/factories whose result is
neither (a) used as a ``with`` context expression, (b) returned/yielded to a
caller (factory idiom), (c) passed on to another call (ownership transfer),
nor (d) bound to a name that is later ``with``-managed, ``close()``d,
``restore()``d, returned or passed on within the same scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tests.lint import FileContext, Finding
from tests.lint.rules._ast_utils import terminal_name, walk_scope

RULE = "session-context"

#: Callables producing a session that owns un-restored model state.
_PRODUCERS = {
    "weight_patch_session",
    "neuron_injection_session",
    "fault_group_session",
    "WeightPatchSession",
    "NeuronInjectionSession",
    "NeuronFaultGroup",
}

#: Method names that count as explicitly releasing the session.
_RELEASING_ATTRS = {"close", "restore", "__exit__"}


def _is_session_producer(call: ast.Call) -> bool:
    name = terminal_name(call.func)
    if name in _PRODUCERS:
        return True
    if name == "activate" and isinstance(call.func, ast.Attribute):
        receiver = terminal_name(call.func.value)
        return receiver is not None and "session" in receiver.lower()
    return False


def _assign_targets(parent: ast.AST, call: ast.Call) -> list[str] | None:
    """Names the call result is bound to, or None if ``parent`` isn't a binding."""
    if isinstance(parent, ast.Assign):
        names: list[str] = []
        for target in parent.targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
            elif isinstance(target, ast.Tuple):
                names.extend(elt.id for elt in target.elts if isinstance(elt, ast.Name))
        return names
    if isinstance(parent, ast.AnnAssign) and isinstance(parent.target, ast.Name):
        return [parent.target.id]
    return None


def _name_is_released(scope: ast.AST, name: str) -> bool:
    """True if ``name`` is with-managed, released, returned or handed off."""
    for node in walk_scope(scope):
        if isinstance(node, ast.withitem):
            if any(
                isinstance(sub, ast.Name) and sub.id == name
                for sub in ast.walk(node.context_expr)
            ):
                return True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)) and node.value is not None:
            if any(
                isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(node.value)
            ):
                return True
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RELEASING_ATTRS
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                return True
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if any(
                    isinstance(sub, ast.Name) and sub.id == name for sub in ast.walk(arg)
                ):
                    return True  # ownership handed to another callable
    return False


def check(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not _is_session_producer(node):
            continue

        safe = False
        bound_names: list[str] | None = None
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.withitem):
                safe = True  # the context expression of a with block
                break
            if isinstance(ancestor, (ast.Return, ast.Yield, ast.YieldFrom)):
                safe = True  # factory idiom: the caller owns the session
                break
            if isinstance(ancestor, ast.Call) and node is not ancestor:
                safe = True  # passed into another call (ownership transfer)
                break
            if isinstance(ancestor, ast.stmt):
                bound_names = _assign_targets(ancestor, node)
                break

        if safe:
            continue
        if bound_names:
            scope = ctx.enclosing_function(node) or ctx.tree
            if all(_name_is_released(scope, name) for name in bound_names):
                continue

        callee = terminal_name(node.func) or "session factory"
        yield ctx.finding(
            node,
            RULE,
            f"session from '{callee}(...)' is neither with-managed nor "
            "restored/closed: corrupted weights or injection hooks stay on the "
            "caller's model after this fault group, breaking the "
            "bit-exact-restore guarantee; wrap it in 'with ...:' (or return it "
            "to a caller that does)",
        )
