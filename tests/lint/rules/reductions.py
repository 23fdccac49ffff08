"""Rule ``float-reduction-order`` — no float accumulation in set order.

Shard merges are byte-identical to serial runs only because every float
reduction happens in a deterministic order (dataset order, registration
order, or an explicitly sorted order).  Iterating a ``set`` breaks that:
set iteration order depends on insertion history and, for strings, on the
per-process hash seed — the same values can sum to different IEEE-754
results in different processes.  Floating-point addition is not
associative, so ``sum({a, b, c})`` is allowed to differ between a shard
worker and the serial reference run in the last ulp — which is exactly the
difference the byte-identity harness exists to catch.

Flagged patterns:

* ``sum`` / ``math.fsum`` / ``np.sum`` / ``np.mean`` / ``np.prod`` over a
  set display, set comprehension, or ``set()``/``frozenset()`` call;
* ``for`` loops iterating such a set expression whose body accumulates via
  ``+=``, ``-=`` or ``*=``.

The fix: reduce over a ``sorted(...)`` of the set, or keep the data in an
order-preserving container (list/dict) from the start.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tests.lint import FileContext, Finding
from tests.lint.rules._ast_utils import dotted_name, is_set_expression, walk_scope

RULE = "float-reduction-order"

#: Reducers whose float result depends on operand order.
_ORDER_SENSITIVE_REDUCERS = {"sum", "fsum", "mean", "prod", "nansum", "nanmean", "cumsum"}

_ACCUMULATING_OPS = (ast.Add, ast.Sub, ast.Mult)


def _reducer_attr(call: ast.Call) -> str | None:
    name = dotted_name(call.func)
    if name is None:
        return None
    attr = name.rsplit(".", maxsplit=1)[-1]
    return attr if attr in _ORDER_SENSITIVE_REDUCERS else None


def check(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            attr = _reducer_attr(node)
            if attr and node.args and is_set_expression(node.args[0]):
                yield ctx.finding(
                    node,
                    RULE,
                    f"'{attr}(...)' over a set: set iteration order is "
                    "run-dependent and float reduction is not associative, so the "
                    "result can differ between shard and serial runs; reduce over "
                    "sorted(...) or an order-preserving container",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expression(node.iter):
            for child in walk_scope(node):
                if isinstance(child, ast.AugAssign) and isinstance(
                    child.op, _ACCUMULATING_OPS
                ):
                    yield ctx.finding(
                        node,
                        RULE,
                        "accumulation inside a loop over a set: set iteration order "
                        "is run-dependent, so the accumulated float can differ "
                        "between runs/shards; iterate sorted(...) instead",
                    )
                    break
