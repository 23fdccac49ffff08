"""Rule ``supervised-dispatch`` — shard jobs go through the supervisor.

Fire-and-forget batch dispatch (``pool.map`` and friends) is how campaign
runs used to die: one OOM-killed, crashed or hung worker aborted the whole
``pool.map`` with an opaque exception — no retry, no timeout, nothing
resumable on disk.  :class:`repro.alficore.resilience.ShardSupervisor`
exists precisely so shard work is dispatched *supervised*: per-shard
wall-clock timeouts, dead-worker detection, deterministic re-queue with
capped exponential backoff, and crash-safe commit/resume semantics.

Flagged: batch dispatch methods (``map``, ``map_async``, ``imap``,
``imap_unordered``, ``starmap``, ``starmap_async``) called on a pool-like
receiver anywhere outside the supervisor module itself.  Single-job
submission (``apply_async``/``submit``) is not flagged — it is the
building block supervised schedulers are made of (the ``worker-purity``
rule still checks what is submitted).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tests.lint import FileContext, Finding
from tests.lint.rules._ast_utils import pool_dispatch_method

RULE = "supervised-dispatch"

_BATCH_DISPATCH = {
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
}

#: The one module allowed to talk to worker processes directly.
_SUPERVISOR_MODULE = "alficore/resilience.py"


def check(ctx: FileContext) -> Iterator[Finding]:
    if ctx.display_path.endswith(_SUPERVISOR_MODULE):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        method = pool_dispatch_method(node)
        if method not in _BATCH_DISPATCH:
            continue
        yield ctx.finding(
            node,
            RULE,
            f"fire-and-forget pool dispatch '{method}': one crashed, killed or "
            "hung worker aborts the whole batch with no retry, no timeout and "
            "nothing resumable; submit shard jobs through "
            "repro.alficore.resilience.ShardSupervisor instead",
        )
