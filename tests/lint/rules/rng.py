"""Rule ``rng-discipline`` — every random draw must be seeded and local.

The fault matrix, the per-group corruption streams and the epoch
permutations are all derived from ``scenario.random_seed``; that is what
makes a sharded campaign byte-identical to a serial run and a rerun
byte-identical to its predecessor.  Two patterns silently break this:

* **legacy global-state numpy RNG** (``np.random.rand()``,
  ``np.random.seed()``, ...): draws consume one hidden process-global
  stream, so results depend on call *order* across the whole process —
  different shard geometry, different numbers.
* **unseeded generators** (``np.random.default_rng()``, ``RandomState()``,
  a bit generator or ``SeedSequence()`` with no seed or an explicit
  ``None``): fresh OS entropy per construction, never reproducible.

The fix is always the same: construct ``np.random.default_rng(seed)`` from
a scenario- or argument-derived seed and pass the generator down.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tests.lint import FileContext, Finding
from tests.lint.rules._ast_utils import dotted_name

RULE = "rng-discipline"

#: Constructors that draw fresh OS entropy when given no seed (or ``None``).
_SEEDABLE = {
    "default_rng",
    "RandomState",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: numpy.random module attributes that are *not* global-state draws.
_ALLOWED_RANDOM_ATTRS = _SEEDABLE | {"Generator", "BitGenerator"}


def _is_unseeded(call: ast.Call) -> bool:
    """True when a seedable constructor gets no seed or a literal None.

    The seed is the first positional argument or the ``seed`` / ``entropy``
    keyword.
    """
    if call.args:
        seed: ast.expr | None = call.args[0]
    else:
        seed = next((kw.value for kw in call.keywords if kw.arg in ("seed", "entropy")), None)
    return seed is None or (isinstance(seed, ast.Constant) and seed.value is None)


def check(ctx: FileContext) -> Iterator[Finding]:
    numpy_names, random_names, imported = ctx.numpy_aliases()
    if not (numpy_names or random_names or imported):
        return

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")

        # np.random.<fn>(...) / random_alias.<fn>(...)
        attr: str | None = None
        if len(parts) == 3 and parts[0] in numpy_names and parts[1] == "random":
            attr = parts[2]
        elif len(parts) == 2 and parts[0] in random_names:
            attr = parts[1]

        if attr is not None and attr not in _ALLOWED_RANDOM_ATTRS:
            yield ctx.finding(
                node,
                RULE,
                f"legacy global-state RNG call 'np.random.{attr}(...)': draws depend "
                "on process-wide call order, breaking shard byte-identity; use a "
                "seeded np.random.default_rng(seed) generator passed down explicitly",
            )
            continue

        constructor = attr if attr is not None else imported.get(name)
        if constructor in _SEEDABLE and _is_unseeded(node):
            yield ctx.finding(
                node,
                RULE,
                f"unseeded {constructor}(): draws fresh OS entropy on every run, so the "
                "fault campaign is not reproducible; derive the seed from the "
                "scenario (e.g. default_rng(scenario.random_seed))",
            )
