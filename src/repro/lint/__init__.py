"""repro-lint — determinism & bit-exactness static analysis.

Every performance feature of this codebase (clone-free fault sessions,
sharded execution, prefix reuse, the golden cache) is only sound because of
invariants that are otherwise enforced at *runtime* via byte-identity tests:
fault draws are fully seeded, shard merges are byte-identical to serial
runs, and patch sessions restore weights bit-exactly.  ``repro.lint`` checks
the *source* for the usual ways those invariants get broken — before any
campaign runs:

``rng-discipline``
    legacy global-state ``np.random.*`` calls and unseeded
    ``default_rng()`` draws (breaks fault-matrix reproducibility and shard
    byte-identity).
``session-context``
    fault-injection sessions created outside a ``with`` block and never
    restored (breaks the bit-exact-restore guarantee).
``float-reduction-order``
    float accumulation over ``set`` iteration (hash order is
    run-dependent; breaks byte-identical merges).
``worker-purity``
    functions dispatched to worker pools that capture unpicklable objects
    or read mutable module-level state.

Rules are plug-ins registered on a :class:`~repro.experiments.registry.
Registry` (same pattern as the experiment component registries): unknown
rule names get did-you-mean errors, and every rule can be enabled/disabled
per run, suppressed per line (``# repro-lint: disable=<rule>``) or per file
(``# repro-lint: disable-file=<rule>``), or grandfathered via a checked-in
baseline file.

Run it as ``python -m repro.lint [paths...]`` or ``pytorchalfi lint``.
"""

from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.engine import FileContext, Finding, LintReport, lint_paths
from repro.lint.registry import RULES, register_rule, rule_names

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "RULES",
    "lint_paths",
    "load_baseline",
    "register_rule",
    "rule_names",
    "write_baseline",
]
