"""Built-in repro-lint rules.

Importing this package registers every built-in rule on
:data:`repro.lint.registry.RULES`.  Third-party rules register the same way::

    from repro.lint import register_rule

    @register_rule("my-rule", description="...")
    def my_rule(ctx):
        yield ctx.finding(node, "my-rule", "...")
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration side effect)
    dispatch,
    reductions,
    rng,
    sessions,
    workers,
)
