"""Documentation tooling: API-reference generation and docstring coverage.

The repository's documentation lives in ``docs/``:

* hand-written guides (``docs/architecture.md``, ``docs/ir.md``);
* a generated, checked-in API reference (``docs/api/*.md``).

This package is the generator; it is developer tooling, not part of the
``repro`` library.  It is dependency-free (pure stdlib introspection) so the
docs build runs anywhere the library itself runs — no pdoc/mkdocs install
required — while ``mkdocs.yml`` is still checked in for rendering the same
tree to HTML where mkdocs is available.

Command line, from the repository root (see ``python -m tests.docs --help``)::

    PYTHONPATH=src python -m tests.docs build            # regenerate docs/api/
    PYTHONPATH=src python -m tests.docs build --check    # CI: fail if checked-in files drift

Docstring coverage (:func:`docstring_coverage`) is audited by
``tests/test_docs_build.py``.

Generation is deterministic (stable member ordering, no timestamps), so
``build --check`` doubles as a reproducibility test of the docs themselves.
"""

from tests.docs.apigen import (
    API_MODULES,
    COVERAGE_MODULES,
    ModuleCoverage,
    build_api_reference,
    check_api_reference,
    docstring_coverage,
    render_module,
)

__all__ = [
    "API_MODULES",
    "COVERAGE_MODULES",
    "ModuleCoverage",
    "build_api_reference",
    "check_api_reference",
    "docstring_coverage",
    "render_module",
]
