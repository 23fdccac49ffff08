"""Determinism and bit-exactness checks over the repository's source.

Five AST rules guard the invariants the byte-identity tests enforce at
runtime, before any campaign runs:

``rng-discipline``
    legacy global-state ``np.random.*`` calls and unseeded generators
    (breaks fault-matrix reproducibility and shard byte-identity).
``session-context``
    fault-injection sessions created outside a ``with`` block and never
    restored (breaks the bit-exact-restore guarantee).
``float-reduction-order``
    float accumulation over ``set`` iteration (hash order is
    run-dependent; breaks byte-identical merges).
``worker-purity``
    functions dispatched to worker pools that capture unpicklable objects
    or read mutable module-level state.
``supervised-dispatch``
    batch pool dispatch outside the shard supervisor.

One :class:`FileContext` is built per Python file (AST, source lines, parent
links, numpy-alias tracking) and handed to every rule's ``check``.
``tests/test_lint.py`` runs :func:`lint_paths` over ``src``, ``examples`` and
``benchmarks`` and requires zero findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: Directory names never descended into during file discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks"}


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, sortable into report order."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


class FileContext:
    """Everything a rule needs to know about one parsed Python file.

    Attributes:
        display_path: normalized (posix, relative-to-cwd when possible) path
            used in findings.
        tree: the parsed :class:`ast.Module`.
    """

    def __init__(self, tree: ast.Module, display_path: str) -> None:
        self.display_path = display_path
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] | None = None
        self._numpy_aliases: tuple[set[str], set[str], dict[str, str]] | None = None

    # ------------------------------------------------------------------ #
    # structure helpers
    # ------------------------------------------------------------------ #
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module root)."""
        if self._parents is None:
            self._parents = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of ``node`` from the innermost outwards."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The nearest function scope containing ``node`` (None at module level)."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def numpy_aliases(self) -> tuple[set[str], set[str], dict[str, str]]:
        """Local names bound to numpy, numpy.random and numpy.random members.

        Returns ``(numpy_names, random_names, imported)`` for e.g.
        ``import numpy as np`` / ``from numpy import random`` /
        ``from numpy.random import default_rng as rng`` (``imported`` maps
        ``"rng"`` to ``"default_rng"``).
        """
        if self._numpy_aliases is None:
            numpy_names: set[str] = set()
            random_names: set[str] = set()
            imported: dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "numpy":
                            numpy_names.add(alias.asname or "numpy")
                        elif alias.name == "numpy.random" and alias.asname:
                            random_names.add(alias.asname)
                elif isinstance(node, ast.ImportFrom):
                    if node.module == "numpy":
                        for alias in node.names:
                            if alias.name == "random":
                                random_names.add(alias.asname or "random")
                    elif node.module == "numpy.random":
                        for alias in node.names:
                            imported[alias.asname or alias.name] = alias.name
            self._numpy_aliases = (numpy_names, random_names, imported)
        return self._numpy_aliases

    # ------------------------------------------------------------------ #
    # finding construction
    # ------------------------------------------------------------------ #
    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.display_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            rule=rule,
            message=message,
        )


def iter_python_files(targets: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` file list."""
    seen: set[Path] = set()
    files: list[Path] = []

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            files.append(path)

    for target in targets:
        path = Path(target)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    add(candidate)
        elif path.suffix == ".py" and path.exists():
            add(path)
        elif not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
    return files


def display_path(path: Path) -> str:
    """Posix path relative to cwd when possible (stable across machines)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def build_context(path: Path) -> FileContext | Finding:
    """Parse one file; on syntax errors return a parse-error finding instead."""
    shown = display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError, UnicodeDecodeError) as error:
        line = getattr(error, "lineno", 0) or 0
        col = getattr(error, "offset", 0) or 0
        message = getattr(error, "msg", None) or str(error)
        return Finding(shown, line, col, "parse-error", f"cannot parse: {message}")
    return FileContext(tree, shown)


def lint_paths(targets: Iterable[str | Path]) -> list[Finding]:
    """Run every rule over ``targets`` (files and/or directories, recursed
    for ``*.py``) and return the findings in report order."""
    findings: list[Finding] = []
    for path in iter_python_files(targets):
        ctx = build_context(path)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        for check in CHECKS:
            findings.extend(check(ctx))
    return sorted(findings)


# The rules import Finding and FileContext from this module, so they are
# imported once both are defined.
from tests.lint.rules import dispatch, reductions, rng, sessions, workers  # noqa: E402

CHECKS = (rng.check, sessions.check, reductions.check, workers.check, dispatch.check)
