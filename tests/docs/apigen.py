"""Deterministic markdown API-reference generator and docstring auditor.

One markdown page per documented module: the module docstring, then every
public class (with its public methods) and function, each with its
signature and full docstring.  Member order is sorted by name, signatures
come from :func:`inspect.signature` and no timestamps are embedded, so the
output is a pure function of the source tree — ``--check`` mode simply
regenerates and compares bytes.
"""

from __future__ import annotations

import importlib
import inspect
import re
import textwrap
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

# Modules that get a generated page under docs/api/.  Order defines the
# index page; names map to files by replacing dots with dashes.
API_MODULES: tuple[str, ...] = (
    "repro.experiments",
    "repro.experiments.spec",
    "repro.experiments.builder",
    "repro.experiments.runner",
    "repro.experiments.registry",
    "repro.experiments.result",
    "repro.experiments.sweep",
    "repro.experiments.campaigns.store",
    "repro.nn",
    "repro.nn.forward_plan",
    "repro.nn.record",
    "repro.nn.ir",
    "repro.nn.fuse",
    "repro.nn.functional",
    "repro.alficore.campaign",
    "repro.alficore.wrapper",
    "repro.alficore.codec",
    "repro.alficore.scenario",
    "repro.alficore.monitoring",
    "repro.alficore.resilience",
    "repro.alficore.digests",
    "repro.alficore.goldencache",
    "repro.alficore.results",
    "repro.models",
    "repro.data",
)

# Modules held to a 100% public-docstring bar: the mypy strict subset plus
# the subsystems the architecture guide documents in detail.
COVERAGE_MODULES: tuple[str, ...] = (
    "repro.experiments",
    "repro.experiments.spec",
    "repro.experiments.builder",
    "repro.experiments.runner",
    "repro.experiments.registry",
    "repro.experiments.result",
    "repro.experiments.sweep",
    "repro.experiments.campaigns.store",
    "repro.nn.forward_plan",
    "repro.nn.record",
    "repro.nn.ir",
    "repro.nn.fuse",
    "repro.alficore.codec",
    "repro.alficore.scenario",
    "repro.alficore.resilience",
    "repro.alficore.digests",
    "repro.alficore.goldencache",
)


def _public_names(module: ModuleType) -> list[str]:
    """The module's documented surface: ``__all__`` or defined public names."""
    declared = getattr(module, "__all__", None)
    if declared is not None:
        return sorted(str(name) for name in declared)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, ModuleType):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        names.append(name)
    return sorted(names)


def _signature(obj: Callable) -> str:
    try:
        text = str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"
    # Default-value reprs of functions/objects embed memory addresses;
    # scrub them so the rendered pages are byte-deterministic.
    text = re.sub(r"<function ([\w.<>]+) at 0x[0-9a-fA-F]+>", r"\1", text)
    return re.sub(r"<([\w.]+) object at 0x[0-9a-fA-F]+>", r"<\1>", text)


def _doc(obj: object) -> str:
    raw = inspect.getdoc(obj)
    return raw.strip() if raw else ""


def _public_methods(cls: type) -> list[tuple[str, Callable]]:
    methods = []
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        func = member
        if isinstance(member, (staticmethod, classmethod)):
            func = member.__func__
        elif isinstance(member, property):
            methods.append((name, member.fget or (lambda self: None)))
            continue
        if not inspect.isfunction(func):
            continue
        if name == "__init__" and not _doc(func):
            continue
        methods.append((name, func))
    return methods


def render_module(module_name: str) -> str:
    """Render one module's markdown API page."""
    module = importlib.import_module(module_name)
    lines = [f"# `{module_name}`", ""]
    module_doc = _doc(module)
    if module_doc:
        lines += [module_doc, ""]
    classes: list[tuple[str, type]] = []
    functions: list[tuple[str, Callable]] = []
    constants: list[str] = []
    for name in _public_names(module):
        obj = getattr(module, name, None)
        if obj is None and name not in vars(module):
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif callable(obj):
            functions.append((name, obj))
        elif not isinstance(obj, ModuleType):
            constants.append(name)
    if classes:
        lines += ["## Classes", ""]
        for name, cls in classes:
            lines += [f"### `{name}{_signature(cls)}`", ""]
            doc = _doc(cls)
            if doc:
                lines += [doc, ""]
            for method_name, func in _public_methods(cls):
                shown = "\\_\\_init\\_\\_" if method_name == "__init__" else method_name
                lines += [f"#### `{name}.{shown}{_signature(func)}`", ""]
                method_doc = _doc(func)
                if method_doc:
                    lines += [textwrap.indent(method_doc, "")] + [""]
    if functions:
        lines += ["## Functions", ""]
        for name, func in functions:
            lines += [f"### `{name}{_signature(func)}`", ""]
            doc = _doc(func)
            if doc:
                lines += [doc, ""]
    if constants:
        lines += ["## Constants", ""]
        for name in constants:
            lines += [f"* `{name}`"]
        lines += [""]
    return "\n".join(lines).rstrip() + "\n"


def _page_name(module_name: str) -> str:
    return module_name.replace(".", "-") + ".md"


def _render_index() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python -m tests.docs build` — do not edit by hand;",
        "CI checks these pages against the source tree (`build --check`).",
        "",
    ]
    for module_name in API_MODULES:
        module = importlib.import_module(module_name)
        doc = _doc(module)
        summary = doc.splitlines()[0] if doc else ""
        lines.append(f"* [`{module_name}`]({_page_name(module_name)}) — {summary}")
    return "\n".join(lines).rstrip() + "\n"


def build_api_reference(out_dir: Path) -> list[Path]:
    """Write every API page (and the index) under ``out_dir``; return paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for module_name in API_MODULES:
        path = out_dir / _page_name(module_name)
        path.write_text(render_module(module_name))
        written.append(path)
    index = out_dir / "index.md"
    index.write_text(_render_index())
    written.append(index)
    return written


def check_api_reference(out_dir: Path) -> list[str]:
    """Names of pages whose checked-in content drifted from the source tree."""
    expected: dict[str, str] = {
        _page_name(name): render_module(name) for name in API_MODULES
    }
    expected["index.md"] = _render_index()
    stale = []
    for name, content in expected.items():
        path = out_dir / name
        if not path.exists() or path.read_text() != content:
            stale.append(name)
    for path in sorted(out_dir.glob("*.md")):
        if path.name not in expected:
            stale.append(f"{path.name} (unexpected)")
    return sorted(stale)


@dataclass
class ModuleCoverage:
    """Docstring-coverage tally of one module's public surface."""

    module: str
    total: int = 0
    documented: int = 0
    missing: list[str] = field(default_factory=list)

    @property
    def percent(self) -> float:
        """Documented fraction in percent (an empty surface counts as 100)."""
        return 100.0 * self.documented / self.total if self.total else 100.0

    def count(self, label: str, obj: object) -> None:
        """Tally one public member."""
        self.total += 1
        if _doc(obj):
            self.documented += 1
        else:
            self.missing.append(label)


def docstring_coverage(module_names: tuple[str, ...] = COVERAGE_MODULES) -> list[ModuleCoverage]:
    """Audit public docstrings (module, classes, methods, functions)."""
    reports = []
    for module_name in module_names:
        module = importlib.import_module(module_name)
        report = ModuleCoverage(module_name)
        report.count(module_name, module)
        for name in _public_names(module):
            obj = getattr(module, name, None)
            if inspect.isclass(obj):
                report.count(name, obj)
                for method_name, func in _public_methods(obj):
                    if method_name in vars(obj):
                        report.count(f"{name}.{method_name}", func)
            elif callable(obj):
                report.count(name, obj)
        reports.append(report)
    return reports
