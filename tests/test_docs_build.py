"""Docs subsystem: generated API reference stays fresh, covered and deterministic."""

from pathlib import Path

from tests.docs import (
    API_MODULES,
    COVERAGE_MODULES,
    build_api_reference,
    check_api_reference,
    docstring_coverage,
    render_module,
)
from tests.docs.__main__ import main

DOCS_API = Path(__file__).resolve().parents[1] / "docs" / "api"


def test_checked_in_api_reference_matches_source_tree():
    # The CI docs job runs `python -m tests.docs build --check`; keep the
    # same guarantee in tier-1 so drift is caught before push.
    assert check_api_reference(DOCS_API) == []


def test_build_is_deterministic(tmp_path):
    first = {p.name: p.read_text() for p in build_api_reference(tmp_path / "a")}
    second = {p.name: p.read_text() for p in build_api_reference(tmp_path / "b")}
    assert first == second
    assert set(first) == {m.replace(".", "-") + ".md" for m in API_MODULES} | {"index.md"}


def test_no_memory_addresses_leak_into_pages():
    for module_name in API_MODULES:
        assert " at 0x" not in render_module(module_name), module_name


def test_docstring_coverage_is_complete():
    reports = docstring_coverage()
    assert [r.module for r in reports] == list(COVERAGE_MODULES)
    gaps = {r.module: r.missing for r in reports if r.percent < 100.0}
    assert gaps == {}, f"public members missing docstrings: {gaps}"


def test_cli_build_and_check_exit_codes(tmp_path):
    assert main(["build", "--out", str(tmp_path / "api")]) == 0
    assert main(["build", "--out", str(tmp_path / "api"), "--check"]) == 0
    (tmp_path / "api" / "index.md").write_text("stale\n")
    assert main(["build", "--out", str(tmp_path / "api"), "--check"]) == 1


def test_guides_cross_link_and_exist():
    docs = DOCS_API.parent
    for name in ("index.md", "architecture.md", "ir.md"):
        assert (docs / name).exists(), name
    architecture = (docs / "architecture.md").read_text()
    assert "ir.md" in architecture and "api/index.md" in architecture
    readme = (docs.parent / "README.md").read_text()
    assert "docs/architecture.md" in readme and "docs/ir.md" in readme
