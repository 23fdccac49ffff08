"""Tier-1 gate for the determinism rules in :mod:`tests.lint`.

Each rule has a checked-in fixture pair under
``tests/lint_fixtures/<rule_key>/``: ``bad.py`` must yield exactly that rule
and ``good.py`` none of it.  The repository's own ``src``, ``examples`` and
``benchmarks`` must lint clean, and a violation planted next to a clean
module must fail that check.
"""

import shutil
from pathlib import Path

import pytest

from tests.lint import lint_paths

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: fixture directory -> rule name expected from its ``bad.py``
RULE_FIXTURES = {
    "rng": "rng-discipline",
    "sessions": "session-context",
    "reductions": "float-reduction-order",
    "workers": "worker-purity",
    "dispatch": "supervised-dispatch",
}


# --------------------------------------------------------------------------- #
# per-rule fixtures
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture,rule", sorted(RULE_FIXTURES.items()))
class TestRuleFixtures:
    def test_bad_fixture_is_flagged(self, fixture, rule):
        findings = lint_paths([FIXTURES / fixture / "bad.py"])
        assert findings
        assert {finding.rule for finding in findings} == {rule}, findings

    def test_good_fixture_is_clean(self, fixture, rule):
        # workers/good.py dispatches through a pool on purpose, which
        # supervised-dispatch flags; each good fixture answers for its own rule.
        findings = lint_paths([FIXTURES / fixture / "good.py"])
        assert [finding for finding in findings if finding.rule == rule] == []

    def test_planted_violation_fails_the_gate(self, tmp_path, fixture, rule):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "clean.py").write_text('"""A clean module."""\n\nVALUE = 1\n')
        shutil.copy(FIXTURES / fixture / "bad.py", tree / "planted.py")
        findings = lint_paths([tree])
        assert findings
        assert {finding.rule for finding in findings} == {rule}, findings
        assert {Path(finding.path).name for finding in findings} == {"planted.py"}


def test_findings_carry_position_and_render():
    finding = lint_paths([FIXTURES / "rng" / "bad.py"])[0]
    assert finding.path.endswith("lint_fixtures/rng/bad.py")
    assert finding.line > 0
    assert f"[{finding.rule}]" in finding.render()


def test_parse_error_is_reported_as_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    findings = lint_paths([path])
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"


# --------------------------------------------------------------------------- #
# rng-discipline: unseeded generators in every spelling
# --------------------------------------------------------------------------- #
_RNG_HEADER = (
    "import numpy as np\n"
    "from numpy.random import default_rng\n"
    "from numpy.random import RandomState as LegacyStream\n\n"
)


@pytest.mark.parametrize(
    "call",
    [
        "np.random.default_rng(seed=None)",
        "default_rng(seed=None)",
        "np.random.RandomState()",
        "np.random.Generator(np.random.PCG64())",
        "np.random.SeedSequence()",
        "np.random.SeedSequence(entropy=None)",
        "np.random.PCG64DXSM(None)",
        "np.random.MT19937()",
        "np.random.Philox(seed=None)",
        "np.random.SFC64()",
        "LegacyStream()",
    ],
)
def test_unseeded_generator_is_flagged(tmp_path, call):
    path = tmp_path / "module.py"
    path.write_text(f"{_RNG_HEADER}value = {call}\n")
    assert [finding.rule for finding in lint_paths([path])] == ["rng-discipline"]


@pytest.mark.parametrize(
    "call",
    [
        "np.random.default_rng(seed=7)",
        "default_rng(seed=7)",
        "np.random.RandomState(7)",
        "np.random.Generator(np.random.PCG64(7))",
        "np.random.SeedSequence(entropy=7)",
        "np.random.Philox(seed=7)",
        "LegacyStream(seed=7)",
    ],
)
def test_seeded_generator_is_clean(tmp_path, call):
    path = tmp_path / "module.py"
    path.write_text(f"{_RNG_HEADER}value = {call}\n")
    assert lint_paths([path]) == []


# --------------------------------------------------------------------------- #
# the repository itself lints clean
# --------------------------------------------------------------------------- #
def test_repository_lints_clean(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert lint_paths(["src", "examples", "benchmarks"]) == []
