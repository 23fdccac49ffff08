"""Tests for the repro-lint static-analysis subsystem.

Each built-in rule has a checked-in fixture pair under
``tests/lint_fixtures/<rule_key>/``: ``bad.py`` (must produce at least one
finding of that rule) and ``good.py`` (must lint clean).  On top of the
fixtures, this module covers suppression comments, baseline round-trips, the
rule registry (did-you-mean, enable/disable, custom rules) and the CLI /
``python -m repro.lint`` entry points — including the meta-test that the
repository's own source lints clean.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import UnknownComponentError
from repro.lint import (
    Finding,
    RULES,
    lint_paths,
    load_baseline,
    register_rule,
    rule_names,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import scan_suppressions
from repro.lint.reporters import render_json, render_text

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
        report = lint_paths([FIXTURES / fixture / "bad.py"])
        rules_found = {finding.rule for finding in report.findings}
        assert rules_found == {rule}, report.findings
        assert len(report.findings) >= 1

    def test_good_fixture_is_clean(self, fixture, rule):
        report = lint_paths([FIXTURES / fixture / "good.py"], enable=[rule])
        assert report.findings == []

    def test_rule_can_be_disabled(self, fixture, rule):
        report = lint_paths([FIXTURES / fixture / "bad.py"], disable=[rule])
        assert report.findings == []


def test_findings_carry_position_and_render():
    report = lint_paths([FIXTURES / "rng" / "bad.py"])
    finding = report.findings[0]
    assert finding.path.endswith("lint_fixtures/rng/bad.py")
    assert finding.line > 0
    assert f"[{finding.rule}]" in finding.render()
    assert Finding.from_dict(finding.as_dict()) == finding


# --------------------------------------------------------------------------- #
# suppression comments
# --------------------------------------------------------------------------- #
def test_line_suppression_comment(tmp_path):
    path = tmp_path / "suppressed.py"
    path.write_text(
        "import numpy as np\n"
        "a = np.random.rand(3)  # repro-lint: disable=rng-discipline\n"
        "b = np.random.rand(3)\n"
    )
    report = lint_paths([path])
    assert len(report.findings) == 1
    assert report.findings[0].line == 3
    assert report.suppressed == 1


def test_file_suppression_comment(tmp_path):
    path = tmp_path / "suppressed.py"
    path.write_text(
        "# repro-lint: disable-file=rng-discipline\n"
        "import numpy as np\n"
        "a = np.random.rand(3)\n"
        "b = np.random.rand(3)\n"
    )
    report = lint_paths([path])
    assert report.findings == []
    assert report.suppressed == 2


def test_all_wildcard_and_multi_rule_suppression(tmp_path):
    path = tmp_path / "suppressed.py"
    path.write_text(
        "import numpy as np\n"
        "a = np.random.rand(3)  # repro-lint: disable=all\n"
        "b = np.random.rand(3)  # repro-lint: disable=rng-discipline, worker-purity\n"
    )
    report = lint_paths([path])
    assert report.findings == []
    assert report.suppressed == 2


def test_hash_inside_string_is_not_a_suppression():
    marker = "# repro-lint: disable=rng-discipline"
    source = f"text = '{marker}'\n"
    suppressions = scan_suppressions(source)
    assert not suppressions.file_rules and not suppressions.line_rules


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #
def test_baseline_round_trip(tmp_path):
    report = lint_paths([FIXTURES / "rng" / "bad.py"])
    assert report.findings
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, report.findings)
    loaded = load_baseline(baseline_file)
    assert loaded == report.findings

    rerun = lint_paths([FIXTURES / "rng" / "bad.py"], baseline=loaded)
    assert rerun.findings == []
    assert rerun.baselined == len(report.findings)
    assert rerun.exit_code == 0


def test_baseline_matching_survives_line_drift(tmp_path):
    report = lint_paths([FIXTURES / "rng" / "bad.py"])
    shifted = [
        Finding(f.path, f.line + 40, f.col, f.rule, f.message) for f in report.findings
    ]
    rerun = lint_paths([FIXTURES / "rng" / "bad.py"], baseline=shifted)
    assert rerun.findings == []  # (rule, path, message) matching is line-free


def test_baseline_does_not_hide_new_findings(tmp_path):
    baseline = lint_paths([FIXTURES / "rng" / "bad.py"]).findings
    report = lint_paths(
        [FIXTURES / "rng" / "bad.py", FIXTURES / "sessions" / "bad.py"], baseline=baseline
    )
    assert {finding.rule for finding in report.findings} == {"session-context"}
    assert report.exit_code == 1


# --------------------------------------------------------------------------- #
# rule registry
# --------------------------------------------------------------------------- #
def test_unknown_rule_gets_did_you_mean():
    with pytest.raises(UnknownComponentError, match="rng-discipline"):
        lint_paths([FIXTURES / "rng" / "good.py"], enable=["rng-dicipline"])


def test_custom_rule_registration():
    name = "todo-comment-lint-test"

    def checker(ctx):
        for lineno, line in enumerate(ctx.lines, start=1):
            if "TODO" in line:
                yield Finding(ctx.display_path, lineno, 1, name, "TODO found")

    register_rule(name, checker, description="test rule", default=False)
    try:
        # default=False: not part of a default run ...
        assert name not in lint_paths([FIXTURES / "rng" / "good.py"]).rules
        # ... but selectable explicitly.
        report = lint_paths([FIXTURES / "rng" / "good.py"], enable=[name])
        assert report.rules == [name]
    finally:
        RULES.unregister(name)


def test_parse_error_is_reported_as_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    report = lint_paths([path])
    assert len(report.findings) == 1
    assert report.findings[0].rule == "parse-error"
    assert report.exit_code == 1


# --------------------------------------------------------------------------- #
# reporters and CLI
# --------------------------------------------------------------------------- #
def test_json_reporter_round_trips(capsys):
    report = lint_paths([FIXTURES / "sessions" / "bad.py"])
    import io

    stream = io.StringIO()
    render_json(report, stream)
    payload = json.loads(stream.getvalue())
    assert payload["summary"]["findings"] == len(report.findings)
    assert payload["findings"][0]["rule"] == "session-context"

    stream = io.StringIO()
    render_text(report, stream)
    assert "[session-context]" in stream.getvalue()


def test_cli_exit_codes_and_baseline_flow(tmp_path, capsys):
    bad = FIXTURES / "rng" / "bad.py"
    assert lint_main([str(bad), "--no-baseline"]) == 1
    capsys.readouterr()

    baseline_file = tmp_path / "baseline.json"
    assert lint_main([str(bad), "--write-baseline", "--baseline", str(baseline_file)]) == 0
    capsys.readouterr()
    assert lint_main([str(bad), "--baseline", str(baseline_file)]) == 0


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULE_FIXTURES.values():
        assert rule in out


def test_pytorchalfi_lint_subcommand(capsys):
    from repro.cli import main as cli_main

    code = cli_main(["lint", str(FIXTURES / "sessions" / "bad.py"), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[session-context]" in out


# --------------------------------------------------------------------------- #
# meta: the repository itself lints clean
# --------------------------------------------------------------------------- #
def test_repository_lints_clean():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src", "examples", "benchmarks", "--no-baseline"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_cli_lists_five_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert sorted(RULE_FIXTURES.values()) == sorted(rule_names(default_only=True))
    assert "registry-mutation" not in out


def test_checked_in_baseline_is_empty():
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    assert baseline == []
