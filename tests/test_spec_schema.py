"""What the experiment document's one schema must not move.

The fixtures under ``tests/fixtures/`` were captured at the commit before
the section declarations (``spec_field``) replaced the hand-written codecs:
spec file bytes, store run IDs, the argparse surface and the flag → spec
mapping of the flag-built subcommands.  ``scenario_pins.json`` was captured
at the commit before the scenario section joined those declarations: the
canonical document and run ID of a scenario that writes integral numbers,
and the metadata a campaign embeds in its fault file.  The last test holds the two prose
copies of the schema (``spec.py``'s docstring, ``docs/index.md``) against
the declarations.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.spec as spec_module
from repro.cli import _built_spec, build_parser
from repro.experiments import ExperimentSpec, run
from repro.experiments.campaigns.store import canonical_spec_document, point_run_id
from repro.experiments.spec import Section

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures"
EXAMPLE_SPECS = sorted((REPO / "examples" / "specs").glob("*.yml"))


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda path: path.stem)
def test_example_spec_bytes_are_unchanged(path):
    spec = ExperimentSpec.load(path)
    assert spec.to_yaml() == (FIXTURES / "specs" / f"{path.stem}.yml").read_text("utf-8")
    assert spec.to_json() == (FIXTURES / "specs" / f"{path.stem}.json").read_text("utf-8")


def test_run_ids_are_unchanged(monkeypatch):
    # The address also holds the kernel generation; pin the one of the capture.
    monkeypatch.setattr("repro.nn.functional.KERNEL_GENERATION", 2)
    weights = "0" * 16
    default = ExperimentSpec()
    assert point_run_id(canonical_spec_document(default), weights) == "bd8daa09af7a0ff4"
    protected = ExperimentSpec.load(REPO / "examples" / "specs" / "sharded_protection.yml")
    assert point_run_id(canonical_spec_document(protected), weights) == "675a8ed5cbcfcb38"
    assert sorted(canonical_spec_document(default)) == [
        "dataset", "dl_shuffle", "input_shape", "model", "protection", "scenario",
        "task", "task_options",
    ]


SCENARIO_PINS = json.loads((FIXTURES / "scenario_pins.json").read_text())


def test_integral_scenario_values_keep_their_bytes(monkeypatch):
    # rnd_value_min: -2 stays an integer in the document, num_runs: 2.0 becomes one.
    monkeypatch.setattr("repro.nn.functional.KERNEL_GENERATION", 2)
    canonical = canonical_spec_document(ExperimentSpec.from_dict(SCENARIO_PINS["spec"]))
    pinned = SCENARIO_PINS["canonical_document"]
    assert json.dumps(canonical, sort_keys=True) == json.dumps(pinned, sort_keys=True)
    assert point_run_id(canonical, "0" * 16) == SCENARIO_PINS["run_id"]


def test_fault_file_metadata_bytes_are_unchanged(tmp_path):
    spec = ExperimentSpec.from_dict(SCENARIO_PINS["spec"]).copy(output_dir=tmp_path)
    run(spec)
    with np.load(tmp_path / "lenet5_faults.npz", allow_pickle=False) as archive:
        assert str(archive["metadata"]) == SCENARIO_PINS["faults_metadata"]


def _surface(parser):
    rows = []
    for action in parser._actions:
        if "--help" in action.option_strings:
            continue
        metavar = action.metavar
        rows.append(
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
                "default": repr(action.default),
                "choices": list(action.choices) if action.choices is not None else None,
                "nargs": action.nargs,
                "metavar": list(metavar) if isinstance(metavar, tuple) else metavar,
                "required": action.required,
                "help": action.help,
            }
        )
    return rows


@pytest.mark.parametrize("command", ["run", "sweep", "run-imgclass", "run-objdet"])
def test_argparse_surface_is_unchanged(command):
    pinned = json.loads((FIXTURES / "cli_surface.json").read_text())[command]
    commands = build_parser()._subparsers._group_actions[0].choices
    assert _surface(commands[command]) == pinned


FLAG_CASES = json.loads((FIXTURES / "cli_flag_specs.json").read_text())


@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_flags_build_the_same_spec(case):
    argv = [arg.replace("{fixtures}", str(FIXTURES)) for arg in FLAG_CASES[case]["argv"]]
    spec = _built_spec(build_parser().parse_args(argv))
    assert spec.as_dict() == FLAG_CASES[case]["spec"]


def _declared_paths(section=ExperimentSpec, prefix=""):
    """Every ``section.field`` path of the :class:`Section` declarations."""
    for field in dataclasses.fields(section):
        yield prefix + field.name
        kind = field.metadata["kind"]
        if isinstance(kind, type) and issubclass(kind, Section):
            # Component references share one declaration; name the first.
            if kind is not spec_module.ComponentSpec or field.name == "model":
                yield from _declared_paths(kind, f"{prefix}{field.name}.")


def _yaml_block_paths(text):
    """Dotted key paths of an indented YAML block (comments included)."""
    paths, stack = set(), []
    for line in text.splitlines():
        body = line.lstrip(" #")
        key = body.split(":", 1)[0]
        if ":" not in body or not key.replace("_", "").isalnum():
            continue
        indent = len(line) - len(body)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        stack.append((indent, key))
        paths.add(".".join(name for _, name in stack))
    return paths


def _fenced_yaml_after(text, heading):
    section = text.split(heading, 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("source", ["spec.py docstring", "docs/index.md"])
def test_schema_prose_names_every_declared_field(source):
    if source == "docs/index.md":
        block = _fenced_yaml_after((REPO / "docs" / "index.md").read_text(), "## The experiment document")
    else:
        block = spec_module.__doc__.split("Schema (YAML)::", 1)[1]
    missing = sorted(set(_declared_paths()) - _yaml_block_paths(block))
    assert not missing, f"{source} omits declared spec fields: {missing}"
