"""Command-line interface for fault injection campaigns.

Exposes the declarative Experiment API as a console script (``pytorchalfi``):

* ``pytorchalfi run <spec.yml>`` — run a campaign described by an experiment
  specification file (YAML or JSON); the one entry point every workload
  shares.
* ``pytorchalfi sweep <spec.yml>`` — expand the spec's ``sweep:`` grid and
  run every point through the content-addressed campaign store; completed
  points are skipped, ``--resume`` continues an interrupted sweep, and
  ``--dry-run`` lists the points with their run IDs without executing.
* ``pytorchalfi validate <spec.yml ...>`` — load and validate spec files
  against the component registries (typos get did-you-mean suggestions).
* ``pytorchalfi run-imgclass`` / ``pytorchalfi run-objdet`` — flag-driven
  spec *builders* for the two built-in workloads; ``--save-spec`` writes the
  equivalent spec file for later ``run`` invocations.
* ``pytorchalfi analyze`` — post-process a stored campaign directory
  (bit-wise / layer-wise vulnerability breakdown).

Flags that set a spec field take their type, default and ``choices`` from
the field's declaration in :mod:`repro.experiments.spec` (choices follow the
registries, so registering a new model/protection/value type extends the
CLI help text); see the flag tables below.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Iterator, NamedTuple

import yaml

from repro.alficore import load_scenario
from repro.alficore.analysis import analyze_classification_campaign, analyze_detection_campaign
from repro.experiments import (
    ExperimentSpec,
    MODELS,
    PROTECTIONS,
    SpecError,
    StoreError,
    SweepError,
    TASKS,
    expand,
    run,
    run_sweep,
)
from repro.experiments.spec import field_kind, walk
from repro.experiments.sweep import resolve_store
from repro.visualization import comparison_table, sde_per_bit_chart, sde_per_layer_chart


class CliError(Exception):
    """A mistake in a spec or on the command line: ``error: ...``, exit code 1."""


@contextlib.contextmanager
def _spec_mistakes(*kinds: type[BaseException]) -> Iterator[None]:
    """Report what a bad spec file or flag raises (or the named ``kinds``) as
    :class:`CliError`.  Wraps spec loading and validation only: campaign-runtime
    failures keep their traceback — they are bugs, not spec mistakes."""
    try:
        yield
    except kinds or (ValueError, KeyError, FileNotFoundError, yaml.YAMLError) as error:
        raise CliError(str(error)) from error


def _optional_path(value: str) -> Path | None:
    """``--fault-file ""`` (e.g. an unset shell variable) means "not given"."""
    return Path(value) if value else None


# --------------------------------------------------------------------------- #
# flags that set spec fields
# --------------------------------------------------------------------------- #
class Flag(NamedTuple):
    """One flag and the dotted document ``paths`` its value is written to
    (none: CLI-only).  The first path's declaration in
    :mod:`repro.experiments.spec` supplies ``type``, ``choices``, ``nargs`` and
    ``default``; ``cli`` holds the argparse keywords that differ on purpose."""

    flag: str
    dest: str  # the argparse.Namespace attribute
    paths: tuple[str, ...]
    help: str | None
    cli: dict[str, Any]


def _flag(flag: str, paths: str = "", help: str | None = None, **cli: Any) -> Flag:
    return Flag(flag, flag.lstrip("-").replace("-", "_"), tuple(paths.split()), help, cli)


#: ``run-imgclass`` / ``run-objdet``: a spec built from flags.  ``--model``,
#: ``--num-classes`` and ``--protection`` get their per-workload defaults and
#: choices in :func:`build_parser`.
_CAMPAIGN_FLAGS = (
    _flag("--model", "model.name name scenario.model_name"),
    _flag("--num-classes", "model.params.num_classes dataset.params.num_classes", type=int),
    _flag("--protection", "protection.name"),
    _flag("--model-seed", "model.params.seed", type=int, default=0),
    _flag("--data-seed", "dataset.params.seed", type=int, default=0),
    # 40, not the scenario's 10 (the paper's default.yml): a flag-built
    # campaign should show non-trivial rates without further flags.
    _flag("--images", "scenario.dataset_size dataset.params.num_samples",
          "number of dataset images", default=40),
    _flag("--num-faults", "scenario.max_faults_per_image", "faults per image"),
    _flag("--num-runs", "scenario.num_runs", "epochs over the dataset"),
    # None, not the scenario's 1: an unset flag keeps the --scenario file's value.
    _flag("--batch-size", "scenario.batch_size",
          "images per batch (per_batch/per_epoch policies; per_image always uses 1)",
          default=None),
    _flag("--workers", "backend.workers",
          "worker processes for sharded campaign execution (1 = serial)"),
    _flag("--retries", "execution.retries",
          "extra attempts per failed campaign shard before giving up"),
    _flag("--shard-timeout", "execution.shard_timeout",
          "per-shard wall-clock deadline; a hung shard is killed and retried "
          "(workers > 1 only)", metavar="SECONDS"),
    _flag("--resume", "execution.resume",
          "resume an interrupted campaign from its committed shard directories, "
          "re-running only the shards not yet completed"),
    _flag("--no-prefix-reuse", "caching.prefix_reuse",
          "escape hatch: run the faulty pass as a full forward instead of a "
          "suffix-only forward from the first faulted layer"),
    # 256, not the schema's 0 (no cache): the command line is for interactive
    # multi-epoch runs, where the cache pays for itself.
    _flag("--golden-cache", "caching.golden_cache_mb",
          "in-memory budget (MB) of the epoch-invariant golden cache; 0 disables it",
          default=256, metavar="MB"),
    # weights / exponent bits, not the scenario's neurons / all bits: the
    # quickest campaign that shows silent data errors at all.
    _flag("--target", "scenario.injection_target", "fault injection target", default="weights"),
    _flag("--value-type", "scenario.rnd_value_type", "how the targeted value is corrupted"),
    _flag("--bit-range", "scenario.rnd_bit_range", "inclusive bit range for bit flips",
          default=(23, 30), metavar=("LOW", "HIGH")),
    _flag("--inj-policy", "scenario.inj_policy", "how long one fault set stays active"),
    _flag("--seed", "scenario.random_seed", "campaign random seed"),
    _flag("--scenario", help="optional scenario yml file", type=Path),
    _flag("--fault-file", "scenario.fault_file", "reuse a stored fault matrix",
          type=_optional_path),
    # The schema's null writes no files; a command-line run is for its files.
    _flag("--output-dir", "output_dir", default=Path("campaign_output")),
    _flag("--save-spec", type=Path, metavar="SPEC",
          help="also write the equivalent experiment spec file (YAML/JSON by suffix)"),
)

#: ``run <spec>``: overrides of a loaded spec; unset flags keep the spec's value.
_RUN_FLAGS = (
    _flag("--output-dir", "output_dir", "override the spec's output directory"),
    _flag("--workers", "backend.workers", "override the spec's backend workers"),
    _flag("--retries", "execution.retries", "override the spec's per-shard retry budget"),
    _flag("--shard-timeout", "execution.shard_timeout",
          "override the spec's per-shard wall-clock deadline", metavar="SECONDS"),
    _flag("--resume", "execution.resume",
          "resume an interrupted campaign from its committed shard directories"),
)

#: the two flag-built workloads: what the flags do not say
_WORKLOADS = {
    "run-imgclass": {
        "task": "classification",
        "dataset": {"name": "synthetic-classification", "params": {"noise": 0.25}},
    },
    "run-objdet": {"task": "detection", "dataset": {"name": "synthetic-coco"}},
}


def _schema_keywords(flag: Flag, override: bool) -> dict[str, Any]:
    """The argparse keywords the flag's first document path declares."""
    field, rest = walk(flag.paths[0]) if flag.paths else (None, [])
    if field is None or rest:  # CLI-only, or a free-form params key
        return {}
    kind = field_kind(field)
    default = None if field.default is dataclasses.MISSING else field.default
    if kind == "bool":
        return {"action": "store_true"}  # sets the field to the opposite of its default
    keywords: dict[str, Any] = {"default": None if override else default}
    if isinstance(default, tuple):
        keywords.update(type=type(default[0]), nargs=len(default))
    elif kind in ("int", "float", "path"):
        keywords["type"] = {"int": int, "float": float, "path": Path}[kind]
    if field.metadata.get("choices") is not None:
        keywords["choices"] = list(field.metadata["choices"]())
    return keywords


def _add_flags(
    parser: argparse.ArgumentParser, flags: tuple[Flag, ...], override: bool = False, **extra: Any
) -> None:
    """Add ``flags`` to ``parser``; ``extra`` maps a flag's dest to further
    argparse keywords, or to ``None`` to leave the flag out."""
    for flag in flags:
        more = extra.get(flag.dest, {})
        if more is not None:
            keywords = {**_schema_keywords(flag, override), **flag.cli, **more}
            parser.add_argument(flag.flag, help=flag.help, **keywords)


def _with_flags(spec: ExperimentSpec, given: dict[str, Any], flags: tuple[Flag, ...]) -> ExperimentSpec:
    """``spec`` with every given flag written to its document path(s)."""
    assignments: dict[str, Any] = {}
    for flag in flags:
        value = given.get(flag.dest)
        if flag.paths and value is not None and value is not False:
            if value is True:
                value = not walk(flag.paths[0])[0].default
            assignments.update(dict.fromkeys(flag.paths, value))
    workers = assignments.get("backend.workers", spec.backend.workers)
    resume = assignments.get("execution.resume", spec.execution.resume)
    if spec.backend.name == "serial" and (workers > 1 or resume):
        # Resume lives in the sharded executor (with workers=1 the shards
        # still run in-process).  Registered custom backends keep
        # their name: they own their parallelism.
        assignments["backend.name"] = "sharded"
    return spec.updated(assignments)


def _built_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The experiment spec a ``run-imgclass``/``run-objdet`` call describes."""
    document = dict(_WORKLOADS[args.command])
    if args.scenario is not None:
        # The file is the base; every flag with a value overrides it.
        document["scenario"] = load_scenario(args.scenario).as_dict()
    given = dict(vars(args))
    if given.get("protection") == "none":
        del given["protection"]
    return _with_flags(ExperimentSpec.from_dict(document), given, _CAMPAIGN_FLAGS)


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _print_result_files(output_files: dict[str, str]) -> None:
    print("\nresult files:")
    for kind, path in output_files.items():
        print(f"  {kind:15s} {path}")


def _execute_spec(spec: ExperimentSpec, save_spec: Path | None = None) -> int:
    with _spec_mistakes():
        spec.validate(registries=True)
        if save_spec is not None:
            # Only validated specs are persisted — a saved spec must be
            # runnable by a later ``pytorchalfi run``.
            spec.save(save_spec)
            print(f"experiment spec written to {save_spec}")
    result = run(spec)
    plugin = TASKS.get(spec.task)
    print(plugin.report(result, spec))
    if result.output_files:
        _print_result_files(result.output_files)
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    with _spec_mistakes():
        spec = ExperimentSpec.load(args.spec)
        if spec.sweep is not None:
            raise CliError(f"{args.spec} declares a sweep: section; use `pytorchalfi sweep`")
        spec = _with_flags(spec, vars(args), _RUN_FLAGS)
    return _execute_spec(spec)


def _cmd_run_built(args: argparse.Namespace) -> int:
    with _spec_mistakes():
        spec = _built_spec(args)
    return _execute_spec(spec, args.save_spec)


def _cmd_sweep(args: argparse.Namespace) -> int:
    with _spec_mistakes():
        spec = ExperimentSpec.load(args.spec)
    if spec.sweep is None:
        raise CliError(f"{args.spec} declares no sweep: section; use `pytorchalfi run`")
    store = resolve_store(spec, args.store)
    if store is None:
        raise CliError(
            "no campaign store: pass --store, declare sweep.store in the "
            "spec, or set output_dir"
        )
    with _spec_mistakes(SweepError, StoreError, SpecError):
        if args.dry_run:
            plan = expand(spec)
            plan.resolve()
            print(f"sweep {spec.name!r}: {len(plan)} points, store {store.root}")
            for point in plan.points:
                status = "cached" if store.lookup(point.run_id) else "pending"
                print(f"  point {point.index:>3}  {point.run_id}  {status:8s}  {point.overrides}")
            return 0
        result = run_sweep(
            spec, store=store, workers=args.workers, resume=args.resume, progress=print,
        )
    print()
    print(result.format_table())
    print(
        f"\nsweep complete: points={len(result)} executed={result.executed} "
        f"cached={result.cached}"
    )
    stats = result.golden_cache_stats
    if stats is not None:
        print(
            f"golden cache: hits={stats['hits']} misses={stats['misses']} "
            f"entries={stats['entries']} mib={stats['nbytes'] / 2**20:.1f} "
            f"rejoined={stats['rejoins']}"
        )
    elif spec.caching.prefix_reuse:
        print(
            f"golden cache: shared by the shard workers through {store.golden_dir()}; "
            "their counts are not collected"
        )
    _print_result_files(result.table_files)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    failures = 0
    for path in args.specs:
        try:
            with _spec_mistakes():
                spec = ExperimentSpec.load(path)
                spec.validate(registries=True)
        except CliError as error:
            failures += 1
            print(f"FAIL  {path}: {error}")
        else:
            print(f"ok    {path}  ({spec.task}: {spec.model.name} on {spec.dataset.name})")
    return 1 if failures else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.kind == "imgclass":
        analysis = analyze_classification_campaign(args.output_dir, args.campaign)
    else:
        analysis = analyze_detection_campaign(args.output_dir, args.campaign)
    print(
        comparison_table(
            [
                {
                    "campaign": analysis.campaign_name,
                    "inferences": analysis.num_inferences,
                    "masked": analysis.masked_rate,
                    "SDE": analysis.sde_rate,
                    "DUE": analysis.due_rate,
                }
            ],
            ["campaign", "inferences", "masked", "SDE", "DUE"],
            title="Campaign post-processing",
        )
    )
    if analysis.sde_by_bit:
        print()
        print(sde_per_bit_chart(analysis.sde_by_bit, title="corruption rate per flipped bit"))
    if analysis.sde_by_layer:
        print()
        print(sde_per_layer_chart(analysis.sde_by_layer, title="corruption rate per injected layer"))
    if analysis.flip_direction_counts:
        print(f"\nflip directions: {dict(analysis.flip_direction_counts)}")
    if args.json_out is not None:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(analysis.as_dict(), indent=2))
        print(f"\nanalysis written to {args.json_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="pytorchalfi",
        description="Application-level fault injection campaigns for neural networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_cmd = subparsers.add_parser("run", help="run an experiment spec file")
    run_cmd.add_argument("spec", type=Path, help="experiment spec (YAML or JSON)")
    _add_flags(run_cmd, _RUN_FLAGS, override=True)
    run_cmd.set_defaults(handler=_cmd_run_spec)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter-grid sweep through the campaign store"
    )
    sweep.add_argument("spec", type=Path, help="experiment spec with a sweep: section")
    sweep.add_argument(
        "--store", type=Path, default=None,
        help="campaign store directory (default: the spec's sweep.store, then "
        "<output_dir>/sweep_store)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes per grid point (sharded execution when > 1); "
        "does not affect run IDs, so cached points still match",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep: skip store-committed points and "
        "continue the in-flight point from its committed shards",
    )
    sweep.add_argument(
        "--dry-run", action="store_true",
        help="list the expanded points with run IDs and cached/pending state "
        "without executing anything",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    validate = subparsers.add_parser("validate", help="validate experiment spec files")
    validate.add_argument("specs", type=Path, nargs="+", help="spec files to check")
    validate.set_defaults(handler=_cmd_validate)

    imgclass = subparsers.add_parser("run-imgclass", help="run a classification campaign")
    _add_flags(
        imgclass, _CAMPAIGN_FLAGS,
        model={"choices": MODELS.names(kind="classifier"), "default": "lenet5"},
        num_classes={"default": 10},
        protection={"choices": ["none", *PROTECTIONS.names()], "default": "none"},
    )
    imgclass.set_defaults(handler=_cmd_run_built)

    objdet = subparsers.add_parser("run-objdet", help="run an object-detection campaign")
    _add_flags(
        objdet, _CAMPAIGN_FLAGS,
        model={"choices": MODELS.names(kind="detector"), "default": "yolov3"},
        num_classes={"default": 5},
        protection=None,
    )
    objdet.set_defaults(handler=_cmd_run_built)

    analyze = subparsers.add_parser("analyze", help="post-process a stored campaign")
    analyze.add_argument("--output-dir", type=Path, required=True)
    analyze.add_argument("--campaign", type=str, required=True, help="campaign (file prefix) name")
    analyze.add_argument("--kind", choices=("imgclass", "objdet"), default="imgclass")
    analyze.add_argument("--json-out", type=Path, default=None, help="write the analysis as JSON")
    analyze.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
