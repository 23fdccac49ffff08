"""The declarative experiment specification.

One :class:`ExperimentSpec` describes a complete fault-injection campaign —
model, dataset, scenario, protection, task, execution backend and caching —
and round-trips to YAML/JSON with a ``schema_version`` and strict
unknown-key validation.  It is the single input of
:func:`repro.experiments.run`.

Every section of the document — the scenario
(:class:`~repro.alficore.scenario.ScenarioConfig`) included — is a
:class:`~repro.alficore.codec.Section` whose fields are declared once with
:func:`~repro.alficore.codec.spec_field`: kind, default, range or choices,
and whether the field determines results.  Parsing and the error messages
come from that one codec; the sweep-axis grammar
(:func:`validate_sweep_axis`), the campaign store's canonical document and
the CLI's flags read the same declarations through :func:`walk`.

Schema (YAML)::

    schema_version: 1
    name: quickstart
    task: classification            # registry: TASKS
    model:
      name: lenet5                  # registry: MODELS
      params: {num_classes: 10, seed: 0}
    dataset:
      name: synthetic-classification  # registry: DATASETS
      params: {num_samples: 30, num_classes: 10, noise: 0.25, seed: 1}
    protection: null                # or {name: ranger, params: {...}}
    scenario:                       # ScenarioConfig (the paper's default.yml)
      schema_version: 1
      dataset_size: 10              # > 0 images per epoch
      num_runs: 1                   # > 0 epochs over the dataset
      max_faults_per_image: 1       # > 0
      batch_size: 1                 # > 0
      injection_target: neurons     # neurons | weights
      inj_policy: per_image         # per_image | per_batch | per_epoch
      fault_persistence: transient  # transient | permanent
      rnd_value_type: bitflip       # bitflip | number | stuck_at | a registered error model
      rnd_bit_range: [0, 31]        # inclusive, 0 <= low <= high <= the quantization's top bit
      rnd_value_min: -1.0           # a number <= rnd_value_max
      rnd_value_max: 1.0            # a number
      quantization: float32         # float32 | float16 | float64 | int8 | int16 | int32
      stuck_at_value: 1             # 0 | 1
      layer_types: [conv2d, conv3d, fcc]  # non-empty; each conv2d | conv3d | fcc
      layer_range: null             # inclusive [start, end], 0 <= start <= end; null = all
      weighted_layer_selection: true  # true | false (Eq. 1 layer weighting)
      model_name: model             # names the result files
      dataset_name: dataset
      random_seed: 1234             # any integer
      fault_file: null              # a stored fault matrix to reuse
    backend:
      name: serial                  # registry: BACKENDS ("serial" | "sharded")
      workers: 1
      num_shards: null
      step_range: null              # optional [start, stop) slice of the campaign
    caching:
      golden_cache_mb: 0
      prefix_reuse: true
    execution:                      # how the campaign run is carried out
      retries: 2                    # extra attempts per failed shard
      shard_timeout: null           # per-shard wall-clock deadline (seconds)
      backoff: 0.5                  # base of the capped exponential re-queue delay
      resume: false                 # merge already committed shards from disk
      executor: module              # ignored; kept so old spec files load
    sweep: null                     # or a parameter grid (see SweepSpec):
    #   schema_version: 1
    #   axes:                       # cartesian product, declaration order
    #     scenario.layer_range: [[0, 0], [1, 1], [2, 2]]
    #     scenario.rnd_bit_range: [[23, 23], [30, 30]]
    #   points:                     # explicit extra grid points
    #     - {scenario.rnd_bit_range: [0, 0]}
    #   store: sweep_store          # campaign store directory (run_id-addressed)
    input_shape: null               # per-sample shape; task default when null
    dl_shuffle: false
    output_dir: null                # directory for result files; null = no files
    task_options: {}                # task-plugin specific knobs
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

import yaml

from repro.alficore.codec import Section, SpecError, _to_plain, field_kind, spec_field
from repro.alficore.scenario import ScenarioConfig

SPEC_SCHEMA_VERSION = 1
SWEEP_SCHEMA_VERSION = 1

#: the values ``execution.executor`` accepts (see :class:`ExecutionSpec`)
LEGACY_EXECUTORS = ("module", "interpreter", "fused")


# --------------------------------------------------------------------------- #
# the sections
# --------------------------------------------------------------------------- #
@dataclass
class ComponentSpec(Section):
    """A registry reference: component ``name`` plus factory ``params``."""

    LABEL = "component"
    SHORTHAND = "name"

    name: str = spec_field("str", required=True)
    params: dict = spec_field("mapping")


@dataclass
class BackendSpec(Section):
    """Execution backend selection (see ``BACKENDS`` registry)."""

    LABEL = "backend"
    SHORTHAND = "name"

    name: str = spec_field("str", "serial")
    workers: int = spec_field("int", 1, minimum=1)
    num_shards: int | None = spec_field("int", minimum=1)
    step_range: tuple[int, int] | None = spec_field("ints", length=2, minimum=0)

    def _check_rules(self) -> None:
        if self.name == "serial" and self.workers != 1:
            raise SpecError(
                f"backend 'serial' runs with workers=1 (got {self.workers}); "
                "use backend 'sharded' for parallel execution"
            )
        if self.name == "serial" and self.num_shards not in (None, 1):
            raise SpecError(
                f"backend 'serial' runs unsharded (got num_shards={self.num_shards}); "
                "use backend 'sharded' for shard partitioning"
            )
        if self.name == "sharded" and self.step_range is not None:
            raise SpecError(
                "backend 'sharded' does not support step_range; run 'serial' slices "
                "and combine them with CampaignResult.merge"
            )
        if self.step_range is not None and self.step_range[1] < self.step_range[0]:
            raise SpecError(f"backend.step_range {self.step_range} is not a valid [start, stop)")


@dataclass
class CachingSpec(Section):
    """Golden-cache budget and prefix-reuse switch."""

    LABEL = "caching"

    golden_cache_mb: int = spec_field("int", 0, minimum=0)
    prefix_reuse: bool = spec_field("bool", True)


@dataclass
class ExecutionSpec(Section):
    """Fault-tolerance knobs of the supervised campaign executor.

    Maps onto :class:`repro.alficore.resilience.ExecutionPolicy`: ``retries``
    extra attempts per failed shard, an optional per-shard wall-clock
    ``shard_timeout`` (seconds), the base ``backoff`` of the capped
    exponential re-queue delay, and ``resume`` to merge the shard
    directories an interrupted run committed instead of re-running them.
    ``executor`` is ignored: campaigns always run plan segments as module
    calls.  It is still accepted (and validated against the three names it
    once took) so that old spec files load; :func:`repro.experiments.run`
    warns once about a value other than ``"module"``.
    """

    LABEL = "execution"

    retries: int = spec_field("int", 2, minimum=0)
    shard_timeout: float | None = spec_field("float", positive=True)
    backoff: float = spec_field("float", 0.5, minimum=0)
    resume: bool = spec_field("bool", False)
    executor: str = spec_field("str", "module", choices=lambda: LEGACY_EXECUTORS)


@dataclass
class SweepSpec(Section):
    """A declarative parameter grid over experiment-spec fields.

    ``axes`` maps dotted axis paths (see :data:`SWEEP_AXIS_FORMS`) to their
    value lists; the grid is their cartesian product in *declaration order*
    (the last declared axis varies fastest).  ``points`` appends explicit
    grid points — mappings of axis paths to values — after the product, for
    the odd extra configurations a product cannot express.  ``store`` names
    the campaign-store directory holding the content-addressed per-point
    results (``<store>/<run_id>/``).
    """

    LABEL = "sweep"
    SCHEMA_VERSION = SWEEP_SCHEMA_VERSION

    axes: dict[str, list] = spec_field("mapping")
    points: list[dict] = spec_field("list")
    store: Path | None = spec_field("path")

    def _check_rules(self) -> None:
        if not self.axes and not self.points:
            raise SpecError("sweep declares neither axes nor points")
        for path, values in self.axes.items():
            validate_sweep_axis(path)
            if not isinstance(values, (list, tuple)) or not values:
                raise SpecError(
                    f"sweep axis {path!r} needs a non-empty list of values, got {values!r}"
                )
        for point in self.points:
            if not isinstance(point, dict) or not point:
                raise SpecError(
                    f"sweep.points entries must be non-empty mappings, got {point!r}"
                )
            for path in point:
                validate_sweep_axis(path)


@dataclass
class ExperimentSpec(Section):
    """Complete declarative description of one fault-injection experiment."""

    LABEL = "experiment spec"
    SCHEMA_VERSION = SPEC_SCHEMA_VERSION
    ROOT = True

    name: str = spec_field("str", "experiment")
    task: str = spec_field("str", "classification", canonical=True)
    model: ComponentSpec = spec_field(ComponentSpec, "lenet5", canonical=True)
    dataset: ComponentSpec = spec_field(
        ComponentSpec, "synthetic-classification", canonical=True
    )
    scenario: ScenarioConfig = spec_field(ScenarioConfig, {}, canonical=True)
    protection: ComponentSpec | None = spec_field(ComponentSpec, canonical=True)
    backend: BackendSpec = spec_field(BackendSpec, {})
    caching: CachingSpec = spec_field(CachingSpec, {})
    execution: ExecutionSpec = spec_field(ExecutionSpec, {})
    sweep: SweepSpec | None = spec_field(SweepSpec)
    input_shape: tuple[int, ...] | None = spec_field("ints", positive=True, canonical=True)
    dl_shuffle: bool = spec_field("bool", False, canonical=True)
    output_dir: Path | None = spec_field("path")
    task_options: dict = spec_field("mapping", canonical=True)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self, where: str | None = None, registries: bool = False) -> None:
        """Check structural consistency; with ``registries=True`` also check
        that every referenced component name is registered (did-you-mean
        errors for typos)."""
        super().validate(where)
        if not registries:
            return
        from repro.experiments.registry import (
            BACKENDS,
            DATASETS,
            ERROR_MODELS,
            MODELS,
            PROTECTIONS,
            TASKS,
        )

        plugin = TASKS.get(self.task)
        MODELS.get(self.model.name)
        model_kind = MODELS.metadata(self.model.name).get("kind")
        expected_kind = getattr(plugin, "model_kind", None)
        if model_kind is not None and expected_kind is not None and model_kind != expected_kind:
            choices = ", ".join(MODELS.names(kind=expected_kind)) or "none registered"
            raise SpecError(
                f"model {self.model.name!r} is registered as a {model_kind!r} but task "
                f"{self.task!r} expects a {expected_kind!r} model (choices: {choices})"
            )
        DATASETS.get(self.dataset.name)
        dataset_task = DATASETS.metadata(self.dataset.name).get("task")
        if dataset_task is not None and dataset_task != self.task:
            choices = ", ".join(DATASETS.names(task=self.task)) or "none registered"
            raise SpecError(
                f"dataset {self.dataset.name!r} is registered for task "
                f"{dataset_task!r} but the spec's task is {self.task!r} "
                f"(choices: {choices})"
            )
        BACKENDS.get(self.backend.name)
        ERROR_MODELS.get(self.scenario.rnd_value_type)
        if self.protection is not None:
            PROTECTIONS.get(self.protection.name)

    def _check_rules(self) -> None:
        if self.execution.resume and self.backend.name == "serial":
            raise SpecError(
                "execution.resume requires the 'sharded' backend: it resumes "
                "from committed shard directories"
            )
        if self.execution.resume and self.output_dir is None:
            raise SpecError(
                "execution.resume requires output_dir: the committed shard "
                "directories live there"
            )

    def updated(self, assignments: Mapping[str, Any]) -> "ExperimentSpec":
        """A new spec with each value set at its dotted document path.

        The one way a sweep axis, a CLI flag or an override reaches a spec:
        the value is written into the plain document (a null or missing
        section on the way becomes a mapping) and the document is parsed
        again, so every such value meets the same checks as a spec file.
        """
        document = self.as_dict()
        for path, value in assignments.items():
            *sections, leaf = path.split(".")
            node = document
            for key in sections:
                if not isinstance(node.get(key), dict):
                    node[key] = {}
                node = node[key]
            node[leaf] = _to_plain(value)
        return ExperimentSpec.from_dict(document)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_yaml(self) -> str:
        """The spec as a YAML document string."""
        return "# repro experiment specification\n" + yaml.safe_dump(
            self.as_dict(), default_flow_style=False, sort_keys=True
        )

    def to_json(self) -> str:
        """The spec as a JSON document string."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def save(self, path: str | Path) -> Path:
        """Write the spec to ``path`` (format chosen by suffix: .json or YAML)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = self.to_json() if path.suffix == ".json" else self.to_yaml()
        path.write_text(text, encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a YAML or JSON file."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"experiment spec not found: {path}")
        text = path.read_text(encoding="utf-8")
        data = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
        if not isinstance(data, dict):
            raise SpecError(f"spec file {path} does not contain a mapping")
        return cls.from_dict(data)


def load_spec(path: str | Path) -> ExperimentSpec:
    """Module-level alias of :meth:`ExperimentSpec.load`."""
    return ExperimentSpec.load(path)


# --------------------------------------------------------------------------- #
# dotted paths into the document
# --------------------------------------------------------------------------- #
def walk(path: str) -> tuple[dataclasses.Field | None, list[str]]:
    """Follow a dotted document path through the section declarations.

    Returns the last declared field reached and the path components left
    over: none when the path names a field, the free-form key below a
    ``mapping`` field, or the first name no section declares.
    """
    section, field, parts = ExperimentSpec, None, path.split(".")
    while parts and section is not None:
        found = next((f for f in dataclasses.fields(section) if f.name == parts[0]), None)
        if found is None:
            break
        field, parts = found, parts[1:]
        kind = field_kind(field)
        section = kind if isinstance(kind, type) else None
    return field, parts


def _axis_forms(field: dataclasses.Field, prefix: str = "") -> Iterator[str]:
    """The sweep-axis paths at and below one declared field: every value
    field, ``<key>`` for the free-form keys of a mapping field, and a
    nullable section also as a whole (it is switched on and off by value)."""
    path, kind = prefix + field.name, field_kind(field)
    if kind == "mapping":
        yield f"{path}.<key>"
    elif not isinstance(kind, type):
        yield path
    else:
        if field.default is None:
            yield path
        for child in dataclasses.fields(kind):
            yield from _axis_forms(child, f"{path}.")


#: sweep-axis grammar: dotted paths into the fields that determine results
SWEEP_AXIS_FORMS = tuple(
    form
    for root in dataclasses.fields(ExperimentSpec)
    if root.metadata["canonical"]
    for form in _axis_forms(root)
)


def validate_sweep_axis(path: str) -> None:
    """Check one sweep-axis path against :data:`SWEEP_AXIS_FORMS`.

    Raises :class:`SpecError` with a did-you-mean suggestion for typos.
    """
    if not isinstance(path, str) or not path:
        raise SpecError(f"sweep axis must be a non-empty string, got {path!r}")
    section, _, key = path.rpartition(".")
    if path in SWEEP_AXIS_FORMS or (key and f"{section}.<key>" in SWEEP_AXIS_FORMS):
        return
    root = path.split(".")[0]
    known_root = any(form.split(".")[0] == root for form in SWEEP_AXIS_FORMS)
    message = f"invalid sweep axis {path!r}: "
    message += "no such field" if known_root else f"unknown axis root {root!r}"
    suggestions = difflib.get_close_matches(path, SWEEP_AXIS_FORMS, n=3, cutoff=0.5)
    if suggestions:
        message += f"; did you mean {', '.join(repr(s) for s in suggestions)}?"
    raise SpecError(message + f" (axis forms: {', '.join(SWEEP_AXIS_FORMS)})")
