"""Fluent programmatic construction of experiment specs.

::

    from repro.experiments import Experiment

    result = (
        Experiment.builder()
        .name("quickstart")
        .model("lenet5", num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=30, num_classes=10)
        .scenario(injection_target="weights", rnd_bit_range=(0, 31))
        .backend("sharded", workers=2, num_shards=3)
        .output_dir("campaign_output")
        .run()
    )
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.alficore.scenario import ScenarioConfig
from repro.experiments.result import CampaignResult
from repro.experiments.spec import (
    BackendSpec,
    CachingSpec,
    ComponentSpec,
    ExecutionSpec,
    ExperimentSpec,
    SweepSpec,
)


class ExperimentBuilder:
    """Accumulates spec fields as given; ``build()`` checks and coerces them
    against the section declarations like a spec file's, and returns the spec."""

    def __init__(self) -> None:
        self._spec = ExperimentSpec()

    def name(self, name: str) -> "ExperimentBuilder":
        """Set the experiment name (used in result file names)."""
        self._spec.name = name
        return self

    def task(self, name: str) -> "ExperimentBuilder":
        """Select the task plugin (``"classification"``, ``"detection"``, ...)."""
        self._spec.task = name
        return self

    def model(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Select the model component and its constructor params."""
        self._spec.model = ComponentSpec(name, params)
        return self

    def dataset(self, name: str, **params: Any) -> "ExperimentBuilder":
        """Select the dataset component and its constructor params."""
        self._spec.dataset = ComponentSpec(name, params)
        return self

    def scenario(
        self, scenario: ScenarioConfig | None = None, **overrides: Any
    ) -> "ExperimentBuilder":
        """Set the scenario: an explicit config, field overrides, or both.

        With neither argument the accumulated scenario is left untouched.
        """
        base = scenario if scenario is not None else self._spec.scenario
        self._spec.scenario = base.copy(**overrides) if overrides else base
        return self

    def protection(self, name: str | None, **params: Any) -> "ExperimentBuilder":
        """Select a protection mechanism (``None`` removes it)."""
        self._spec.protection = ComponentSpec(name, params) if name else None
        return self

    def backend(self, *values: Any, **fields: Any) -> "ExperimentBuilder":
        """Select the execution backend: the :class:`BackendSpec` fields
        (``name`` — ``"serial"`` or ``"sharded"`` —, ``workers``, ...)."""
        self._spec.backend = BackendSpec(*values, **fields)
        return self

    def caching(self, *values: Any, **fields: Any) -> "ExperimentBuilder":
        """Golden-cache budget (MiB) and prefix-reuse toggle: the
        :class:`CachingSpec` fields."""
        self._spec.caching = CachingSpec(*values, **fields)
        return self

    def execution(self, *values: Any, **fields: Any) -> "ExperimentBuilder":
        """Execution knobs: the :class:`ExecutionSpec` fields — fault
        tolerance (``retries`` / ``shard_timeout`` / ``backoff`` /
        ``resume``; ``executor`` is ignored, see :class:`ExecutionSpec`)."""
        self._spec.execution = ExecutionSpec(*values, **fields)
        return self

    def sweep(self, *values: Any, **fields: Any) -> "ExperimentBuilder":
        """Declare a parameter grid: the :class:`SweepSpec` fields.

        ``axes`` maps dotted axis paths (``scenario.layer_range``,
        ``model.params.seed``, ...) to value lists — their cartesian product
        in declaration order — and ``points`` appends explicit extra grid
        points.  A spec with a sweep runs through
        :func:`repro.experiments.run_sweep` (``builder.run()`` refuses it).
        """
        self._spec.sweep = SweepSpec(*values, **fields)
        return self

    def input_shape(self, *shape: int) -> "ExperimentBuilder":
        """Per-sample input shape (e.g. ``input_shape(3, 32, 32)``)."""
        self._spec.input_shape = shape or None
        return self

    def shuffle(self, dl_shuffle: bool = True) -> "ExperimentBuilder":
        """Toggle dataloader shuffling."""
        self._spec.dl_shuffle = dl_shuffle
        return self

    def output_dir(self, path: str | Path | None) -> "ExperimentBuilder":
        """Directory for result files (``None`` keeps results in memory)."""
        self._spec.output_dir = path
        return self

    def options(self, **task_options: Any) -> "ExperimentBuilder":
        """Merge task-specific options into ``task_options``."""
        self._spec.task_options.update(task_options)
        return self

    def build(self) -> ExperimentSpec:
        """Validate and return (a copy of) the accumulated spec."""
        return self._spec.copy()  # copy() re-validates the clone

    def run(self) -> CampaignResult:
        """Shortcut: build the spec and execute it."""
        return Experiment(self.build()).run()


class Experiment:
    """A spec plus conveniences: ``Experiment.builder()``, ``load``, ``run``."""

    def __init__(self, spec: ExperimentSpec) -> None:
        self.spec = spec

    @staticmethod
    def builder() -> ExperimentBuilder:
        """Start a fluent spec builder."""
        return ExperimentBuilder()

    @classmethod
    def load(cls, path: str | Path) -> "Experiment":
        """Load an experiment from a spec file (YAML or JSON)."""
        return cls(ExperimentSpec.load(path))

    def save(self, path: str | Path) -> Path:
        """Persist the spec (format chosen by suffix)."""
        return self.spec.save(path)

    def run(self, artifacts: Any = None) -> CampaignResult:
        """Execute the experiment through :func:`repro.experiments.run`."""
        from repro.experiments.runner import run

        return run(self.spec, artifacts=artifacts)
