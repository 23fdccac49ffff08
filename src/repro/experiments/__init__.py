"""The unified declarative Experiment API — one spec, one entry point.

A fault-injection campaign is a handful of orthogonal choices: model,
dataset, error model, protection policy, task, execution backend, caching.
This package turns each choice into a *registry* entry and the whole
campaign into one versioned, serializable :class:`ExperimentSpec`:

* :class:`ExperimentSpec` — declarative description, YAML/JSON round-trip
  with ``schema_version`` + unknown-key validation (:mod:`.spec`).
* :class:`Experiment` / :meth:`Experiment.builder` — fluent programmatic
  construction (:mod:`.builder`).
* :func:`run` — the single entry point: ``run(spec) -> CampaignResult``
  (:mod:`.runner`); pre-built objects can be supplied via
  :class:`Artifacts`.
* :class:`CampaignResult` — structured result handle: summary, output-file
  map, lazy record iterators, shard ``merge()`` (:mod:`.result`).
* :func:`run_sweep` / :func:`expand` — declarative multi-run campaigns: a
  ``sweep:`` section on the spec expands into a deterministic grid of child
  specs, executed through a content-addressed :class:`CampaignStore` so
  completed points are skipped and interrupted sweeps resume
  (:mod:`.sweep`, :mod:`.campaigns`).
* ``register_model`` / ``register_dataset`` / ``register_error_model`` /
  ``register_protection`` / ``register_task`` / ``register_backend`` —
  central registries (:mod:`.registry`); new workloads are registrations,
  not new entry points.
"""

from repro.experiments.builder import Experiment, ExperimentBuilder
from repro.experiments.campaigns import CampaignStore, StoredPoint, StoreError
from repro.experiments.registry import (
    BACKENDS,
    DATASETS,
    ERROR_MODELS,
    MODELS,
    PROTECTIONS,
    TASKS,
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
    register_backend,
    register_dataset,
    register_error_model,
    register_model,
    register_protection,
    register_task,
    unregister_error_model,
)
from repro.experiments.result import CampaignResult
from repro.experiments.runner import Artifacts, run
from repro.experiments.spec import (
    SPEC_SCHEMA_VERSION,
    BackendSpec,
    CachingSpec,
    ComponentSpec,
    ExecutionSpec,
    ExperimentSpec,
    SpecError,
    SweepSpec,
    load_spec,
)
from repro.experiments.sweep import (
    SweepError,
    SweepPlan,
    SweepPoint,
    SweepPointOutcome,
    SweepResult,
    expand,
    run_sweep,
)
from repro.experiments.tasks import (
    ClassificationExperimentTask,
    DetectionExperimentTask,
    ExperimentTask,
)

# Populate the registries with the built-in components.
from repro.experiments import builtins as _builtins  # noqa: F401  (side effect)

__all__ = [
    "Artifacts",
    "BACKENDS",
    "BackendSpec",
    "CachingSpec",
    "CampaignResult",
    "CampaignStore",
    "ClassificationExperimentTask",
    "ComponentSpec",
    "DATASETS",
    "DetectionExperimentTask",
    "DuplicateComponentError",
    "ERROR_MODELS",
    "ExecutionSpec",
    "Experiment",
    "ExperimentBuilder",
    "ExperimentSpec",
    "ExperimentTask",
    "MODELS",
    "PROTECTIONS",
    "Registry",
    "RegistryError",
    "SPEC_SCHEMA_VERSION",
    "SpecError",
    "StoreError",
    "StoredPoint",
    "SweepError",
    "SweepPlan",
    "SweepPoint",
    "SweepPointOutcome",
    "SweepResult",
    "SweepSpec",
    "TASKS",
    "UnknownComponentError",
    "expand",
    "load_spec",
    "register_backend",
    "register_dataset",
    "register_error_model",
    "register_model",
    "register_protection",
    "register_task",
    "run",
    "run_sweep",
    "unregister_error_model",
]
