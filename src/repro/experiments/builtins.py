"""Default registry contents of the Experiment API.

Importing this module (done by ``repro.experiments``) absorbs the historic
ad-hoc lookups — ``repro.models.MODEL_REGISTRY`` and
``repro.models.detection.DETECTOR_REGISTRY`` — into the central ``MODELS``
registry, and registers the built-in datasets, error models, protection
policies, workload tasks and execution backends.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.alficore.campaign import ShardedCampaignExecutor
from repro.alficore.resilience import ExecutionPolicy
from repro.alficore.wrapper import _error_model_from_scenario
from repro.experiments.registry import (
    BACKENDS,
    DATASETS,
    MODELS,
    PROTECTIONS,
    TASKS,
)
from repro.experiments.spec import BackendSpec, ExecutionSpec
from repro.experiments.tasks import ClassificationExperimentTask, DetectionExperimentTask


# --------------------------------------------------------------------------- #
# models — absorb the legacy per-family registries
# --------------------------------------------------------------------------- #
def _register_models() -> None:
    from repro.models import MODEL_REGISTRY
    from repro.models.detection import DETECTOR_REGISTRY

    for name, factory in MODEL_REGISTRY.items():
        MODELS.register(name, factory, kind="classifier")
    for name, factory in DETECTOR_REGISTRY.items():
        MODELS.register(name, factory, kind="detector")


# --------------------------------------------------------------------------- #
# datasets
# --------------------------------------------------------------------------- #
def _register_datasets() -> None:
    from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset

    DATASETS.register(
        "synthetic-classification", SyntheticClassificationDataset, task="classification"
    )
    DATASETS.register("synthetic-coco", CocoLikeDetectionDataset, task="detection")


# --------------------------------------------------------------------------- #
# error models — one factory per ``rnd_value_type``
# --------------------------------------------------------------------------- #
def _register_error_models() -> None:
    from repro.experiments.registry import register_error_model

    for value_type in ("bitflip", "number", "stuck_at"):
        # All built-in value types share the canonical scenario-driven
        # derivation (including the permanent-fault stuck-at rule), so a
        # registry-resolved error model is identical to the one the wrapper
        # would derive itself.  Registered through the same funnel plug-ins
        # use, so the registry and the scenario's legal value types have one
        # source of truth.
        register_error_model(value_type, _error_model_from_scenario)


# --------------------------------------------------------------------------- #
# protections
# --------------------------------------------------------------------------- #
def _make_protection_factory(protection_name: str) -> Callable:
    def factory(model: Any, dataset: Any, **params: Any) -> Any:
        from repro.alficore.protection import apply_protection, collect_activation_bounds

        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        bounds = collect_activation_bounds(model, [calibration])
        return apply_protection(model, bounds, protection_name, **params)

    factory.__name__ = f"{protection_name}_protection"
    return factory


def _register_protections() -> None:
    for name in ("ranger", "clipper"):
        PROTECTIONS.register(name, _make_protection_factory(name))


# --------------------------------------------------------------------------- #
# tasks
# --------------------------------------------------------------------------- #
def _register_tasks() -> None:
    TASKS.register("classification", ClassificationExperimentTask())
    TASKS.register("detection", DetectionExperimentTask())


# --------------------------------------------------------------------------- #
# backends
# --------------------------------------------------------------------------- #
def _execution_policy(execution: ExecutionSpec) -> ExecutionPolicy:
    """Map the spec's execution section onto the executor's policy."""
    return ExecutionPolicy(
        retries=execution.retries,
        shard_timeout=execution.shard_timeout,
        backoff=execution.backoff,
        resume=execution.resume,
    )


def serial_backend(
    core: Any, backend: BackendSpec, execution: ExecutionSpec
) -> tuple[Any, dict[str, str]]:
    """In-process execution; supports ``step_range`` campaign slices."""
    if backend.workers != 1:
        raise ValueError("the serial backend runs with workers=1; use backend 'sharded'")
    if execution.resume:
        raise ValueError(
            "execution.resume requires the 'sharded' backend (it resumes from "
            "committed shard directories)"
        )
    if backend.step_range is not None:
        start, stop = backend.step_range
        stream_paths = core.run(start, stop)
        return core.task.state, stream_paths
    stream_paths = core.run()
    return core.task.state, stream_paths


def sharded_backend(
    core: Any, backend: BackendSpec, execution: ExecutionSpec
) -> tuple[Any, dict[str, str]]:
    """Supervised contiguous-shard execution via :class:`ShardedCampaignExecutor`."""
    if backend.step_range is not None:
        raise ValueError("backend 'sharded' does not support step_range; use 'serial' slices")
    executor = ShardedCampaignExecutor(
        core,
        workers=backend.workers,
        num_shards=backend.num_shards,
        policy=_execution_policy(execution),
    )
    return executor.run()


def _register_backends() -> None:
    BACKENDS.register("serial", serial_backend)
    BACKENDS.register("sharded", sharded_backend)


def register_builtins() -> None:
    """Register every built-in component (once, at import of this module).

    The legacy model dicts are read here only; a model added later goes
    through :func:`repro.experiments.register_model`.
    """
    _register_models()
    _register_datasets()
    _register_error_models()
    _register_protections()
    _register_tasks()
    _register_backends()


register_builtins()
