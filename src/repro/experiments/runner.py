"""The single campaign entry point: ``run(spec) -> CampaignResult``.

``run`` resolves every component of an :class:`ExperimentSpec` through the
central registries, assembles the task-pluggable
:class:`~repro.alficore.campaign.CampaignCore`, hands it to the selected
execution backend and returns a structured :class:`CampaignResult`.

Pre-built in-memory objects (a fitted model, a custom dataset, an existing
``ptfiwrap`` or even a fully configured ``CampaignCore``) can be supplied
via :class:`Artifacts`; anything not supplied is built from the spec.  The
deprecated facades delegate here with their already-constructed objects, so
facade runs and pure-spec runs share one code path — and byte-identical
outputs.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.alficore.campaign import CampaignCore, normalize_campaign_scenario
from repro.alficore.scenario import ScenarioConfig
from repro.alficore.goldencache import GoldenCache
from repro.alficore.results import CampaignResultWriter
from repro.alficore.wrapper import ptfiwrap
from repro.experiments.registry import BACKENDS, DATASETS, ERROR_MODELS, TASKS
from repro.experiments.result import CampaignResult
from repro.experiments.spec import (
    BackendSpec,
    CachingSpec,
    ComponentSpec,
    ExperimentSpec,
    SpecError,
)


def facade_spec(
    *,
    name: str,
    task: str,
    scenario: ScenarioConfig,
    workers: int = 1,
    num_shards: int | None = None,
    prefix_reuse: bool = True,
    input_shape: tuple[int, ...] | None = None,
    dl_shuffle: bool = False,
    output_dir: Path | None = None,
    task_options: dict | None = None,
) -> ExperimentSpec:
    """The spec a deprecated facade's configuration describes.

    Model and dataset are placeholders (the facade supplies the real objects
    through :class:`Artifacts`); the backend mirrors the facade's historic
    executor choice: any sharding request selects the sharded backend.
    """
    sharded = workers > 1 or (num_shards or 1) > 1
    # The facades accepted empty model names (result files like
    # "_corrupted_results.csv"); keep that working through spec validation.
    name = name or "campaign"
    return ExperimentSpec(
        name=name,
        task=task,
        model=ComponentSpec(name),
        dataset=ComponentSpec("in-memory"),
        scenario=scenario,
        backend=BackendSpec(
            name="sharded" if sharded else "serial", workers=workers, num_shards=num_shards
        ),
        caching=CachingSpec(prefix_reuse=prefix_reuse),
        input_shape=input_shape,
        dl_shuffle=dl_shuffle,
        output_dir=output_dir,
        task_options=dict(task_options or {}),
    )


def facade_run_scenario(
    base: ScenarioConfig,
    *,
    num_faults: int,
    inj_policy: str,
    num_runs: int,
    model_name: str,
    fault_file: str = "",
) -> ScenarioConfig:
    """The run-scenario one facade campaign call describes.

    An explicit (non-empty) ``fault_file`` argument overrides; a fault_file
    declared in the base scenario keeps replaying its stored matrix.
    """
    overrides: dict = {
        "max_faults_per_image": num_faults,
        "inj_policy": inj_policy,
        "num_runs": num_runs,
        "model_name": model_name,
    }
    if fault_file:
        overrides["fault_file"] = fault_file
    return base.copy(**overrides)


@dataclass
class Artifacts:
    """Pre-built objects overriding registry resolution in :func:`run`."""

    model: object | None = None
    resil_model: object | None = None
    dataset: object | None = None
    wrapper: ptfiwrap | None = None
    writer: CampaignResultWriter | None = None
    error_model: object | None = None
    custom_monitors: list[Callable] | None = None
    golden_cache: GoldenCache | None = None
    num_classes: int | None = None
    core: CampaignCore | None = None


def _build_core(spec: ExperimentSpec, plugin: Any, artifacts: Artifacts) -> CampaignCore:
    dataset = artifacts.dataset
    if dataset is None:
        dataset = DATASETS.get(spec.dataset.name)(**spec.dataset.params)
    scenario = normalize_campaign_scenario(spec.scenario, dataset)
    if scenario.model_name == "model":
        # The scenario's default sentinel: name result files and KPIs after
        # the spec's model instead of forcing every spec to repeat it.
        scenario = scenario.copy(model_name=spec.model.name)
    model = artifacts.model if artifacts.model is not None else plugin.build_model(spec, dataset)
    resil_model = artifacts.resil_model
    if resil_model is None and spec.protection is not None:
        resil_model = plugin.build_protection(spec, model, dataset)
    error_model = artifacts.error_model
    if error_model is None:
        error_model = ERROR_MODELS.get(scenario.rnd_value_type)(scenario)
    input_shape = spec.input_shape if spec.input_shape is not None else plugin.default_input_shape
    wrapper = artifacts.wrapper
    if wrapper is None:
        wrapper = ptfiwrap(model, scenario=scenario, input_shape=input_shape)
    writer = artifacts.writer
    if writer is None and spec.output_dir is not None:
        writer = CampaignResultWriter(Path(spec.output_dir), campaign_name=scenario.model_name)
    golden_cache = artifacts.golden_cache
    if golden_cache is None and spec.caching.golden_cache_mb > 0 and scenario.num_runs > 1:
        # A cache built here is private to this campaign, and a single-epoch
        # campaign visits every batch once: it could never hit, so recording
        # checkpoints for it would be pure overhead.
        golden_cache = GoldenCache(byte_budget=spec.caching.golden_cache_mb * 2**20)
    return CampaignCore(
        model,
        dataset,
        plugin.make_campaign_task(spec),
        scenario=scenario,
        writer=writer,
        error_model=error_model,
        input_shape=input_shape,
        custom_monitors=artifacts.custom_monitors,
        dl_shuffle=spec.dl_shuffle,
        resil_model=resil_model,
        wrapper=wrapper,
        prefix_reuse=spec.caching.prefix_reuse,
        golden_cache=golden_cache,
        executor=spec.execution.executor,
    )


def _call_backend(
    backend: Callable, core: CampaignCore, spec: ExperimentSpec
) -> tuple[Any, dict[str, str]]:
    """Invoke a backend, passing the execution section when it accepts one.

    Built-in backends take ``(core, backend_spec, execution_spec)``; custom
    backends registered before the execution section existed keep their
    historic two-argument signature and simply run without fault-tolerance
    knobs.
    """
    try:
        parameters = inspect.signature(backend).parameters
    except (TypeError, ValueError):
        parameters = None
    if parameters is not None and len(parameters) >= 3:
        return backend(core, spec.backend, spec.execution)
    return backend(core, spec.backend)


def run(spec: ExperimentSpec, artifacts: Artifacts | None = None) -> CampaignResult:
    """Execute the campaign one :class:`ExperimentSpec` describes.

    Args:
        spec: the declarative experiment description.
        artifacts: optional pre-built objects (see :class:`Artifacts`);
            anything not supplied is resolved through the registries.

    Returns:
        A structured :class:`CampaignResult` (summary, output-file map,
        lazy record iterators, shard-mergeable state).
    """
    from repro.experiments.builtins import register_builtins

    if spec.sweep is not None:
        raise SpecError(
            "spec declares a sweep: section — run it with "
            "repro.experiments.run_sweep(spec) or `pytorchalfi sweep <spec>`; "
            "run() executes exactly one campaign"
        )
    # Idempotent re-sync: pick up components added to the legacy
    # MODEL_REGISTRY/DETECTOR_REGISTRY dicts after repro.experiments was
    # first imported.
    register_builtins()
    artifacts = artifacts if artifacts is not None else Artifacts()
    plugin = TASKS.get(spec.task)
    spec.validate()
    core = artifacts.core
    if core is None:
        core = _build_core(spec, plugin, artifacts)
    elif core.writer is None and spec.output_dir is not None:
        # A pre-built core without a writer still honors the spec's
        # output_dir; streams open from core.writer at run start.
        core.writer = CampaignResultWriter(
            Path(spec.output_dir), campaign_name=core.scenario.model_name
        )
    backend = BACKENDS.get(spec.backend.name)
    state, stream_paths = _call_backend(backend, core, spec)
    execution_info = spec.execution.as_dict()
    # resume is a property of *this invocation*, not of the campaign: keeping
    # it out of the context (and hence the meta file) is what makes a resumed
    # run's outputs byte-identical to an uninterrupted one.
    execution_info.pop("resume", None)
    context = {
        "model_name": core.scenario.model_name,
        "execution": execution_info,
        "num_classes": (
            artifacts.num_classes
            if artifacts.num_classes is not None
            else plugin.resolve_num_classes(spec, core.dataset, core.model)
        ),
        "task_options": dict(spec.task_options),
    }
    evaluated, extras = plugin.evaluate(state, context)
    output_files = plugin.write_outputs(
        core.writer, core.scenario, core.wrapper, state, stream_paths, evaluated, context
    )
    return CampaignResult(
        spec=spec,
        task=spec.task,
        summary=plugin.summarize(evaluated, output_files),
        output_files=output_files,
        state=state,
        results=evaluated,
        extras=extras,
        context=context,
        wrapper=core.wrapper,
        core=core,
    )
