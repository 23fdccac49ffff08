"""The single campaign entry point: ``run(spec) -> CampaignResult``.

``run`` resolves every component of an :class:`ExperimentSpec` through the
central registries, assembles the task-pluggable
:class:`~repro.alficore.campaign.CampaignCore`, hands it to the selected
execution backend and returns a structured :class:`CampaignResult`.

Pre-built in-memory objects (a fitted model, a custom dataset, an existing
``ptfiwrap``, a shared golden cache) can be supplied via :class:`Artifacts`;
anything not supplied is built from the spec.  Both ways share one code
path — and byte-identical outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.alficore.campaign import CampaignCore, normalize_campaign_scenario
from repro.alficore.goldencache import GoldenCache
from repro.alficore.results import CampaignResultWriter
from repro.alficore.wrapper import ptfiwrap
from repro.experiments.registry import BACKENDS, DATASETS, ERROR_MODELS, TASKS
from repro.experiments.result import CampaignResult
from repro.experiments.spec import ExperimentSpec, SpecError


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
    )


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
    if spec.sweep is not None:
        raise SpecError(
            "spec declares a sweep: section — run it with "
            "repro.experiments.run_sweep(spec) or `pytorchalfi sweep <spec>`; "
            "run() executes exactly one campaign"
        )
    artifacts = artifacts if artifacts is not None else Artifacts()
    if artifacts.golden_cache is not None and artifacts.custom_monitors:
        # A cache handed in may have been filled by other campaigns, and its
        # entries say whether *their* monitors saw an event on a golden pass.
        raise ValueError(
            "Artifacts.golden_cache cannot be combined with custom_monitors: a "
            "shared cache records whether each golden pass was clean under the "
            "monitors of the campaign that filled it"
        )
    plugin = TASKS.get(spec.task)
    spec.validate()
    execution_info = spec.execution.as_dict()
    # resume is a property of *this invocation*, not of the campaign: keeping
    # it out of the context (and hence the meta file) is what makes a resumed
    # run's outputs byte-identical to an uninterrupted one.  The ignored
    # executor goes too, so an old spec file writes the same meta.
    execution_info.pop("resume")
    if execution_info.pop("executor") != "module":
        warnings.warn(
            "execution.executor is ignored: campaigns always run the module path",
            FutureWarning,
            stacklevel=2,
        )
    core = _build_core(spec, plugin, artifacts)
    backend = BACKENDS.get(spec.backend.name)
    state, stream_paths = backend(core, spec.backend, spec.execution)
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
