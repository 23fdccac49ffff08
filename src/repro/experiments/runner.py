"""The single campaign entry point: ``run(spec) -> CampaignResult``.

``run`` resolves every component of an :class:`ExperimentSpec` through the
central registries, assembles the task-pluggable
:class:`~repro.alficore.campaign.CampaignCore`, hands it to the selected
execution backend and returns a structured :class:`CampaignResult`.  Given
a list of specs that differ only in their faults, it runs them as one core's
points in one pass over the images and returns one result per spec (a sweep
runs its grid this way); ``run(spec)`` is that group of one.

Pre-built in-memory objects (a fitted model, a custom dataset, an existing
``ptfiwrap``, a shared golden cache) can be supplied via :class:`Artifacts`;
anything not supplied is built from the spec.  Both ways share one code
path — and byte-identical outputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.alficore.campaign import CampaignCore, normalize_campaign_scenario
from repro.alficore.digests import config_digest
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


#: Scenario fields that choose a campaign's faults and nothing else the
#: campaign reads: campaigns that differ in these only may run as one group.
#: ``random_seed`` also seeds a shuffled loader, so with ``dl_shuffle`` it
#: is not one of them.
FAULT_FIELDS = frozenset(
    {
        "injection_target",
        "rnd_value_type",
        "rnd_bit_range",
        "rnd_value_min",
        "rnd_value_max",
        "stuck_at_value",
        "quantization",
        "fault_persistence",
        "max_faults_per_image",
        "layer_types",
        "layer_range",
        "weighted_layer_selection",
        "fault_file",
        "random_seed",
    }
)


def group_key(spec: ExperimentSpec) -> str:
    """What a campaign shares with the others of a :func:`run` group: everything but its faults.

    The digest of the spec's document without its ``name``, ``output_dir``
    and scenario :data:`FAULT_FIELDS`.  Specs of equal keys run on the same
    model, dataset, task, protection, caching, batch size, policy and
    epochs.
    """
    document = spec.as_dict()
    for name in ("name", "output_dir", "sweep"):
        document.pop(name)
    faults = FAULT_FIELDS - ({"random_seed"} if spec.dl_shuffle else set())
    document["scenario"] = {
        name: value for name, value in document["scenario"].items() if name not in faults
    }
    return config_digest(document)


def _build_core(specs: list[ExperimentSpec], plugin: Any, artifacts: Artifacts) -> CampaignCore:
    """The core of the campaigns ``specs``, one point each.

    The points share what a group of :func:`run` requires to be shared:
    dataset, model, protection, input shape and options; each has its own
    scenario, error model, wrapper, writer and task.
    """
    first = specs[0]
    dataset = artifacts.dataset
    if dataset is None:
        dataset = DATASETS.get(first.dataset.name)(**first.dataset.params)
    model = artifacts.model
    if model is None and artifacts.wrapper is not None:
        # A handed-in wrapper's faults are drawn for its own model.
        model = artifacts.wrapper.model
    if model is None:
        model = plugin.build_model(first, dataset)
    resil_model = artifacts.resil_model
    if resil_model is None and first.protection is not None:
        resil_model = plugin.build_protection(first, model, dataset)
    input_shape = first.input_shape if first.input_shape is not None else plugin.default_input_shape
    golden_cache = artifacts.golden_cache
    if golden_cache is None and first.caching.golden_cache_mb > 0 and first.scenario.num_runs > 1:
        # A cache built here is private to this campaign, and a single-epoch
        # campaign visits every batch once: it could never hit, so recording
        # checkpoints for it would be pure overhead.
        golden_cache = GoldenCache(byte_budget=first.caching.golden_cache_mb * 2**20)
    core = None
    for spec in specs:
        scenario = normalize_campaign_scenario(spec.scenario, dataset)
        if scenario.model_name == "model":
            # The scenario's default sentinel: name result files and KPIs after
            # the spec's model instead of forcing every spec to repeat it.
            scenario = scenario.copy(model_name=spec.model.name)
        error_model = artifacts.error_model
        if error_model is None:
            error_model = ERROR_MODELS.get(scenario.rnd_value_type)(scenario)
        wrapper = artifacts.wrapper
        if wrapper is None:
            wrapper = ptfiwrap(model, scenario=scenario, input_shape=input_shape)
        writer = artifacts.writer
        if writer is None and spec.output_dir is not None:
            writer = CampaignResultWriter(Path(spec.output_dir), campaign_name=scenario.model_name)
        task = plugin.make_campaign_task(spec)
        if core is not None:
            core.add_point(task, scenario, writer, error_model, wrapper)
            continue
        core = CampaignCore(
            model,
            dataset,
            task,
            scenario=scenario,
            writer=writer,
            error_model=error_model,
            input_shape=input_shape,
            custom_monitors=artifacts.custom_monitors,
            dl_shuffle=first.dl_shuffle,
            resil_model=resil_model,
            wrapper=wrapper,
            prefix_reuse=first.caching.prefix_reuse,
            golden_cache=golden_cache,
        )
    return core


def run(
    spec: ExperimentSpec | Sequence[ExperimentSpec], artifacts: Artifacts | None = None
) -> CampaignResult | list[CampaignResult]:
    """Execute the campaign one :class:`ExperimentSpec` describes, or a group of them.

    A list of specs is a *group*: campaigns that differ only in their
    faults, run as the points of one :class:`CampaignCore` in one pass over
    the images.  Every step's golden pass runs (or is looked up) once for
    all of them, and each point runs its own faulty passes from it.  Each
    result, and every file it writes, is the one ``run(spec)`` of that spec
    alone gives: ``run(spec)`` is the group of one.  The specs of a group
    must agree on everything but the scenario's faults and their ``name``
    and ``output_dir``: their :func:`group_key` must be equal
    (:class:`SpecError` otherwise, and for an empty group).  A group of
    several runs in one process, on a backend that does not shard it.

    Args:
        spec: the declarative experiment description, or a group of them.
        artifacts: optional pre-built objects (see :class:`Artifacts`);
            anything not supplied is resolved through the registries.  A
            group shares them; a wrapper or a writer serves one point only.

    Returns:
        A structured :class:`CampaignResult` (summary, output-file map,
        lazy record iterators, shard-mergeable state); for a group, one per
        spec, in order.
    """
    alone = isinstance(spec, ExperimentSpec)
    specs = [spec] if alone else list(spec)
    if any(child.sweep is not None for child in specs):
        raise SpecError(
            "spec declares a sweep: section — run it with "
            "repro.experiments.run_sweep(spec) or `pytorchalfi sweep <spec>`; "
            "run() executes campaigns, a sweep is a family of them"
        )
    artifacts = artifacts if artifacts is not None else Artifacts()
    if len(specs) > 1 and (artifacts.wrapper is not None or artifacts.writer is not None):
        raise ValueError("a wrapper or a writer artifact serves one campaign, not a group")
    infos = []
    for child in specs:
        child.validate()
        execution_info = child.execution.as_dict()
        # resume is a property of *this invocation*, not of the campaign:
        # keeping it out of the context (and hence the meta file) is what
        # makes a resumed run's outputs byte-identical to an uninterrupted
        # one.  The ignored executor goes too, so an old spec file writes the
        # same meta.
        execution_info.pop("resume")
        if execution_info.pop("executor") != "module":
            warnings.warn(
                "execution.executor is ignored: campaigns always run the module path",
                FutureWarning,
                stacklevel=2,
            )
        infos.append(execution_info)
    if len({group_key(child) for child in specs}) != 1:
        raise SpecError(
            "a group of specs must not be empty, and its specs may differ only in their name, "
            "output_dir and the scenario's fault fields (runner.FAULT_FIELDS): a group builds "
            "one model, dataset and set of options, from its first spec"
        )
    plugin = TASKS.get(specs[0].task)
    core = _build_core(specs, plugin, artifacts)
    backend = BACKENDS.get(specs[0].backend.name)
    # The backend returns the first point's state and record files; the core
    # ran every point, and the others' are on their points.
    first = backend(core, specs[0].backend, specs[0].execution)
    ran = [first, *((point.task.state, point.streams) for point in core.points[1:])]
    results = []
    for child, point, execution_info, (state, stream_paths) in zip(specs, core.points, infos, ran):
        context = {
            "model_name": point.scenario.model_name,
            "execution": execution_info,
            "num_classes": (
                artifacts.num_classes
                if artifacts.num_classes is not None
                else plugin.resolve_num_classes(child, core.dataset, core.model)
            ),
            "task_options": dict(child.task_options),
        }
        evaluated, extras = plugin.evaluate(state, context)
        wrapper = point.wrappers["golden"]
        output_files = plugin.write_outputs(
            point.writer, point.scenario, wrapper, state, stream_paths, evaluated, context
        )
        results.append(
            CampaignResult(
                spec=child,
                task=child.task,
                summary=plugin.summarize(evaluated, output_files),
                output_files=output_files,
                state=state,
                results=evaluated,
                extras=extras,
                context=context,
                wrapper=wrapper,
                core=core,
            )
        )
    return results[0] if alone else results
