"""The task-agnostic campaign loop: :class:`CampaignCore`.

Dataset iteration, golden/faulty lock-step inference over the clone-free
fault group sessions and the stream lifecycle.  A campaign is a list of
*lanes* — the model under test and, optionally, its hardened ("resil")
variant under the same faults.  A lane is one model object with one forward
plan and (the primary lane) one monitor: its golden and its faulty pass run
on that same object, which the fault groups patch or hook while they are
open.  Outputs are interpreted by the
:class:`~repro.alficore.campaign.tasks.CampaignTask` the core is given.

A core runs a *group* of campaigns, its *points*, in one pass over the
images (a core built for one campaign is the group of one).  The points
share the lanes and the geometry (dataset, batch size, epochs, policy); each
has its own scenario, wrappers, fault groups, task and writer.  A step's
golden pass runs, or is looked up, once for every point, and each point's
faulty pass of the step runs from it: a sweep over fault scenarios reads
every image once.

The unit of execution is a *block*: up to :data:`_BLOCK_ROWS` rows of
consecutive steps of one lane, within one epoch and one ``run(start, stop)``
range (``per_image``: 16 steps).  Row *i* of a batched forward is the forward
of sample *i* alone, so the block's golden passes run as one stacked pass,
cut back into one entry per step, and the faulty passes of its steps and
points share stacked suffixes of up to :data:`_BLOCK_ROWS` rows each.  A
detector's output, one detection per image, is cut and joined by row like an
array (see :func:`~repro.nn.forward_plan.batched`), so detector lanes stack
too, unless a module inside the forward runs per image (a two-stage
detector's second stage: see :attr:`ForwardPlan.stackable`).  A lane that
may not stack runs blocks of one step and one faulty pass at a time, through
the same code.

Every faulty pass of a planned model runs ``[first, rejoin)``: from the
group's first faulted segment — a golden checkpoint, or the input batch for
segment 0 — to the first golden checkpoint behind its last faulted segment
that it reproduces byte for byte (else to the end).  The segments
``[first, last]`` run for the step alone, inside its group; behind ``last``
no faulted module runs, so the step's rows join the block's stack there,
every group closed, and leave it at the checkpoint they reproduce (*tail
reuse*).  A pass from the input batch is an inference like any other: the
task runs it whole, alone.  With a golden cache the checkpoints are the entry's; without one
the golden pass of the same step records the two the faulty pass needs.  A
neuron group's pass runs only the batch rows its faults name, when they are
fewer than the batch: every other row of the faulty output is the golden row
(*sample-sparse* passes).  The lane's monitor attributes what a stacked pass
raises to the rows that raised it.

A faulty pass skips segments or rows only behind a *clean* golden pass, one
in which the lane's monitor saw no NaN, Inf or custom event: what it skips
is golden and raises no event either, so the events of what it runs are
those of a full forward.  Behind any other golden pass the lane runs the
plain full forward, the ``prefix_reuse=False`` path.

The same row identity lets a cache-less golden pass skip most of the
backbone of a fitted classifier (*seeded* golden passes):
:func:`~repro.models.pretrained.fit_classifier_head` already ran it over
every calibration image and kept what its final ``Linear`` received.  While
the model still has the state the fit left it in, the golden pass runs only
up to the last checkpoint its faulty pass needs and resumes at the head from
those features.

Which of these shortcuts a step takes is a :class:`StepPlan`, decided before
it runs by :meth:`CampaignCore._step_plan` alone; whether a lane stacks
steps, by :meth:`CampaignCore._stacks`.  Sample-sparse rows and stacks rest
on one fact, row invariance, and share one verdict, ``rows``; seeded golden
passes have their own, ``seed``.  Both are settled by one first-use check, in
:meth:`CampaignCore._run_stack`: a lane's first block of a run that takes a
shortcut runs one of its steps again without it, alone
(:meth:`CampaignCore._alone`, the plain step), keeps that plain result and,
with one warning, turns the shortcut off for the lane if the two differ; the
other steps of a block whose shortcut differed run alone too.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from repro.alficore.campaign.tasks import CampaignTask, StepContext
from repro.alficore.digests import bytes_digest, model_fingerprint, state_digest
from repro.alficore.goldencache import (
    GoldenCache,
    GoldenCacheEntry,
    HeadFeatures,
    head_features,
    image_key,
)
from repro.alficore.monitoring import InferenceMonitor, MonitorResult
from repro.alficore.policies import InjectionPolicy
from repro.alficore.results import CampaignResultWriter
from repro.alficore.scenario import ScenarioConfig, default_scenario
from repro.alficore.wrapper import ptfiwrap
from repro.data.wrapper import AlfiDataLoaderWrapper, ImageRecord
from repro.nn import functional as F
from repro.nn.forward_plan import ForwardPlan, StackedPass, _bitwise_equal, take_rows
from repro.nn.module import Module
from repro.nn.record import ModelRecord, model_record, structure
from repro.pytorchfi.core import NeuronFaultGroup
from repro.pytorchfi.errormodels import ErrorModel


def normalize_campaign_scenario(scenario: ScenarioConfig | None, dataset) -> ScenarioConfig:
    """Align a scenario with the dataset and the per-image batch convention.

    ``dataset_size`` is matched to the dataset, and ``per_image`` campaigns
    run with ``batch_size=1`` (the paper's convention: one fault group per
    image).
    """
    scenario = scenario if scenario is not None else default_scenario()
    overrides: dict = {}
    if scenario.dataset_size != len(dataset):
        overrides["dataset_size"] = len(dataset)
    if scenario.inj_policy == "per_image" and scenario.batch_size != 1:
        overrides["batch_size"] = 1
    return scenario.copy(**overrides) if overrides else scenario


def _splice_rows(golden, rows: tuple[int, ...], output):
    """The golden output with its rows ``rows`` replaced by those of ``output``."""
    if isinstance(golden, np.ndarray):
        spliced = golden.copy()
        spliced[list(rows)] = output
        return spliced
    spliced = list(golden)
    for row, value in zip(rows, output):
        spliced[row] = value
    return spliced


def _epoch_segments(start: int, stop: int, num_batches: int) -> Iterator[tuple[int, int, int]]:
    """Split a global step range into ``(epoch, first_batch, stop_batch)`` runs."""
    step = start
    while step < stop:
        epoch, batch = divmod(step, num_batches)
        segment_stop = min(stop, (epoch + 1) * num_batches)
        yield epoch, batch, batch + (segment_stop - step)
        step = segment_stop


def _geometry(scenario: ScenarioConfig, shuffle: bool) -> tuple:
    """What a scenario decides of a campaign's steps: their images, their order, their groups."""
    seed = scenario.random_seed if shuffle else None
    return scenario.dataset_size, scenario.batch_size, scenario.num_runs, scenario.inj_policy, seed


@dataclass
class _Lane:
    """One model of a campaign and everything the campaign keeps per model."""

    #: first element of the lane's golden-cache keys, and the key of the
    #: lane's wrapper in every point's :attr:`_Point.wrappers`
    name: str
    model: Module
    #: NaN/Inf + custom monitor, attached on the lane's first step, enabled
    #: only for passes whose events are consumed (the resil lane has none)
    monitor: InferenceMonitor | None
    #: forward plan, looked up or traced on the lane's first step of a run
    #: (``None``: the forward does not linearise, the lane runs full forwards)
    plan: ForwardPlan | None = None
    #: whether :attr:`plan` was looked up in this run
    planned: bool = False
    #: Boundaries a fault group of the lane's wrapper of any point can resume
    #: at, ascending: the segments holding an injectable layer, hence the only
    #: ones a cached golden pass checkpoints (boundary 0 is the input batch
    #: and needs none).
    resumable: tuple[int, ...] = ()
    #: The model's identity (:func:`model_fingerprint`: its state, module
    #: types and plain attributes), taken when a run starts: what the head
    #: fit's features and the model's recorded plan are checked against, and
    #: part of :attr:`head`.  ``None``: the model or the lane's custom
    #: monitors hold state no digest reads, so the lane runs with no golden
    #: cache, no head-feature seeding and no recorded plan.
    fingerprint: str | None = None
    #: The golden cache of the lane's passes (``None`` with a refused
    #: identity) and the head of their keys: lane name, model identity,
    #: custom monitors' digest, kernel generation.  Spill directories outlive
    #: a campaign, so an entry recorded for another model, under other
    #: monitors or by other kernels must never match.
    cache: GoldenCache | None = None
    head: tuple = ()
    #: the head fit's features of ``model``, while they hold for this run
    #: (see :meth:`CampaignCore._head_features`)
    features: HeadFeatures | None = None
    #: Whether a shortcut reproduced the plain pass it stands for on its
    #: first use: ``"rows"``, that the lane's passes may share or drop batch
    #: rows (sample-sparse rows, stacked golden passes and stacked suffixes);
    #: ``"seed"``, that its golden passes may resume from the head fit's
    #: features.  Absent: not checked yet this run; ``False``: it differed,
    #: so the lane no longer takes it.
    verdicts: dict[str, bool] = field(default_factory=dict)


@dataclass(eq=False)
class _Point:
    """One campaign of a core's group, and everything the core keeps per campaign."""

    scenario: ScenarioConfig
    #: per lane name, the wrapper whose fault matrix the point injects there
    wrappers: dict[str, ptfiwrap]
    task: CampaignTask
    writer: CampaignResultWriter | None
    #: overrides the error model derived from the scenario
    error_model: ErrorModel | None
    #: ``{tag: path}`` of the record files the last :meth:`CampaignCore.run` wrote
    streams: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class StepPlan:
    """The shortcuts one lane's step may take (see :meth:`CampaignCore._step_plan`).

    A step whose ``seed`` is still to be checked this run runs as a block of
    one (see :meth:`CampaignCore._run_lane`).  The first block that takes a
    shortcut is checked by running one of its steps again alone, with the
    fields of the checked shortcuts cleared (:meth:`CampaignCore._alone`).
    """

    #: plan segments ``(first, last)`` that execute a faulted layer of the
    #: group (see :meth:`CampaignCore._faulted_span`): the step runs them
    #: alone, and its rows join the block's stack behind ``last``; ``None``:
    #: plain faulty forward
    span: tuple[int, int] | None
    #: the only batch rows the faulty pass runs (``None``: all)
    rows: tuple[int, ...] | None
    #: ``(head segment, stacked features)`` the golden pass resumes at
    #: (``None``: it runs every segment)
    seed: tuple[int, np.ndarray] | None


@dataclass(eq=False)
class _Step:
    """One batch step of a campaign, as a block holds it."""

    batch: list[ImageRecord]
    epoch: int
    #: global step index
    index: int
    #: per point, the step's fault group of every lane (by lane name)
    groups: list[dict[str, object]]
    group_index: int
    collect_applied: bool
    #: the stacked images of ``batch``
    images: np.ndarray
    #: the step's golden-cache key, behind the lane's key head
    cache_key: tuple


@dataclass(eq=False)
class _LaneStep:
    """One lane's share of a step of one point while its block runs."""

    step: _Step
    point: _Point
    group: object
    plan: StepPlan
    #: the step's golden pass (cached or transient, shared by its points)
    #: and the activation the faulty pass resumes from (``None``: the step
    #: has no span)
    entry: GoldenCacheEntry | None = None
    boundary: object = None
    #: the ``(index, checkpoint)`` the step's cached entry lacked (see
    #: :meth:`CampaignCore._settle`)
    added: tuple[int, object] | None = None
    #: a neuron group's generator state as the step entered the group (see
    #: :meth:`CampaignCore._alone`)
    entered: dict | None = None
    #: the faulty output, its monitor events, the group's applied faults, and
    #: whether the pass ended at a golden checkpoint (tail reuse)
    output: object = None
    events: MonitorResult | None = None
    applied: list = field(default_factory=list)
    rejoined: bool = False


#: Rows of one block: up to this many images of consecutive steps of a lane
#: share one stacked golden pass, and up to this many rows of its faulty
#: passes one stacked suffix.
_BLOCK_ROWS = 16

#: Points one core runs at most: each keeps its record streams open while the
#: group runs.
MAX_POINTS = _BLOCK_ROWS

#: What a shortcut's first use showed when it differed from the plain pass.
_MISMATCH = {
    "rows": "a pass that shares or drops batch rows differs from the step run alone "
    "(the model mixes the samples of a batch), running full-batch passes, one step per block",
    "seed": "a golden pass seeded with the head fit's features differs from the full one "
    "(the model changed since the fit), running full golden passes",
}


@contextlib.contextmanager
def _scanning(monitor: InferenceMonitor | None) -> Iterator[None]:
    """Collect ``monitor``'s events (if there is one) for the passes of the block only."""
    if monitor is None:
        yield
        return
    monitor.reset()
    monitor.enabled = True
    try:
        yield
    finally:
        monitor.enabled = False
        monitor.split(None)


class CampaignCore:
    """Task-agnostic campaign loop over the clone-free fault group sessions.

    The core owns the mechanics shared by every workload — dataset iteration,
    golden/faulty lock-step inference on each lane (``lanes[0]``: the model
    under test, ``lanes[1]``: the optional hardened one), their fault group
    sessions, plans and monitor, and the stream lifecycle — and delegates all
    output interpretation to a :class:`CampaignTask`.  It runs a group of
    campaigns, its ``points``: the arguments below are the first one's, and
    :meth:`add_point` adds campaigns that differ from it in their faults
    only.  Per *lane* the core keeps the model, its monitor, plan, identity,
    golden-cache head and shortcut verdicts; per *point* the scenario, the
    wrappers, the task and the writer.  ``task``, ``writer``, ``scenario``,
    ``wrapper`` and ``resil_wrapper`` are the first point's.  A sharded
    campaign (a group of one) runs copies of it (:meth:`for_shard`), each on
    its own step range (``run(start, stop)``).

    Args:
        model: the fault-free baseline model.  Fault groups patch its weights
            or switch hooks on it while they are open; after every group it
            is bit-exactly restored, after :meth:`run` it carries no hook of
            the campaign.
        dataset: map-style dataset yielding ``(image, label_or_target)``.
        task: the workload adapter receiving every step's outputs.
        scenario: campaign configuration.  ``dataset_size`` is aligned with
            the dataset, and ``per_image`` campaigns run with ``batch_size=1``
            (the paper's convention: one fault group per image).
        writer: optional result writer; when given, per-inference records and
            the applied-fault log are streamed as they are produced.
        error_model: overrides the error model derived from the scenario.
        input_shape: per-sample input shape used for model profiling.
        custom_monitors: extra monitoring callbacks attached alongside the
            NaN/Inf monitor.
        dl_shuffle: shuffle the dataset between epochs (seeded).
        resil_model: optional hardened variant evaluated under the same
            faults (its own fault-free pass is the resil baseline).
        wrapper: optional pre-built ``ptfiwrap`` over ``model`` itself (e.g.
            with a reloaded fault file; ``ValueError`` for a wrapper over
            another model); built from the scenario otherwise.  The hardened
            model's wrapper is profiled with its scenario and input shape, over its
            fault matrix, so both lanes read the matrix's layer indices alike.
        prefix_reuse: run every lane's faulty pass as a suffix-only
            forward from the first faulted layer, reusing the golden pass's
            checkpointed prefix activations, and end it at the first golden
            checkpoint behind the last faulted layer that it reproduces
            (bit-identical to a full faulty forward).  Disabled automatically
            for models whose forward does not linearise into a
            :class:`~repro.nn.forward_plan.ForwardPlan`.
        golden_cache: optional :class:`GoldenCache`; the golden passes of
            every lane are computed once per batch of images
            instead of once per epoch, and their boundary checkpoints are
            reused by later suffix-only faulty passes.  A cache handed in is
            always used (by every lane that has an identity, see
            :func:`model_fingerprint`): it may be shared with other campaigns
            (a sweep passes one cache to every group of grid points), whose
            entries its keys tell apart.
    """

    def __init__(
        self,
        model: Module,
        dataset,
        task: CampaignTask,
        scenario: ScenarioConfig | None = None,
        writer: CampaignResultWriter | None = None,
        error_model: ErrorModel | None = None,
        input_shape: tuple[int, ...] = (3, 32, 32),
        custom_monitors: list[Callable] | None = None,
        dl_shuffle: bool = False,
        resil_model: Module | None = None,
        wrapper: ptfiwrap | None = None,
        prefix_reuse: bool = True,
        golden_cache: GoldenCache | None = None,
    ):
        if dataset is None or len(dataset) == 0:
            raise ValueError("a non-empty dataset is required to run a campaign")
        self.model = model.eval()
        self.dataset = dataset
        self.input_shape = tuple(input_shape)
        self.custom_monitors = list(custom_monitors or [])
        self.dl_shuffle = dl_shuffle
        self.resil_model = resil_model.eval() if resil_model is not None else None
        monitor = InferenceMonitor(self.model, custom_monitors=self.custom_monitors)
        monitor.enabled = False
        self.lanes = [_Lane("golden", self.model, monitor)]
        if self.resil_model is not None:
            self.lanes.append(_Lane("resil", self.resil_model, None))
        self.prefix_reuse = prefix_reuse
        self.golden_cache = golden_cache
        #: faulty passes that ended at a golden boundary (tail reuse), with or
        #: without a cache; a shared cache's ``rejoins`` counts them as well
        self.rejoins = 0
        #: batch rows that sample-sparse faulty passes did not execute
        self.rows_skipped = 0
        #: golden passes that ran the checkpointed prefix and the head only,
        #: from the head fit's features (a run's first one, which is checked
        #: against a full pass, is not counted)
        self.golden_seeded = 0
        self.points: list[_Point] = []
        self.add_point(task, scenario, writer, error_model, wrapper)

    def add_point(
        self,
        task: CampaignTask,
        scenario: ScenarioConfig | None = None,
        writer: CampaignResultWriter | None = None,
        error_model: ErrorModel | None = None,
        wrapper: ptfiwrap | None = None,
    ) -> None:
        """Add a campaign that :meth:`run` runs with the others, in one pass over the images.

        The arguments mean what they mean for the first point.  Its scenario
        may differ from the first point's in the faults only: the images,
        their order and the steps (``batch_size``, ``num_runs``,
        ``inj_policy`` and, with ``dl_shuffle``, ``random_seed``) must be
        the same (``ValueError`` otherwise), and a core holds at most
        :data:`MAX_POINTS` points, one set of record streams each.
        """
        scenario = normalize_campaign_scenario(scenario, self.dataset)
        if self.points:
            if len(self.points) >= MAX_POINTS:
                raise ValueError(f"a campaign group holds at most {MAX_POINTS} points")
            if _geometry(scenario, self.dl_shuffle) != _geometry(self.scenario, self.dl_shuffle):
                raise ValueError(
                    "the points of a campaign group must step through the same images: "
                    "batch_size, num_runs, inj_policy (and random_seed with dl_shuffle) "
                    "must be equal"
                )
            if any(point.task is task for point in self.points):
                raise ValueError("every point of a campaign group needs a task of its own")
        if wrapper is None:
            wrapper = ptfiwrap(self.model, scenario=scenario, input_shape=self.input_shape)
        if wrapper.model is not self.model:
            raise ValueError(
                "the wrapper is built over another model object than the campaign's: "
                "its faults would land on a model the campaign never runs"
            )
        wrappers = {"golden": wrapper}
        if self.resil_model is not None:
            wrappers["resil"] = ptfiwrap(
                self.resil_model,
                scenario=wrapper.get_scenario(),
                input_shape=wrapper.input_shape,
                fault_matrix=wrapper.get_fault_matrix(),
            )
        self.points.append(_Point(scenario, wrappers, task, writer, error_model))

    @property
    def task(self) -> CampaignTask:
        """The first point's task."""
        return self.points[0].task

    @property
    def writer(self) -> CampaignResultWriter | None:
        """The first point's writer."""
        return self.points[0].writer

    @property
    def scenario(self) -> ScenarioConfig:
        """The first point's scenario; its geometry is every point's."""
        return self.points[0].scenario

    @property
    def wrapper(self) -> ptfiwrap:
        """The first point's wrapper of the model under test."""
        return self.points[0].wrappers["golden"]

    @property
    def resil_wrapper(self) -> ptfiwrap | None:
        """The first point's wrapper of the hardened model (``None``: no resil lane)."""
        return self.points[0].wrappers.get("resil")

    def for_shard(
        self,
        task: CampaignTask,
        writer: CampaignResultWriter | None,
        golden_cache: GoldenCache | None,
    ) -> "CampaignCore":
        """A copy of this core (a group of one) that runs a shard of the campaign.

        The copy shares every object of this core (model, dataset, scenario,
        wrappers, resil model, custom monitors, options), so the wrapper that
        drew the fault matrix is the one that reads it, in every shard.  It
        has its own ``task``, ``writer`` and ``golden_cache``, zero counters,
        and lanes that have learned nothing yet (no plan, verdicts or
        features): a plan holds its model by weak reference, so the copy
        pickles for a worker process.  A group of several points does not
        shard (``ValueError``).
        """
        if len(self.points) != 1:
            raise ValueError("a campaign group runs in one process: shard its points one by one")
        shard = copy.copy(self)
        shard.points = [replace(self.points[0], task=task, writer=writer, streams={})]
        shard.golden_cache = golden_cache
        shard.lanes = [_Lane(lane.name, lane.model, lane.monitor) for lane in self.lanes]
        shard.rejoins = shard.rows_skipped = shard.golden_seeded = 0
        return shard

    # ------------------------------------------------------------------ #
    # campaign geometry
    # ------------------------------------------------------------------ #
    def make_loader(self) -> AlfiDataLoaderWrapper:
        """Build the metadata-enriched loader of this campaign."""
        return AlfiDataLoaderWrapper(
            self.dataset,
            batch_size=self.scenario.batch_size,
            shuffle=self.dl_shuffle,
            seed=self.scenario.random_seed,
        )

    @property
    def num_batches(self) -> int:
        """Batches per epoch."""
        return (len(self.dataset) + self.scenario.batch_size - 1) // self.scenario.batch_size

    @property
    def total_steps(self) -> int:
        """Total batch steps of the whole campaign (all epochs)."""
        return self.scenario.num_runs * self.num_batches

    def _group_range(self, start: int, stop: int, policy: InjectionPolicy) -> tuple[int, int]:
        """Fault-group range consumed by the step range ``[start, stop)``."""
        if start >= stop:
            return 0, 0
        if policy is InjectionPolicy.PER_EPOCH:
            return start // self.num_batches, (stop - 1) // self.num_batches + 1
        return start, stop

    # ------------------------------------------------------------------ #
    # campaign execution
    # ------------------------------------------------------------------ #
    def run(self, start: int = 0, stop: int | None = None) -> dict[str, str]:
        """Execute the steps ``[start, stop)`` of every point (all steps by default).

        Results accumulate in each point's ``task.state``, and each point's
        ``streams`` maps stream tags to the record files written (empty
        without writer).  Returns the first point's ``streams``.
        """
        total = self.total_steps
        stop = total if stop is None else min(stop, total)
        if not 0 <= start <= total:
            raise ValueError(f"step range start {start} outside campaign of {total} steps")
        policy = InjectionPolicy.from_string(self.scenario.inj_policy)
        per_epoch = policy is InjectionPolicy.PER_EPOCH
        loader = self.make_loader()
        group_start, group_stop = self._group_range(start, stop, policy)
        for lane in self.lanes:
            # The model or the monitors may have changed between runs of the
            # same core; the cache keys must reflect the state of this run.
            self._identify(lane)
            # ... and so must the plan: the run's first step looks it up in
            # the model's record again (the model may have been rebuilt).
            lane.planned = False
            # Every run checks a shortcut's first use again (the model may
            # have changed in between); one that failed stays off.
            lane.verdicts = {kind: agreed for kind, agreed in lane.verdicts.items() if not agreed}
            lane.features = self._head_features(lane)
        iterators = [
            {
                lane.name: point.wrappers[lane.name].get_fault_group_iter(
                    point.error_model, start=group_start, stop=group_stop
                )
                for lane in self.lanes
            }
            for point in self.points
        ]
        begun: list[_Point] = []
        try:
            for point in self.points:
                point.streams = point.task.begin(point.writer, resil=self.resil_model is not None)
                begun.append(point)
            for epoch, first_batch, stop_batch in _epoch_segments(start, stop, self.num_batches):
                if per_epoch:
                    groups = self._next_groups(iterators)
                block: list[_Step] = []
                for offset, batch in enumerate(loader.iter_batches(epoch, first_batch, stop_batch)):
                    step = epoch * self.num_batches + first_batch + offset
                    if not per_epoch:
                        groups = self._next_groups(iterators)
                    # The applied-fault log of an epoch group is collected
                    # exactly once, on the epoch's first (global) batch.
                    collect_applied = not per_epoch or first_batch + offset == 0
                    group_index = epoch if per_epoch else step
                    block.append(
                        self._step(batch, epoch, step, groups, group_index, collect_applied)
                    )
                    if len(block) >= self._block_steps():
                        self._run_block(block)
                        block = []
                if block:
                    self._run_block(block)
        finally:
            for point in begun:
                point.task.end()
            for lanes in iterators:
                for iterator in lanes.values():
                    iterator.close()
            for lane in self.lanes:
                if lane.monitor is not None:
                    lane.monitor.detach()
        return self.points[0].streams

    def _next_groups(self, iterators: list[dict[str, Iterator]]) -> list[dict[str, object]]:
        """The next fault group of every point and lane."""
        return [
            {name: self._next_group(iterator) for name, iterator in lanes.items()}
            for lanes in iterators
        ]

    @staticmethod
    def _next_group(groups: Iterator):
        try:
            return next(groups)
        except StopIteration:
            raise RuntimeError(
                "fault matrix exhausted before the campaign finished; the loaded "
                "fault file provides fewer fault groups than the scenario needs"
            ) from None

    def _identify(self, lane: _Lane) -> None:
        """Take the lane's identity: :attr:`_Lane.fingerprint`, ``cache`` and ``head``.

        An identity refused (see :func:`model_fingerprint`) leaves all three
        empty, with one warning.
        """
        monitors = lane.monitor.custom_monitors if lane.monitor is not None else []
        try:
            fingerprint = model_fingerprint(lane.model)
            head = (lane.name, fingerprint, state_digest(monitors), F.KERNEL_GENERATION)
        except TypeError as error:
            warnings.warn(
                f"{type(lane.model).__name__}: no identity ({error}), running without "
                "golden cache, head-feature seeding or recorded plan",
                RuntimeWarning,
                stacklevel=3,
            )
            lane.fingerprint, lane.cache, lane.head = None, None, ()
            return
        lane.fingerprint, lane.cache, lane.head = fingerprint, self.golden_cache, head

    # ------------------------------------------------------------------ #
    # prefix-reuse plumbing
    # ------------------------------------------------------------------ #
    def _plan_for(self, lane: _Lane, images: np.ndarray) -> ForwardPlan | None:
        """Return the lane's forward plan, learned on its first step of a run, or ``None``.

        The plan is looked up in the model object's record
        (:mod:`repro.nn.record`), under a key of everything it depends on:
        every module of the model (qualified name, object and type), the
        lane's model identity, and the digest, shape and dtype of
        ``images[:1]``; a lane without identity neither reads nor writes the
        record.  So every grid point of a sweep, and every ``run()``
        on one model object, traces once between them, and a model changed
        between two runs of one core is traced again.  On a miss the model is
        traced and the plan replay-validated on the first sample of
        ``images`` only: the segment chain and the containment map are
        properties of the topology, not of the batch.

        Must be called outside any active fault group: the trace pass runs
        the model once, and active faults would corrupt it (and pollute the
        group's applied-fault log).
        """
        if not self.prefix_reuse or not getattr(self.task, "plan_compatible", False):
            return None
        if not lane.planned:
            lane.planned = True
            lane.plan = self._learned_plan(lane, images)
            lane.resumable = ()
            if lane.plan is not None:
                spans = (
                    self._layer_span(
                        lane.plan, layer.name, point.scenario.injection_target == "neurons"
                    )
                    for point in self.points
                    for layer in point.wrappers[lane.name].fault_injection.layers
                )
                lane.resumable = tuple(sorted({span[0] for span in spans if span and span[0]}))
        return lane.plan

    def _learned_plan(self, lane: _Lane, images: np.ndarray) -> ForwardPlan | None:
        """The valid plan of ``lane.model`` from its record, else from a new trace."""
        key = (structure(lane.model), lane.fingerprint, image_key(images[:1]))
        record = model_record(lane.model) if lane.fingerprint is not None else ModelRecord()
        if record.plan is not None and record.plan[0] == key:
            return record.plan[1]
        try:
            plan = ForwardPlan.trace(lane.model, images[:1])
        except Exception as error:
            warnings.warn(
                f"{type(lane.model).__name__}: no forward plan, running full forwards "
                f"({error!r})",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if not plan.valid:
            return None
        record.plan = (key, plan)
        return plan

    @staticmethod
    def _head_features(lane: _Lane) -> HeadFeatures | None:
        """The head fit's record of ``lane.model``, while its identity still matches.

        A weight, buffer, module or attribute changed since the fit (a BN
        running mean edited in place) changes the identity.  Copies of the
        fitted model (a resil lane, an unpickled shard model) have no record.
        """
        record = head_features(lane.model)
        return record if record is not None and lane.fingerprint == record.fingerprint else None

    def _step_plan(self, lane: _Lane, point: _Point, group, images: np.ndarray) -> StepPlan:
        """Decide which shortcuts the lane's step of ``point``'s ``group`` over ``images`` may take.

        The only place a shortcut is allowed or refused.  ``span`` is the
        group's :meth:`_faulted_span`.  ``rows`` are the rows a neuron
        group's faults name, when they are fewer than the batch.  ``seed``
        holds the head fit's features of every image (see
        :meth:`_head_features`) and the plan segment that is the fitted head,
        on a cache-less campaign (an entry holds every resumable checkpoint
        anyway).  Each needs a lane that may take it (:meth:`_may_take`).
        Whether the faulty pass may skip anything is known only once the
        golden pass has run: behind a clean one (see :meth:`_faulty_block`).
        """
        plan = self._plan_for(lane, images)
        span = self._faulted_span(plan, point.wrappers[lane.name], group)
        rows = seed = None
        neurons = isinstance(group, NeuronFaultGroup)
        if span is not None and neurons and self._may_take(lane, "rows"):
            named = group.rows(len(images))
            rows = named if 0 < len(named) < len(images) else None
        features = lane.features
        if plan is not None and features is not None and self.golden_cache is None:
            head_at = next(
                (index for index, segment in enumerate(plan.segments) if segment is features.head),
                None,
            )
            stacked = features.stacked(images) if head_at and self._may_take(lane, "seed") else None
            seed = None if stacked is None else (head_at, stacked)
        return StepPlan(span, rows, seed)

    @staticmethod
    def _may_take(lane: _Lane, kind: str) -> bool:
        """Whether the lane may take shortcut ``kind`` (``"rows"`` or ``"seed"``).

        It needs no custom monitor (one would see a smaller or stacked array,
        or miss the skipped activations) and a verdict that is not ``False``.
        """
        custom = lane.monitor is not None and bool(lane.monitor.custom_monitors)
        return not custom and lane.verdicts.get(kind) is not False

    @staticmethod
    def _faulted_span(
        plan: ForwardPlan | None, wrapper: ptfiwrap, group
    ) -> tuple[int, int] | None:
        """Plan segments ``(first, last)`` that execute a faulted layer of the group.

        The faulty pass resumes at ``first`` (0: from the input batch) and
        may rejoin the golden pass behind ``last``; ``None`` means a plain
        forward of the faulty model.  Both ends are taken over the *executed*
        segments of all of the group's faulted layers — layer indices follow
        registration order, which may differ from execution order, so mapping
        only the lowest-indexed layer could skip a patched layer that runs
        earlier in the chain, and rejoining before ``last`` would skip a
        fault that has yet to fire (see :meth:`_layer_span`).
        """
        if plan is None or not group.faulted_layers:
            return None
        neurons = isinstance(group, NeuronFaultGroup)
        spans = [
            CampaignCore._layer_span(plan, wrapper.fault_injection.layers[layer].name, neurons)
            for layer in group.faulted_layers
        ]
        if None in spans:
            return None
        return min(first for first, _ in spans), max(last for _, last in spans)

    @staticmethod
    def _layer_span(plan: ForwardPlan, name: str, neurons: bool) -> tuple[int, int] | None:
        """Plan segments ``(first, last)`` that a fault of layer ``name`` acts in.

        A neuron fault fires where the layer's module runs; a weight fault
        wherever a module holding the corrupted array runs
        (:meth:`ForwardPlan.weight_span`: tied weights).  ``None``: the trace
        never saw the layer called.
        """
        if not neurons:
            return plan.weight_span(name)
        first = plan.segment_for(name)
        return None if first is None else (first, plan.last_segment_for(name))

    @staticmethod
    def _stacks(lane: _Lane) -> bool:
        """Whether the lane may run several steps as one block.

        It needs a plan whose every boundary holds the batch's rows
        (:attr:`ForwardPlan.stackable`), and a lane that may take a row
        shortcut (:meth:`_may_take`).
        """
        plan = lane.plan
        return plan is not None and plan.stackable and CampaignCore._may_take(lane, "rows")

    def _run_lane(self, lane: _Lane, steps: list[_Step]) -> list[_LaneStep]:
        """One lane's share of a block of steps: per step and point, its golden and faulty pass.

        Returns one :class:`_LaneStep` per step and point, step by step in
        point order.  The steps run in order, as blocks of as many of them as
        the lane may stack (:meth:`_stacks`), each through :meth:`_run_stack`,
        which checks a shortcut's first use; a block holds every point of its
        steps.  A step whose :class:`StepPlan` for any point seeds its golden
        pass while ``seed`` is still to be checked runs as a block of one
        step (behind a stacked golden pass, a seeded one that differs could
        not say which shortcut made it differ), and so does every step of a
        lane that may not stack: through the same code.
        """
        points = len(self.points)
        done: list[_LaneStep] = []
        while len(done) < len(steps) * points:
            seeding = "seed" not in lane.verdicts
            todo: list[_LaneStep] = []
            for step in steps[len(done) // points :]:
                items = [
                    _LaneStep(
                        step,
                        point,
                        groups[lane.name],
                        self._step_plan(lane, point, groups[lane.name], step.images),
                    )
                    for point, groups in zip(self.points, step.groups)
                ]
                unchecked = seeding and any(item.plan.seed is not None for item in items)
                if todo and unchecked:
                    break
                todo += items
                if lane.monitor is not None:
                    # First step: the group iterators have registered the
                    # lane's injection hooks by now, so the monitor's fire
                    # behind them and scan the *corrupted* activation of a
                    # faulted layer.
                    lane.monitor.attach()
                if not self._stacks(lane) or unchecked:
                    break
            self._run_stack(lane, todo)
            done += todo
        return done

    def _faulty_stacks(self, lane: _Lane, todo: list[_LaneStep]) -> list[list[_LaneStep]]:
        """``todo`` cut into the runs of items whose faulty passes share a stacked suffix.

        Consecutive items of up to :data:`_BLOCK_ROWS` rows together, the
        budget :meth:`_block_steps` divides by the batch size; an item counts
        the rows its pass runs (only its sparse ``rows``, if it has them).
        One item each on a lane that may not stack.
        """
        if not self._stacks(lane):
            return [[item] for item in todo]
        stacks: list[list[_LaneStep]] = []
        rows = _BLOCK_ROWS
        for item in todo:
            size = len(item.step.batch if item.plan.rows is None else item.plan.rows)
            if rows + size > _BLOCK_ROWS:
                stacks.append([])
                rows = 0
            stacks[-1].append(item)
            rows += size
        return stacks

    def _run_stack(self, lane: _Lane, todo: list[_LaneStep]) -> None:
        """Run the items ``todo`` of the lane as one block, check it, and count what it skipped.

        The block runs as planned: golden side, one pass per step for all of
        its points, then faulty side, in stacks of up to :data:`_BLOCK_ROWS`
        rows (:meth:`_faulty_stacks`).  If it took a shortcut whose first use
        this run is still to be checked (``rows``: sparse rows, or a stack of
        several steps or passes on either side; ``seed``), one of its items
        runs again without it (:meth:`_alone`) and keeps that plain result:
        the first that took sparse rows, whose step's golden pass ran and
        whose suffix stayed in the stack to the end, as far as the block has
        one.  ``seed`` holds if the two golden passes are equal, ``rows`` if
        the faulty passes are too; behind a seed under check, unequal golden
        passes leave ``rows`` unchecked.  Every other item that took a
        shortcut that differs runs again alone, without it.
        """
        computed = self._golden_block(lane, todo)
        stacked: list[_LaneStep] = []
        for items in self._faulty_stacks(lane, todo):
            suffixes = self._faulty_block(lane, items)
            if len(suffixes) > 1:
                stacked += suffixes

        def took(item: _LaneStep, kind: str) -> bool:
            """Whether ``item`` took shortcut ``kind`` in this block."""
            if kind == "seed":
                return item.plan.seed is not None and item.step in computed
            return item.plan.rows is not None or len(computed) > 1 or item in stacked

        unchecked = (kind for kind in _MISMATCH if kind not in lane.verdicts)
        kinds = {kind for kind in unchecked if any(took(item, kind) for item in todo)}
        if kinds:

            def golden(item: _LaneStep) -> bool:
                """Whether the plain run of ``item`` runs its golden pass again."""
                return item.step in computed and ("seed" in kinds or len(computed) > 1)

            item = min(
                todo,
                key=lambda other: (
                    "rows" in kinds and other.plan.rows is None,
                    len(computed) > 1 and other.step not in computed,
                    bool(stacked) and other not in stacked,
                    other.rejoined,
                ),
            )
            twin, same_golden = self._alone(lane, item, kinds, golden(item))
            same = same_golden and item.events == twin.events
            same = same and _bitwise_equal(item.output, twin.output)
            agreed = {"seed": same_golden, "rows": same}
            if not same_golden and "seed" in kinds:
                kinds.discard("rows")  # either shortcut may have made the golden passes differ
            for kind in sorted(kinds):
                lane.verdicts[kind] = agreed[kind]
                if not agreed[kind]:
                    message = f"{type(lane.model).__name__}: {_MISMATCH[kind]}"
                    warnings.warn(message, RuntimeWarning, stacklevel=2)
            failed = {kind for kind in kinds if not agreed[kind]}
            todo[todo.index(item)] = twin
            if failed:
                todo[:] = [
                    self._alone(lane, other, failed, golden(other))[0]
                    if other is not twin and any(took(other, kind) for kind in failed)
                    else other
                    for other in todo
                ]
        self.golden_seeded += len({id(item.step) for item in todo if item.plan.seed is not None})
        for item in todo:
            if item.plan.rows is not None:
                self.rows_skipped += len(item.step.batch) - len(item.plan.rows)
            if item.rejoined:
                self.rejoins += 1
                if lane.cache is not None:
                    lane.cache.rejoins += 1

    def _alone(
        self, lane: _Lane, item: _LaneStep, kinds: set[str], golden: bool
    ) -> tuple[_LaneStep, bool]:
        """Run the step of ``item`` again, as a block of one and without the shortcuts ``kinds``.

        The plain pass a shortcut stands for, which replaces ``item``: alone,
        it shares no row with another step, and without ``rows`` its faulty
        pass runs the whole batch.  Its golden pass runs again if ``golden``;
        otherwise the run shares ``item``'s (a cache hit is not looked up
        again).  ``item`` lets go of its golden pass before the faulty pass
        runs, so the two golden passes are not held at once through it.  The
        group is entered again as the step entered it: a weight group replays
        its patch, and a neuron group's generator is put back to the state the
        step found, then to the one it had before.

        Returns the new :class:`_LaneStep` and whether its golden pass equals
        ``item``'s.
        """
        # A kind is the name of the plan field that takes the shortcut.
        plan = replace(item.plan, **dict.fromkeys(kinds))
        twin = _LaneStep(item.step, item.point, item.group, plan)
        if not golden:
            twin.entry, twin.boundary, twin.added = item.entry, item.boundary, item.added
        self._golden_block(lane, [twin])
        same_golden = _same_golden(item.entry, twin.entry)
        item.entry = item.boundary = None
        if item.entered is None:
            self._faulty_block(lane, [twin])
            return twin, same_golden
        rng = item.group.rng
        before = rng.bit_generator.state
        rng.bit_generator.state = item.entered
        self._faulty_block(lane, [twin])
        rng.bit_generator.state = before
        return twin, same_golden

    # ------------------------------------------------------------------ #
    # golden side
    # ------------------------------------------------------------------ #
    def _golden_block(self, lane: _Lane, todo: list[_LaneStep]) -> list[_Step]:
        """Fetch or run the golden passes of ``todo``; fill in ``entry`` and ``boundary``.

        A step's golden pass is looked up or run once, and its items (one
        per point) share the entry.  An item that holds an entry already
        (the plain run of a step, sharing its golden pass, see
        :meth:`_alone`) keeps it.  Every other step looks its entry up in the
        cache, without counting the lookup: the block's counted lookups and
        insertions follow once every lane has run it (:meth:`_settle`).  The
        misses (without a cache: every step) run as one stacked
        :meth:`_golden_passes` (two: the seeded ones and the others), which
        records the union of the checkpoints their items need and is cut
        back into one owned entry per step.  ``boundary`` is the activation
        the item's faulty pass resumes from: ``images`` for a ``span`` that
        starts in segment 0, the checkpoint of boundary ``span[0]`` otherwise
        (``None``: the item has no span).  A seeded pass gives the same
        entries without running the segments between those checkpoints and
        the head.

        Returns the steps whose golden pass ran.
        """
        cache = lane.cache
        looked: dict[int, GoldenCacheEntry | None] = {}
        runs: dict[int, list[_LaneStep]] = {}
        for item in todo:
            if item.entry is not None:
                continue
            step = item.step
            if id(step) not in looked:
                looked[id(step)] = (
                    cache.peek(lane.head + step.cache_key) if cache is not None else None
                )
            item.entry = looked[id(step)]
            if item.entry is None:
                runs.setdefault(id(step), []).append(item)
            else:
                item.boundary = self._cached_boundary(lane, item)
        steps = list(runs.values())
        if lane.plan is None:
            for items in steps:
                step, task = items[0].step, items[0].point.task
                entry = GoldenCacheEntry(task.infer(lane.model, step.images, step.batch))
                for item in items:
                    item.entry = entry
            return [items[0].step for items in steps]
        # The monitor scan on the golden pass is only paid when something
        # reads ``clean``: a planned faulty pass (it may skip segments only
        # behind a clean golden pass) or a cache recording.
        scanned = cache is not None or any(
            item.plan.span is not None for items in steps for item in items
        )
        monitor = lane.monitor if scanned else None
        # Seeded and full golden passes run as one stack each.
        for seeded in (True, False):
            part = [items for items in steps if (items[0].plan.seed is not None) is seeded]
            if not part:
                continue
            for items, (output, checkpoints, clean) in zip(
                part, self._golden_passes(lane, part, monitor)
            ):
                entry = GoldenCacheEntry(output, checkpoints, clean)
                for item in items:
                    item.entry = entry
                    span = item.plan.span
                    if span is not None:
                        item.boundary = (
                            item.step.images if span[0] == 0 else checkpoints.get(span[0])
                        )
        return [items[0].step for items in steps]

    def _wanted(self, lane: _Lane, items: list[_LaneStep]) -> tuple[int, ...]:
        """The boundaries the golden pass of a step checkpoints for its ``items``.

        With a cache every boundary a fault group can resume at, so later
        epochs and grid points need no prefix pass; the transient path
        records the two of each item (boundary 0 is ``images``, a resume
        point past the last resumable boundary has nothing behind it).
        """
        if lane.cache is not None:
            return lane.resumable
        wanted: set[int] = set()
        for item in items:
            span = item.plan.span
            if span is None:
                continue
            behind = next((index for index in lane.resumable if index > span[1]), None)
            wanted.update(index for index in (span[0], behind) if index)
        return tuple(sorted(wanted))

    def _golden_passes(
        self, lane: _Lane, steps: list[list[_LaneStep]], monitor: InferenceMonitor | None
    ) -> list[tuple[object, dict, bool]]:
        """The golden passes of ``steps`` (each: its items) as one stacked pass, cut back per step.

        The pass resumes at the head from the steps' stacked features if
        every step is seeded.  Returns ``(output, checkpoints, clean)`` per
        step: its rows of the output and of its :meth:`_wanted` checkpoints,
        as owned copies, and whether ``monitor`` saw no event in its rows.
        Only a :attr:`~ForwardPlan.stackable` plan's pass can be cut into
        rows; any other lane runs blocks of one step (see :meth:`_stacks`).
        """
        plan = lane.plan
        firsts = [items[0] for items in steps]
        wanted = [self._wanted(lane, items) for items in steps]
        seed = _stacked_seed(firsts)
        sizes = [len(item.step.images) for item in firsts]
        events = [MonitorResult() for _ in firsts]
        with _scanning(monitor):
            if monitor is not None:
                monitor.split(events, sizes)
            if plan.stackable:
                images = [item.step.images for item in firsts]
                outputs, checkpoints = plan.run_recording(
                    images[0] if len(images) == 1 else np.concatenate(images),
                    wanted,
                    seed=seed,
                    sizes=sizes,
                )
            else:
                (item,) = firsts
                output, recorded = plan.run_recording(item.step.images, wanted[0], seed=seed)
                outputs, checkpoints = [output], [recorded]
        clean = [monitor is None or result.clean for result in events]
        return list(zip(outputs, checkpoints, clean))

    def _cached_boundary(self, lane: _Lane, item: _LaneStep):
        """The activation the faulty pass of ``item`` resumes from, behind a cache hit.

        A checkpoint the entry lacks is computed and kept in ``item.added``
        for :meth:`_settle` to attach to the entry.
        """
        span = item.plan.span
        if span is None:
            return None
        if span[0] == 0:
            return item.step.images
        boundary = item.entry.boundaries.get(span[0])
        if boundary is None and lane.plan is not None:
            # Epoch-invariant output is cached but this epoch's fault group
            # needs a boundary no one recorded yet: recompute the prefix only
            # (still no full pass).
            boundary = lane.plan.run_prefix(item.step.images, span[0])
            stored = np.array(boundary, copy=True) if isinstance(boundary, np.ndarray) else boundary
            item.added = (span[0], stored)
        return boundary

    # ------------------------------------------------------------------ #
    # faulty side
    # ------------------------------------------------------------------ #
    def _faulty_block(self, lane: _Lane, todo: list[_LaneStep]) -> list[_LaneStep]:
        """Run the faulty passes of ``todo``; fill in their outputs, events, faults and rejoins.

        Every step runs inside its own group, in step order, on
        ``lane.model``.  Behind a clean golden pass (``entry.clean``), a step
        with a span runs only its faulted segments ``[first, last]``, from
        ``boundary``; a step with ``rows`` and an array boundary runs those
        batch rows only (any other step's plan loses its ``rows``: it ran the
        whole batch).  Behind ``last`` no faulted module runs, so the steps'
        suffixes run with every group closed, as one stack (see
        :meth:`_suffix`).  A pass from the input batch (``first == 0``) is an
        inference like any other: the task runs it whole, suffix included,
        inside its group (see :func:`_from_input`).  ``events`` are those of
        a full faulty forward (``None`` for a lane without monitor): what a
        planned pass skips is golden, and behind a clean golden pass raises
        none.

        Returns the steps whose suffixes ran in the stack.
        """
        monitor = lane.monitor
        # Per planned pass: its suffix and the suffix's (output, rejoined_at),
        # once run; the passes of ``stacked`` run theirs as one stack.
        passes: list[tuple[_LaneStep, StackedPass, tuple | None]] = []
        stacked: list[tuple[_LaneStep, StackedPass]] = []
        for item in todo:
            step, group, entry, task = item.step, item.group, item.entry, item.point.task
            span = item.plan.span if entry.clean else None
            rows = None
            if span is not None and isinstance(item.boundary, np.ndarray):
                rows = item.plan.rows
            if rows != item.plan.rows:
                # The plan keeps the rows the pass ran: they are counted and checked.
                item.plan = replace(item.plan, rows=rows)
            if isinstance(group, NeuronFaultGroup):
                item.entered = group.rng.bit_generator.state
            with group, _scanning(monitor):
                if span is None:
                    item.output = task.infer(group.model, step.images, step.batch)
                else:
                    first, last = span
                    boundary, batch = item.boundary, step.batch
                    scope = contextlib.nullcontext()
                    if rows is not None:
                        boundary, scope = take_rows(boundary, rows), group.sub_batch(rows)
                        batch = [batch[row] for row in rows]
                    with scope:
                        if first == 0:
                            # A pass from the input batch is an inference
                            # like any other: the task runs it, whole
                            # (``infer`` is ``finish(model(images))``).
                            joined: list = []
                            whole = functools.partial(
                                _from_input, lane.plan, last, entry, rows, joined
                            )
                            output = task.infer(whole, boundary, batch)
                            ((suffix, rejoined_at),) = joined
                            passes.append((item, suffix, (output, rejoined_at)))
                        else:
                            activation = lane.plan.run_range(first, last + 1, boundary)
                            suffix = StackedPass(last + 1, activation, entry, rows)
                            passes.append((item, suffix, None))
                            stacked.append((item, suffix))
                item.events = monitor.collect() if monitor is not None else None
            item.applied = group.applied_faults
        results: Iterator = iter(())
        if stacked:
            events = [item.events for item, _ in stacked]
            results = iter(self._suffix(lane, [suffix for _, suffix in stacked], events))
        for item, suffix, result in passes:
            task = item.point.task
            value, rejoined_at = next(results) if result is None else result
            output = task.finish(value)
            item.rejoined = rejoined_at is not None
            if not item.rejoined and suffix.rows is not None:
                output = _splice_rows(task.finish(item.entry.output), suffix.rows, output)
            item.output = output
        return [item for item, _ in stacked]

    @staticmethod
    def _suffix(
        lane: _Lane, passes: list[StackedPass], events: list[MonitorResult | None]
    ) -> list[tuple[object, int | None]]:
        """:meth:`ForwardPlan.resume_stack` of ``passes``; pass *i*'s events go to ``events[i]``."""
        monitor = lane.monitor
        regroup = None
        if monitor is not None:

            def regroup(order: list[int], sizes: list[int]) -> None:
                monitor.split([events[index] for index in order], sizes)

        with _scanning(monitor):
            return lane.plan.resume_stack(passes, regroup)

    # ------------------------------------------------------------------ #
    # blocks
    # ------------------------------------------------------------------ #
    def _step(
        self,
        batch: list[ImageRecord],
        epoch: int,
        index: int,
        groups: list,
        group_index: int,
        collect_applied: bool,
    ) -> _Step:
        """One batch step: its images, its cache key and the lanes' groups."""
        images = AlfiDataLoaderWrapper.stack_images(batch)
        cache_key = tuple(record.image_id for record in batch)
        if self.golden_cache is not None:
            # The content digest guards spillover reuse against a changed
            # dataset whose image ids collide with an earlier campaign's;
            # hashed once per step, shared by the lanes.  The same ids and
            # bytes read under another per-sample shape are another input.
            cache_key += (bytes_digest(np.ascontiguousarray(images).tobytes()), images.shape)
        return _Step(
            batch, epoch, index, list(groups), group_index, collect_applied, images, cache_key
        )

    def _settle(self, lane: _Lane, items: list[_LaneStep]) -> None:
        """Make the cache lookup and insertion of the golden pass of one step's ``items``.

        :meth:`_golden_block` only peeks, and the block's lookups and
        insertions are made here, step by step and lane by lane: the order
        in which steps run one at a time would make them, once per step
        whatever the number of points.  So the cache's counters and its LRU
        order do not depend on how steps are blocked.  A miss inserts the
        entry the step used (cached ones are evicted by the insertions
        before, recorded ones are the block's own), a hit receives the
        checkpoints the items computed, if any.  The task is handed the
        cached entry, whose ``derived`` values later hits share.
        """
        cache = lane.cache
        key = lane.head + items[0].step.cache_key
        added = dict(item.added for item in items if item.added is not None)
        entry = cache.get(key)
        if entry is None:
            golden = items[0].entry
            entry = cache.put(key, golden.output, {**golden.boundaries, **added}, golden.clean)
        else:
            for index, value in added.items():
                cache.add_boundary(key, index, value)
        for item in items:
            item.entry = entry

    def _block_steps(self) -> int:
        """Steps per block: enough for :data:`_BLOCK_ROWS` rows while a lane may stack them.

        Otherwise one, so that no step is held before it runs.  A lane's
        first step decides its plan, so a campaign's first block is one step.
        """
        if not any(self._stacks(lane) for lane in self.lanes):
            return 1
        return max(1, _BLOCK_ROWS // self.scenario.batch_size)

    def _run_block(self, block: list[_Step]) -> None:
        """Run a block of steps through every lane, then hand each point's task its steps in order.

        With a golden cache, the block's lookups and insertions are made in
        between (:meth:`_settle`).
        """
        points = len(self.points)
        lanes = [self._run_lane(lane, block) for lane in self.lanes]
        for position in range(len(block)):
            for lane, items in zip(self.lanes, lanes):
                if lane.cache is not None:
                    self._settle(lane, items[position * points : (position + 1) * points])
        for position, step in enumerate(block):
            for index, point in enumerate(self.points):
                task = point.task
                primary = lanes[0][position * points + index]
                resil_golden = resil_out = None
                if len(lanes) > 1:
                    # The hardened model is judged against its *own* fault-free
                    # baseline, so that range clamping of rare fault-free
                    # activations is not misattributed to the injected fault.
                    resil = lanes[1][position * points + index]
                    resil_golden, resil_out = task.finish(resil.entry.output), resil.output
                task.consume(
                    StepContext(
                        batch=step.batch,
                        epoch=step.epoch,
                        step=step.index,
                        group_index=step.group_index,
                        golden=task.finish(primary.entry.output),
                        corrupted=primary.output,
                        applied=[fault.as_dict() for fault in primary.applied],
                        monitor=primary.events,
                        collect_applied=step.collect_applied,
                        resil_golden=resil_golden,
                        resil=resil_out,
                        golden_derived=primary.entry.derived,
                    )
                )


def _from_input(plan: ForwardPlan, last: int, golden, rows, joined: list, images):
    """The faulty pass of one step from its input batch: segments ``[0, last]``, then its suffix.

    The suffix rejoins ``golden`` like a stacked one; it runs alone, so a
    task's ``infer`` can run the pass as its model and ``finish`` the
    output.  Appends the suffix and where it rejoined to ``joined``.
    """
    suffix = StackedPass(last + 1, plan.run_range(0, last + 1, images), golden, rows)
    ((output, rejoined_at),) = plan.resume_stack([suffix])
    joined.append((suffix, rejoined_at))
    return output


def _stacked_seed(items: list[_LaneStep]) -> tuple[int, np.ndarray] | None:
    """The seed of a golden pass over ``items``: theirs, stacked, if every one has one."""
    seeds = [item.plan.seed for item in items]
    if any(seed is None for seed in seeds):
        return None
    if len(seeds) == 1:
        return seeds[0]
    return seeds[0][0], np.concatenate([features for _, features in seeds])


def _same_golden(a: GoldenCacheEntry, b: GoldenCacheEntry) -> bool:
    """Whether two golden passes are bit for bit equal: output, checkpoints and ``clean``."""
    return a is b or _bitwise_equal(
        [a.output, list(a.boundaries.items()), a.clean],
        [b.output, list(b.boundaries.items()), b.clean],
    )
