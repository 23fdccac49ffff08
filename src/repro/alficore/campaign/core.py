"""The task-agnostic campaign loop: :class:`CampaignCore`.

Dataset iteration, golden/faulty lock-step inference over the clone-free
fault group sessions and the stream lifecycle.  A campaign is a list of
*lanes* — the model under test and, optionally, its hardened ("resil")
variant under the same faults.  A lane is one model object with one wrapper,
one forward plan and (the primary lane) one monitor: its golden and its
faulty pass run on that same object, which the lane's fault groups patch or
hook while they are open.  Outputs are interpreted by the
:class:`~repro.alficore.campaign.tasks.CampaignTask` the core is given.

The unit of execution is a *block*: up to :data:`_BLOCK_ROWS` rows of
consecutive steps of one lane, within one epoch and one ``run(start, stop)``
range (``per_image``: 16 steps).  Row *i* of a batched forward is the forward
of sample *i* alone, so the block's golden passes run as one stacked pass,
cut back into one entry per step, and its faulty passes share one stacked
suffix.  A lane that may not stack runs blocks of one step, through the same
code.

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
steps, by :meth:`CampaignCore._stacks`.  Sample-sparse rows, seeded golden
passes and stacks share one first-use check, in
:meth:`CampaignCore._run_stack`: a lane's first block of a run that takes
one runs one of its steps again without it, alone
(:meth:`CampaignCore._alone`, the plain step), keeps that plain result and,
with one warning, turns the shortcut off for the lane if the two differ; a
stack that differs runs each of its steps alone.
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
from repro.alficore.digests import bytes_digest, model_fingerprint
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
from repro.nn.record import model_record, structure
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


@dataclass
class _Lane:
    """One model of a campaign and everything the campaign keeps per model."""

    #: first element of the lane's golden-cache keys
    name: str
    model: Module
    wrapper: ptfiwrap
    #: NaN/Inf + custom monitor, attached on the lane's first step, enabled
    #: only for passes whose events are consumed (the resil lane has none)
    monitor: InferenceMonitor | None
    #: forward plan, looked up or traced on the lane's first step of a run
    #: (``None``: the forward does not linearise, the lane runs full forwards)
    plan: ForwardPlan | None = None
    #: whether :attr:`plan` was looked up in this run
    planned: bool = False
    #: Boundaries a fault group of ``wrapper`` can resume at, ascending: the
    #: segments holding an injectable layer, hence the only ones a cached
    #: golden pass checkpoints (boundary 0 is the input batch and needs none).
    resumable: tuple[int, ...] = ()
    #: Digest of the model's weights, taken when a run starts: the second
    #: element of the lane's cache keys (spill directories outlive a campaign,
    #: so entries recorded for other weights must never match), and what the
    #: head fit's features and the model's recorded plan are checked against.
    fingerprint: str | None = None
    #: Digest of the model's ``repr`` (every module's type and settings),
    #: taken when a run starts: the third element of the lane's cache keys,
    #: for what the fingerprint does not see (a ``ReLU`` swapped for a
    #: ``Tanh`` changes no weight).
    modules: str | None = None
    #: the head fit's features of ``model``, while they hold for this run
    #: (see :meth:`CampaignCore._head_features`)
    features: HeadFeatures | None = None
    #: Whether a shortcut (``"rows"``, ``"seed"``, ``"stack"``) reproduced
    #: the plain pass it stands for on its first use (absent: not checked yet
    #: this run; ``False``: it differed, so the lane no longer takes it).
    verdicts: dict[str, bool] = field(default_factory=dict)


@dataclass(frozen=True)
class StepPlan:
    """The shortcuts one lane's step may take (see :meth:`CampaignCore._step_plan`).

    A step that takes a shortcut still to be checked this run (``rows`` or
    ``seed``, see :meth:`CampaignCore._unchecked`) runs as a block of one,
    and its check runs it again with those fields cleared
    (:meth:`CampaignCore._alone`).
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


@dataclass
class _Step:
    """One batch step of a campaign, as a block holds it."""

    batch: list[ImageRecord]
    epoch: int
    #: global step index
    index: int
    #: the step's fault group of every lane
    groups: list
    group_index: int
    collect_applied: bool
    #: the stacked images of ``batch``
    images: np.ndarray
    #: the step's golden-cache key, behind the lane's key head
    cache_key: tuple


@dataclass(eq=False)
class _LaneStep:
    """One lane's share of a step while its block runs."""

    step: _Step
    group: object
    plan: StepPlan
    #: the golden pass (cached or transient) and the activation the faulty
    #: pass resumes from (``None``: the step has no span)
    entry: GoldenCacheEntry | None = None
    boundary: object = None
    #: the golden pass's cache key, and the ``(index, checkpoint)`` its
    #: cached entry lacked (see :meth:`CampaignCore._settle`)
    key: tuple | None = None
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
#: share one stacked golden pass and one stacked faulty suffix.
_BLOCK_ROWS = 16

#: What a shortcut's first use showed when it differed from the plain pass.
_MISMATCH = {
    "rows": "a faulty pass of the faulted rows alone differs from the full-batch one "
    "(the model mixes the samples of a batch), running full-batch passes",
    "seed": "a golden pass seeded with the head fit's features differs from the full one "
    "(the model changed since the fit), running full golden passes",
    "stack": "a step run in a stack of steps differs from the step run alone "
    "(the rows of a batch are not independent), running one step per block",
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
    output interpretation to a :class:`CampaignTask`.  A sharded campaign runs
    copies of it (:meth:`for_shard`), each on its own step range
    (``run(start, stop)``).

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
        wrapper: optional pre-built ``ptfiwrap`` (e.g. with a reloaded fault
            file); built from the scenario otherwise.  The hardened model's
            wrapper is profiled with its scenario and input shape, over its
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
            always used: it may be shared with other campaigns (a sweep
            passes one cache to every grid point), so whether it can hit is
            the owner's call, not this campaign's.
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
        self.task = task
        self.scenario = normalize_campaign_scenario(scenario, dataset)
        self.writer = writer
        self.input_shape = tuple(input_shape)
        self.custom_monitors = list(custom_monitors or [])
        self.dl_shuffle = dl_shuffle
        self._error_model = error_model
        self.wrapper = (
            wrapper
            if wrapper is not None
            else ptfiwrap(model, scenario=self.scenario, input_shape=self.input_shape)
        )
        self.resil_model = resil_model.eval() if resil_model is not None else None
        self.resil_wrapper = None
        if self.resil_model is not None:
            self.resil_wrapper = ptfiwrap(
                self.resil_model,
                scenario=self.wrapper.get_scenario(),
                input_shape=self.wrapper.input_shape,
                fault_matrix=self.wrapper.get_fault_matrix(),
            )
        monitor = InferenceMonitor(self.model, custom_monitors=self.custom_monitors)
        monitor.enabled = False
        self.lanes = [_Lane("golden", self.model, self.wrapper, monitor)]
        if self.resil_model is not None:
            self.lanes.append(_Lane("resil", self.resil_model, self.resil_wrapper, None))
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

    def for_shard(
        self,
        task: CampaignTask,
        writer: CampaignResultWriter | None,
        golden_cache: GoldenCache | None,
    ) -> "CampaignCore":
        """A copy of this core that runs a shard of the campaign.

        The copy shares every object of this core (model, dataset, scenario,
        wrappers, resil model, custom monitors, options), so the wrapper that
        drew the fault matrix is the one that reads it, in every shard.  It
        has its own ``task``, ``writer`` and ``golden_cache``, zero counters,
        and lanes that have learned nothing yet (no plan, verdicts or
        features): a plan holds its model by weak reference, so the copy
        pickles for a worker process.
        """
        shard = copy.copy(self)
        shard.task, shard.writer, shard.golden_cache = task, writer, golden_cache
        shard.lanes = [
            _Lane(lane.name, lane.model, lane.wrapper, lane.monitor) for lane in self.lanes
        ]
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
        """Execute the steps ``[start, stop)`` of the campaign (all by default).

        Results accumulate in ``self.task.state``; the returned dictionary
        maps stream tags to the record files written (empty without writer).
        """
        total = self.total_steps
        stop = total if stop is None else min(stop, total)
        if not 0 <= start <= total:
            raise ValueError(f"step range start {start} outside campaign of {total} steps")
        policy = InjectionPolicy.from_string(self.scenario.inj_policy)
        per_epoch = policy is InjectionPolicy.PER_EPOCH
        loader = self.make_loader()
        group_start, group_stop = self._group_range(start, stop, policy)
        iterators = []
        for lane in self.lanes:
            # Weights may have been mutated between runs of the same core;
            # the cache keys must reflect the state of this run.
            lane.fingerprint = model_fingerprint(lane.model)
            lane.modules = bytes_digest(repr(lane.model).encode())
            # ... and so must the plan: the run's first step looks it up in
            # the model's record again (the model may have been rebuilt).
            lane.planned = False
            # Every run checks a shortcut's first use again (the model may
            # have changed in between); one that failed stays off.
            lane.verdicts = {kind: agreed for kind, agreed in lane.verdicts.items() if not agreed}
            lane.features = self._head_features(lane)
            iterators.append(
                lane.wrapper.get_fault_group_iter(
                    self._error_model, start=group_start, stop=group_stop
                )
            )
        stream_paths = self.task.begin(self.writer, resil=self.resil_model is not None)
        try:
            for epoch, first_batch, stop_batch in _epoch_segments(start, stop, self.num_batches):
                if per_epoch:
                    groups = [self._next_group(iterator) for iterator in iterators]
                block: list[_Step] = []
                for offset, batch in enumerate(loader.iter_batches(epoch, first_batch, stop_batch)):
                    step = epoch * self.num_batches + first_batch + offset
                    if not per_epoch:
                        groups = [self._next_group(iterator) for iterator in iterators]
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
            self.task.end()
            for iterator in iterators:
                iterator.close()
            for lane in self.lanes:
                if lane.monitor is not None:
                    lane.monitor.detach()
        return stream_paths

    @staticmethod
    def _next_group(groups: Iterator):
        try:
            return next(groups)
        except StopIteration:
            raise RuntimeError(
                "fault matrix exhausted before the campaign finished; the loaded "
                "fault file provides fewer fault groups than the scenario needs"
            ) from None

    # ------------------------------------------------------------------ #
    # prefix-reuse plumbing
    # ------------------------------------------------------------------ #
    def _plan_for(self, lane: _Lane, images: np.ndarray) -> ForwardPlan | None:
        """Return the lane's forward plan, learned on its first step of a run, or ``None``.

        The plan is looked up in the model object's record
        (:mod:`repro.nn.record`), under a key of everything it depends on:
        every module of the model (qualified name, object and type), the
        lane's weights fingerprint, and the digest, shape and dtype of
        ``images[:1]``.  So every grid point of a sweep, and every ``run()``
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
                neurons = self.scenario.injection_target == "neurons"
                spans = (
                    self._layer_span(lane.plan, layer.name, neurons)
                    for layer in lane.wrapper.fault_injection.layers
                )
                lane.resumable = tuple(sorted({span[0] for span in spans if span and span[0]}))
        return lane.plan

    def _learned_plan(self, lane: _Lane, images: np.ndarray) -> ForwardPlan | None:
        """The valid plan of ``lane.model`` from its record, else from a new trace."""
        if lane.fingerprint is None:
            lane.fingerprint = model_fingerprint(lane.model)
        key = (structure(lane.model), lane.fingerprint, image_key(images[:1]))
        record = model_record(lane.model)
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
        """The head fit's record of ``lane.model``, while its fingerprint still matches.

        A weight or buffer changed since the fit (a BN running mean edited in
        place) changes the fingerprint.  Copies of the fitted model (a resil
        lane, an unpickled shard model) have no record.
        """
        record = head_features(lane.model)
        return record if record is not None and lane.fingerprint == record.fingerprint else None

    def _step_plan(self, lane: _Lane, group, images: np.ndarray) -> StepPlan:
        """Decide which shortcuts the lane's step of ``group`` over ``images`` may take.

        The only place a shortcut is allowed or refused.  ``span`` is the
        group's :meth:`_faulted_span`.  ``rows`` are the rows a neuron
        group's faults name, when they are fewer than the batch.  ``seed``
        holds the head fit's features of every image (see
        :meth:`_head_features`) and the plan segment that is the fitted head,
        on a cache-less campaign (an entry holds every resumable checkpoint
        anyway).  Both need a lane without custom monitors (they would see a
        smaller array, or miss the skipped activations) on which the
        shortcut has not differed from the plain pass.  Whether the faulty
        pass may skip anything is known only once the golden pass has run:
        behind a clean one (see :meth:`_faulty_block`).
        """
        plan = self._plan_for(lane, images)
        span = self._faulted_span(plan, lane.wrapper, group)
        custom = lane.monitor is not None and bool(lane.monitor.custom_monitors)
        allowed = {kind: not custom and lane.verdicts.get(kind) is not False for kind in _MISMATCH}
        rows = seed = None
        if span is not None and isinstance(group, NeuronFaultGroup) and allowed["rows"]:
            named = group.rows(len(images))
            rows = named if 0 < len(named) < len(images) else None
        features = lane.features
        if plan is not None and features is not None and self.golden_cache is None:
            head_at = next(
                (index for index, segment in enumerate(plan.segments) if segment is features.head),
                None,
            )
            stacked = features.stacked(images) if head_at and allowed["seed"] else None
            seed = None if stacked is None else (head_at, stacked)
        return StepPlan(span, rows, seed)

    @staticmethod
    def _verdict(lane: _Lane, kind: str, agreed: bool) -> None:
        """Record whether shortcut ``kind`` reproduced the plain pass; warn once if not."""
        lane.verdicts[kind] = agreed
        if not agreed:
            warnings.warn(
                f"{type(lane.model).__name__}: {_MISMATCH[kind]}", RuntimeWarning, stacklevel=3
            )

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
    def _unchecked(lane: _Lane, step: StepPlan) -> bool:
        """Whether ``step`` takes a shortcut whose first use this run is still to be checked."""
        return (step.rows is not None and "rows" not in lane.verdicts) or (
            step.seed is not None and "seed" not in lane.verdicts
        )

    @staticmethod
    def _stacks(lane: _Lane) -> bool:
        """Whether the lane may run several steps as one block.

        It needs a plan whose every boundary is an array with the batch on
        its first axis, no custom monitor (it would see stacked arrays), and
        a stack that has not differed from a step run alone.
        """
        custom = lane.monitor is not None and bool(lane.monitor.custom_monitors)
        return (
            lane.plan is not None
            and lane.plan.stackable
            and not custom
            and lane.verdicts.get("stack") is not False
        )

    def _run_lane(
        self, lane: _Lane, groups: list, steps: list[_Step]
    ) -> list[_LaneStep]:
        """One lane's share of a block of steps: per step, its golden entry and faulty pass.

        The steps run in order, as blocks of as many of them as the lane may
        stack (:meth:`_stacks`), each through :meth:`_run_stack`, which
        checks a shortcut's first use.  A step whose :class:`StepPlan` takes
        a ``rows`` or ``seed`` shortcut still to be checked (see
        :meth:`_unchecked`) runs as a block of one, and so does every step of
        a lane that may not stack: through the same code.
        """
        done: list[_LaneStep] = []
        while len(done) < len(steps):
            todo: list[_LaneStep] = []
            for step, group in zip(steps[len(done) :], groups[len(done) :]):
                item = _LaneStep(step, group, self._step_plan(lane, group, step.images))
                if todo and self._unchecked(lane, item.plan):
                    break
                todo.append(item)
                if lane.monitor is not None:
                    # First step: the group iterator has registered the lane's
                    # injection hooks by now, so the monitor's fire behind
                    # them and scan the *corrupted* activation of a faulted
                    # layer.
                    lane.monitor.attach()
                if not self._stacks(lane) or self._unchecked(lane, item.plan):
                    break
            self._run_stack(lane, todo)
            done += todo
        return done

    def _run_stack(self, lane: _Lane, todo: list[_LaneStep]) -> None:
        """Run the steps ``todo`` of the lane as one block, check it, and count what it skipped.

        The block runs as planned: golden side, then faulty side.  If it took
        a shortcut whose first use this run is still to be checked (``rows``,
        ``seed``, or a stack of several steps on either side), one of its
        steps runs again without it (:meth:`_alone`) and keeps that plain
        result: the step of a ``rows`` or ``seed`` shortcut (a block of one),
        for a stack its first step whose suffix stayed in the stack to the
        end.  ``seed`` holds if the two golden passes are equal, ``rows`` if
        the faulty passes are as well (behind unequal golden passes it stays
        unchecked), a stack if both are.  A stack that differs runs every
        step again alone.
        """
        computed = self._golden_block(lane, todo)
        stacked = self._faulty_block(lane, todo)
        taken = {
            "rows": any(item.plan.rows is not None for item in todo),
            "seed": any(item.plan.seed is not None for item in computed),
            "stack": len(computed) > 1 or len(stacked) > 1,
        }
        kinds = {kind for kind, took in taken.items() if took and kind not in lane.verdicts}
        if kinds:

            def golden(item: _LaneStep) -> bool:
                """Whether the plain run of ``item`` runs its golden pass again."""
                return item in computed and ("seed" in kinds or len(computed) > 1)

            item = min(
                todo,
                key=lambda step: (
                    len(computed) > 1 and step not in computed,
                    len(stacked) > 1 and step not in stacked,
                    step.rejoined,
                ),
            )
            twin, same_golden = self._alone(lane, item, kinds, golden(item))
            same = (
                same_golden
                and item.events == twin.events
                and _bitwise_equal(item.output, twin.output)
            )
            for kind in _MISMATCH:
                if kind in kinds and (same_golden or kind != "rows"):
                    self._verdict(lane, kind, same_golden if kind == "seed" else same)
            todo[todo.index(item)] = twin
            if "stack" in kinds and not same:
                todo[:] = [
                    step if step is twin else self._alone(lane, step, {"stack"}, golden(step))[0]
                    for step in todo
                ]
        for item in todo:
            self.golden_seeded += item.plan.seed is not None
            if item.plan.rows is not None:
                self.rows_skipped += len(item.step.batch) - len(item.plan.rows)
            if item.rejoined:
                self.rejoins += 1
                if self.golden_cache is not None:
                    self.golden_cache.rejoins += 1

    def _alone(
        self, lane: _Lane, item: _LaneStep, kinds: set[str], golden: bool
    ) -> tuple[_LaneStep, bool]:
        """Run the step of ``item`` again, as a block of one and without the shortcuts ``kinds``.

        The plain pass a shortcut stands for, which replaces ``item``.  Its
        golden pass runs again if ``golden``; otherwise the run shares
        ``item``'s (a cache hit is not looked up again).  ``item`` lets go of
        its golden pass before the faulty pass runs, so the two golden passes
        are not held at once through it.  The group is entered again as the
        step entered it: a weight group replays its patch, and a neuron
        group's generator is put back to the state the step found, then to
        the one it had before.

        Returns the new :class:`_LaneStep` and whether its golden pass equals
        ``item``'s.
        """
        plan = replace(
            item.plan,
            rows=None if "rows" in kinds else item.plan.rows,
            seed=None if "seed" in kinds else item.plan.seed,
        )
        twin = _LaneStep(item.step, item.group, plan)
        if not golden:
            twin.entry, twin.boundary = item.entry, item.boundary
            twin.key, twin.added = item.key, item.added
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
    def _golden_block(self, lane: _Lane, todo: list[_LaneStep]) -> list[_LaneStep]:
        """Fetch or run the golden passes of ``todo``; fill in ``entry`` and ``boundary``.

        A step that holds an entry already (the plain run of a step, sharing
        its golden pass, see :meth:`_alone`) keeps it.  Every other step
        looks its entry up in the cache, without counting the lookup: the
        block's counted lookups and insertions follow once every lane has run
        it (:meth:`_settle`).  The misses (without a cache: every step) run
        as one stacked :meth:`_golden_passes` (two: the seeded ones and the
        others), which records the union of the checkpoints they need and is
        cut back into one owned entry per step.  ``boundary`` is the
        activation the step's faulty pass resumes from: ``images`` for a
        ``span`` that starts in segment 0, the checkpoint of boundary
        ``span[0]`` otherwise (``None``: the step has no span).  A seeded
        pass gives the same entries without running the segments between
        those checkpoints and the head.

        Returns the steps whose golden pass ran.
        """
        cache = self.golden_cache
        head = (lane.name, lane.fingerprint, lane.modules, F.KERNEL_GENERATION)
        items: list[_LaneStep] = []
        for item in todo:
            if item.entry is not None:
                continue
            if cache is not None:
                item.key = head + item.step.cache_key
                item.entry = cache.peek(item.key)
            if item.entry is None:
                items.append(item)
            else:
                item.boundary = self._cached_boundary(lane, item)
        if lane.plan is None:
            for item in items:
                item.entry = GoldenCacheEntry(
                    self.task.infer(lane.model, item.step.images, item.step.batch)
                )
            return items
        # The monitor scan on the golden pass is only paid when something
        # reads ``clean``: a planned faulty pass (it may skip segments only
        # behind a clean golden pass) or a cache recording.
        scanned = cache is not None or any(item.plan.span is not None for item in items)
        monitor = lane.monitor if scanned else None
        # Seeded and full golden passes run as one stack each.
        for seeded in (True, False):
            part = [item for item in items if (item.plan.seed is not None) is seeded]
            if not part:
                continue
            for item, (output, checkpoints, clean) in zip(
                part, self._golden_passes(lane, part, monitor)
            ):
                item.entry = GoldenCacheEntry(output, checkpoints, clean)
                span = item.plan.span
                if span is not None:
                    item.boundary = item.step.images if span[0] == 0 else checkpoints.get(span[0])
        return items

    def _wanted(self, lane: _Lane, item: _LaneStep) -> tuple[int, ...]:
        """The boundaries the golden pass of ``item`` checkpoints.

        With a cache every boundary a fault group can resume at, so later
        epochs and grid points need no prefix pass; the transient path
        records this step's two (boundary 0 is ``images``, a resume point
        past the last resumable boundary has nothing behind it).
        """
        if self.golden_cache is not None:
            return lane.resumable
        span = item.plan.span
        if span is None:
            return ()
        behind = next((index for index in lane.resumable if index > span[1]), None)
        return tuple(index for index in (span[0], behind) if index)

    def _golden_passes(
        self, lane: _Lane, items: list[_LaneStep], monitor: InferenceMonitor | None
    ) -> list[tuple[object, dict, bool]]:
        """The golden passes of ``items`` as one stacked pass, cut back into one per step.

        The pass resumes at the head from the steps' stacked features if
        every step is seeded.  Returns ``(output, checkpoints, clean)`` per
        step: its rows of the output and of its :meth:`_wanted` checkpoints,
        as owned copies, and whether ``monitor`` saw no event in its rows.
        Only a :attr:`~ForwardPlan.stackable` plan's pass can be cut into
        rows; any other lane runs blocks of one step (see :meth:`_stacks`).
        """
        plan = lane.plan
        wanted = [self._wanted(lane, item) for item in items]
        seed = _stacked_seed(items)
        sizes = [len(item.step.images) for item in items]
        events = [MonitorResult() for _ in items]
        with _scanning(monitor):
            if monitor is not None:
                monitor.split(events, sizes)
            if plan.stackable:
                images = [item.step.images for item in items]
                outputs, checkpoints = plan.run_recording(
                    images[0] if len(images) == 1 else np.concatenate(images),
                    wanted,
                    seed=seed,
                    sizes=sizes,
                )
            else:
                (item,) = items
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
        task, monitor = self.task, lane.monitor
        # Per planned pass: its suffix and the suffix's (output, rejoined_at),
        # once run; the passes of ``stacked`` run theirs as one stack.
        passes: list[tuple[_LaneStep, StackedPass, tuple | None]] = []
        stacked: list[tuple[_LaneStep, StackedPass]] = []
        for item in todo:
            step, group, entry = item.step, item.group, item.entry
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

    def _settle(self, item: _LaneStep) -> None:
        """Make the cache lookup and insertion of ``item``'s golden pass.

        :meth:`_golden_block` only peeks, and the block's lookups and
        insertions are made here, step by step and lane by lane: the order
        in which steps run one at a time would make them.  So the cache's
        counters and its LRU order do not depend on how steps are blocked.
        A miss inserts the entry the step used (cached ones are evicted by
        the insertions before, recorded ones are the block's own), a hit
        receives the checkpoint the step computed, if any.  The task is
        handed the cached entry, whose ``derived`` values later hits share.
        """
        cache = self.golden_cache
        entry = cache.get(item.key)
        if entry is None:
            boundaries = dict(item.entry.boundaries)
            if item.added is not None:
                boundaries.update([item.added])
            entry = cache.put(item.key, item.entry.output, boundaries, item.entry.clean)
        elif item.added is not None:
            cache.add_boundary(item.key, *item.added)
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
        """Run a block of steps through every lane, then hand the task each step in order.

        With a golden cache, the block's lookups and insertions are made in
        between (:meth:`_settle`).
        """
        task = self.task
        lanes = [
            self._run_lane(lane, [step.groups[index] for step in block], block)
            for index, lane in enumerate(self.lanes)
        ]
        if self.golden_cache is not None:
            for position in range(len(block)):
                for steps in lanes:
                    self._settle(steps[position])
        for position, step in enumerate(block):
            primary = lanes[0][position]
            resil_golden = resil_out = None
            if len(lanes) > 1:
                # The hardened model is judged against its *own* fault-free
                # baseline, so that range clamping of rare fault-free
                # activations is not misattributed to the injected fault.
                resil = lanes[1][position]
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
