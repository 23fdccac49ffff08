"""The task-agnostic campaign loop: :class:`CampaignCore`.

Dataset iteration, golden/faulty lock-step inference over the clone-free
fault group sessions and the stream lifecycle.  A campaign is a list of
*lanes* — the model under test and, optionally, its hardened ("resil")
variant under the same faults.  A lane is one model object with one wrapper,
one forward plan and (the primary lane) one monitor: its golden and its
faulty pass run on that same object, which the lane's fault groups patch or
hook while they are open.  Outputs are interpreted by the
:class:`~repro.alficore.campaign.tasks.CampaignTask` the core is given.

Every faulty pass of a planned model runs ``[first, rejoin)``: from the
group's first faulted segment — a golden checkpoint, or the input batch for
segment 0 — to the first golden checkpoint behind its last faulted segment
that it reproduces byte for byte (else to the end).  With a golden cache the
checkpoints are the entry's; without one the golden pass of the same step
records the two the faulty pass needs.  A neuron group's pass runs only the
batch rows its faults name, when they are fewer than the batch: row *i* of a
batched forward is the forward of sample *i* alone, so every other row of
the faulty output is the golden row (*sample-sparse* passes).

The same row identity lets a cache-less golden pass skip most of the
backbone of a fitted classifier (*seeded* golden passes):
:func:`~repro.models.pretrained.fit_classifier_head` already ran it over
every calibration image and kept what its final ``Linear`` received.  While
the model still has the state the fit left it in, the golden pass runs only
up to the last checkpoint its faulty pass needs and resumes at the head from
those features.  Each run checks its first seeded pass against a full one
and falls back for good, with one warning, if they differ.
"""

from __future__ import annotations

import contextlib
import functools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.alficore.campaign.tasks import CampaignTask, StepContext
from repro.alficore.digests import bytes_digest, model_fingerprint
from repro.alficore.goldencache import GoldenCache, GoldenCacheEntry, HeadFeatures, head_features
from repro.alficore.monitoring import InferenceMonitor, MonitorResult
from repro.alficore.policies import InjectionPolicy
from repro.alficore.results import CampaignResultWriter
from repro.alficore.scenario import ScenarioConfig, default_scenario
from repro.alficore.wrapper import ptfiwrap
from repro.data.wrapper import AlfiDataLoaderWrapper, ImageRecord
from repro.nn import functional as F
from repro.nn.forward_plan import ActivationArena, ForwardPlan, _bitwise_equal, take_rows
from repro.nn.module import Module
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
    #: forward plan, traced on the lane's first step (``None``: the forward
    #: does not linearise, the lane runs full forwards)
    plan: ForwardPlan | None = None
    traced: bool = False
    #: Boundaries a fault group of ``wrapper`` can resume at, ascending: the
    #: segments holding an injectable layer, hence the only ones a cached
    #: golden pass checkpoints (boundary 0 is the input batch and needs none).
    resumable: tuple[int, ...] = ()
    #: checkpoint buffers of cache-less golden passes, reused step after step
    arena: ActivationArena = field(default_factory=ActivationArena)
    #: Digest of the model's weights, with a cache the second element of the
    #: lane's keys (spill directories outlive a campaign, so entries recorded
    #: for other weights must never match); taken when a run starts.
    fingerprint: str | None = None
    #: Whether a sample-sparse faulty pass reproduced the full-batch one
    #: (``None``: not checked yet; ``False``: the model mixes samples, so the
    #: lane runs full-batch passes).
    rows_agree: bool | None = None
    #: the head fit's features of ``model``, while they may seed this run's
    #: golden passes (see :meth:`CampaignCore._head_features`)
    features: HeadFeatures | None = None
    #: Whether this run's first seeded golden pass reproduced the full one
    #: (``None``: not checked yet this run; ``False``: it differed, so the
    #: lane runs full golden passes from then on).
    seeds_agree: bool | None = None


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


class CampaignCore:
    """Task-agnostic campaign loop over the clone-free fault group sessions.

    The core owns the mechanics shared by every workload — dataset iteration,
    golden/faulty lock-step inference on each lane (``lanes[0]``: the model
    under test, ``lanes[1]``: the optional hardened one), their fault group
    sessions, plans and monitor, and the stream lifecycle — and delegates all
    output interpretation to a :class:`CampaignTask`.

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
            file); built from the scenario otherwise.
        resil_wrapper: optional pre-built wrapper for the hardened model.
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
        executor: forward-plan execution backend (``"module"``,
            ``"interpreter"``, ``"fused"``, or any name registered via
            :func:`repro.nn.ir.register_executor`).  Validated bit-exactly at
            trace time, on one sample, with a warned fallback to the module
            path.
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
        resil_wrapper: ptfiwrap | None = None,
        prefix_reuse: bool = True,
        golden_cache: GoldenCache | None = None,
        executor: str = "interpreter",
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
        if self.resil_model is not None and resil_wrapper is None:
            resil_wrapper = ptfiwrap(
                self.resil_model,
                scenario=self.scenario,
                input_shape=self.input_shape,
                fault_matrix=self.wrapper.get_fault_matrix(),
            )
        self.resil_wrapper = resil_wrapper
        monitor = InferenceMonitor(self.model, custom_monitors=self.custom_monitors)
        monitor.enabled = False
        self.lanes = [_Lane("golden", self.model, self.wrapper, monitor)]
        if self.resil_model is not None:
            self.lanes.append(_Lane("resil", self.resil_model, self.resil_wrapper, None))
        self.prefix_reuse = prefix_reuse
        # Plan execution backend (repro.nn.ir registry).  Trace-time
        # validation falls back to the module path (with a RuntimeWarning)
        # on any bitwise mismatch, so an exotic executor name can never
        # change campaign results.
        self.executor = executor
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

    #: constructor parameters a shard builds for itself (its own task state,
    #: record files, wrappers over the shared fault matrix, cache handle)
    #: instead of receiving them through :meth:`shard_arguments`
    REBUILT_PER_SHARD = frozenset({"task", "writer", "wrapper", "resil_wrapper", "golden_cache"})

    def shard_arguments(self) -> dict:
        """The constructor arguments a shard's own core shares with this one.

        Everything in ``__init__``'s signature outside
        :attr:`REBUILT_PER_SHARD`, as picklable values: a parameter added to
        the constructor is added here, or a sharded campaign silently drops
        it (``tests/test_alficore_sharding.py`` holds the two against each
        other).
        """
        return dict(
            model=self.model,
            dataset=self.dataset,
            scenario=self.scenario,
            error_model=self._error_model,
            input_shape=self.input_shape,
            custom_monitors=self.custom_monitors,
            dl_shuffle=self.dl_shuffle,
            resil_model=self.resil_model,
            prefix_reuse=self.prefix_reuse,
            executor=self.executor,
        )

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
            if self.golden_cache is not None:
                lane.fingerprint = model_fingerprint(lane.model)
            if lane.seeds_agree:
                lane.seeds_agree = None
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
                for offset, batch in enumerate(loader.iter_batches(epoch, first_batch, stop_batch)):
                    step = epoch * self.num_batches + first_batch + offset
                    if not per_epoch:
                        groups = [self._next_group(iterator) for iterator in iterators]
                    # The applied-fault log of an epoch group is collected
                    # exactly once, on the epoch's first (global) batch.
                    collect_applied = not per_epoch or first_batch + offset == 0
                    self._run_step(
                        batch, epoch, step, groups, epoch if per_epoch else step, collect_applied
                    )
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
        """Return the (lazily traced) forward plan of a lane, or ``None``.

        The trace and its replay validation run on the first sample of
        ``images`` only: the segment chain, the containment map and the
        executor choice are properties of the topology, not of the batch.

        Must be called outside any active fault group: the trace pass runs
        the model once, and active faults would corrupt it (and pollute the
        group's applied-fault log).
        """
        if not self.prefix_reuse or not getattr(self.task, "plan_compatible", False):
            return None
        if not lane.traced:
            lane.traced = True
            try:
                plan = ForwardPlan.trace(lane.model, images[:1], executor=self.executor)
            except Exception as error:
                warnings.warn(
                    f"{type(lane.model).__name__}: no forward plan under executor "
                    f"{self.executor!r}, running full forwards ({error!r})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                plan = None
            if plan is not None and plan.valid:
                lane.plan = plan
                segments = (
                    plan.segment_for(layer.name) for layer in lane.wrapper.fault_injection.layers
                )
                lane.resumable = tuple(sorted({index for index in segments if index}))
        return lane.plan

    def _head_features(self, lane: _Lane) -> HeadFeatures | None:
        """The head fit's features of ``lane.model``, if this run may seed with them.

        Only a cache-less planned golden pass is seeded, on a lane without
        custom monitors (they would see no activation of the skipped
        segments) whose seeded pass has not differed from a full one, and
        only while the model is in the state the fit left it in: a weight or
        buffer changed since (a BN running mean edited in place) changes the
        fingerprint.  Copies of the fitted model (a resil lane, an unpickled
        shard model) have no features.
        """
        if self.golden_cache is not None or not self.prefix_reuse or lane.seeds_agree is False:
            return None
        record = head_features(lane.model)
        if record is None or (lane.monitor is not None and lane.monitor.custom_monitors):
            return None
        return record if model_fingerprint(lane.model) == record.fingerprint else None

    @staticmethod
    def _seed(lane: _Lane, plan: ForwardPlan, images: np.ndarray) -> tuple[int, np.ndarray] | None:
        """``(head segment, stacked features)`` to seed a golden pass of ``images`` with.

        ``None`` unless the head fit's features hold for this run, a plan
        segment is the fitted head, and every image of the batch was a
        calibration image whose every leaf row was finite.
        """
        if lane.features is None:
            return None
        head_at = next(
            (index for index, segment in enumerate(plan.segments) if segment is lane.features.head),
            None,
        )
        if not head_at:
            return None
        features = lane.features.stacked(images)
        return None if features is None else (head_at, features)

    @staticmethod
    def _rehearse_seed(
        lane: _Lane, images: np.ndarray, wanted, monitor: InferenceMonitor | None, seeded: tuple
    ) -> tuple:
        """Run the full golden pass a seeded one stands for; warn once if they differ.

        ``seeded`` and the result are ``(output, checkpoints, marks,
        events)``; the full pass is returned either way, so the step that
        checks is a step of the plain path.
        """
        with _scanning(monitor):
            output, checkpoints, marks = lane.plan.run_recording(images, wanted, monitor=monitor)
        full = (output, checkpoints, marks, monitor.collect() if monitor is not None else None)
        lane.seeds_agree = (
            _bitwise_equal(seeded[0], output)
            and seeded[1].keys() == checkpoints.keys()
            and all(_bitwise_equal(seeded[1][index], checkpoints[index]) for index in checkpoints)
            and seeded[2:] == full[2:]
        )
        if not lane.seeds_agree:
            lane.features = None
            warnings.warn(
                f"{type(lane.model).__name__}: a golden pass seeded with the head fit's "
                "features differs from the full one (the model changed since the fit), "
                "running full golden passes",
                RuntimeWarning,
                stacklevel=3,
            )
        return full

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
        only ``first_faulted_layer`` could skip a patched layer that runs
        earlier in the chain, and rejoining before ``last`` would skip a
        fault that has yet to fire.
        """
        if plan is None:
            return None
        layers = getattr(group, "faulted_layers", None)
        if layers is None:
            first = getattr(group, "first_faulted_layer", None)
            layers = [] if first is None else [first]
        if not layers:
            return None
        first_segments, last_segments = [], []
        for layer in layers:
            name = wrapper.fault_injection.layers[layer].name
            index = plan.segment_for(name)
            if index is None:
                return None
            first_segments.append(index)
            last_segments.append(plan.last_segment_for(name))
        return min(first_segments), max(last_segments)

    def _golden_pass(
        self,
        lane: _Lane,
        images: np.ndarray,
        batch: list[ImageRecord],
        cache_key: tuple,
        span: tuple[int, int] | None,
    ) -> tuple[GoldenCacheEntry, object]:
        """Run (or fetch) one lane's golden pass.

        ``span`` is the step's :meth:`_faulted_span`.

        Returns ``(entry, boundary)``: the golden pass as a cache entry — the
        cached one, or without a cache a transient one — and the activation
        the faulty pass resumes from: ``images`` for a span that starts in
        segment 0, the checkpoint of boundary ``span[0]`` otherwise
        (``None`` when not available).  A transient entry holds that
        checkpoint and the first resumable boundary behind ``span[1]``, the
        first one a cached entry would be compared at.  ``entry.marks`` /
        ``entry.events`` carry the golden monitor state the faulty pass
        inherits for the segments it does not execute (``None`` without
        monitoring).  A seeded pass (see :meth:`_seed`) gives the same entry
        without running the segments between those checkpoints and the head.
        """
        cache = self.golden_cache
        plan = lane.plan
        resume_at = span[0] if span is not None else None
        if cache is not None:
            entry = cache.get(cache_key)
            if entry is not None:
                boundary = None
                if resume_at == 0:
                    boundary = images
                elif resume_at is not None:
                    boundary = entry.boundaries.get(resume_at)
                    if boundary is None and plan is not None:
                        # Epoch-invariant output is cached but this epoch's
                        # fault group needs a boundary no one recorded yet:
                        # recompute the prefix only (still no full pass).
                        boundary = plan.run_prefix(images, resume_at)
                        stored = (
                            np.array(boundary, copy=True)
                            if isinstance(boundary, np.ndarray)
                            else boundary
                        )
                        cache.add_boundary(cache_key, resume_at, stored)
                return entry, boundary
        if plan is None:
            output = self.task.infer(lane.model, images, batch)
            if cache is not None:
                return cache.put(cache_key, output), None
            return GoldenCacheEntry(output), None
        # The monitor scan on the golden pass is only paid when something
        # consumes its events: a planned faulty pass (it inherits those of
        # the prefix it skips and of the tail behind a rejoin) or a cache
        # recording.
        monitor = lane.monitor if cache is not None or span is not None else None
        # With a cache every boundary a fault group can resume at is
        # checkpointed (owned copies), so later epochs and grid points need
        # no prefix pass; the transient path records this step's two into
        # the reusable arena (boundary 0 is ``images``, a resume point past
        # the last resumable boundary has nothing behind it).
        if cache is not None:
            wanted = lane.resumable
            arena = None
        else:
            wanted = []
            if span is not None:
                behind = next((index for index in lane.resumable if index > span[1]), None)
                wanted = [index for index in (resume_at, behind) if index]
            arena = lane.arena
        # A fitted classifier's cache-less golden pass may resume at its
        # head from the features the fit kept: only the checkpoints above
        # need the prefix.
        seed = self._seed(lane, plan, images)
        with _scanning(monitor):
            output, checkpoints, marks = plan.run_recording(
                images, wanted, arena=arena, monitor=monitor, seed=seed
            )
        events = monitor.collect() if monitor is not None else None
        if seed is not None and lane.seeds_agree is None:
            output, checkpoints, marks, events = self._rehearse_seed(
                lane, images, wanted, monitor, (output, checkpoints, marks, events)
            )
        elif seed is not None:
            self.golden_seeded += 1
        if cache is not None:
            entry = cache.put(cache_key, output, checkpoints, marks, events)
        else:
            entry = GoldenCacheEntry(output, checkpoints, marks, events)
        return entry, images if resume_at == 0 else checkpoints.get(resume_at)

    @staticmethod
    def _inherit_golden_events(
        entry: GoldenCacheEntry,
        resumed_at: int | None,
        rejoined_at: int | None,
        executed: MonitorResult,
    ) -> MonitorResult:
        """Add the golden monitor events of the segments a faulty pass skipped.

        A pass that resumed at ``resumed_at`` never executed the prefix, one
        that rejoined the golden pass at ``rejoined_at`` never executed the
        tail; the activations of both (hence their NaN/Inf/custom events) are
        bit-identical to the golden pass's, so inheriting its events for
        exactly those segments reproduces the full-forward monitor result.
        """
        events, marks = entry.events, entry.marks
        if resumed_at is None or events is None or marks is None:
            return executed
        head = marks[resumed_at]
        tail = marks[-1] if rejoined_at is None else marks[rejoined_at]
        return MonitorResult(
            nan_layers=events.nan_layers[: head[0]]
            + executed.nan_layers
            + events.nan_layers[tail[0] :],
            inf_layers=events.inf_layers[: head[1]]
            + executed.inf_layers
            + events.inf_layers[tail[1] :],
            custom_events=events.custom_events[: head[2]]
            + executed.custom_events
            + events.custom_events[tail[2] :],
        )

    @staticmethod
    def _sparse_rows(
        lane: _Lane, group, entry: GoldenCacheEntry, boundary, size: int
    ) -> tuple[int, ...] | None:
        """The batch rows a planned faulty pass needs to run (``None``: all).

        A neuron group's faults name their images, so a pass over only those
        rows gives the other rows' golden values when nothing else can tell
        the difference: the lane's monitor has no custom monitor (it would
        see a smaller array) and the golden pass raised no event (a skipped
        row would not raise it again).  A lane whose model failed the
        row-invariance check runs full-batch passes.
        """
        if (
            not isinstance(group, NeuronFaultGroup)
            or size == 1
            or lane.rows_agree is False
            or not isinstance(boundary, np.ndarray)
        ):
            return None
        if lane.monitor is not None:
            events = entry.events
            if (
                lane.monitor.custom_monitors
                or events is None
                or events.due_detected
                or events.custom_events
            ):
                return None
        rows = group.rows(size)
        return rows if 0 < len(rows) < size else None

    def _resume(
        self,
        plan: ForwardPlan,
        span: tuple[int, int],
        entry: GoldenCacheEntry,
        boundary,
        batch: list[ImageRecord],
        group,
        rows: tuple[int, ...] | None,
    ):
        """One planned faulty pass from ``boundary`` over the whole batch or ``rows``.

        A sub-batch pass starts from those rows of ``boundary`` and its output
        is spliced into the golden one, unless it rejoined: then it is
        ``entry.output`` itself, like a full-batch pass that rejoined.
        """
        first, last = span
        resume = functools.partial(plan.resume, first, golden=entry, after=last, rows=rows)
        if rows is None:
            scope = contextlib.nullcontext()
        else:
            scope = group.sub_batch(rows)
            boundary = take_rows(boundary, rows)
            batch = [batch[row] for row in rows]
        with scope:
            # A pass from segment 0 starts at the input batch, so it is an
            # inference like any other and the task runs it (``infer`` is
            # ``finish(model(images))``).
            if first == 0:
                output = self.task.infer(resume, boundary, batch)
            else:
                output = self.task.finish(resume(boundary))
        if rows is None or plan.rejoined_at is not None:
            return output
        return _splice_rows(self.task.finish(entry.output), rows, output)

    def _run_lane(
        self,
        lane: _Lane,
        group,
        images: np.ndarray,
        batch: list[ImageRecord],
        cache_key: tuple,
    ) -> tuple[GoldenCacheEntry, object, MonitorResult | None]:
        """One lane's share of a step: ``(golden entry, faulty output, events)``.

        The golden pass runs before the group opens, the faulty pass inside
        it, both on ``lane.model``.  With a boundary to start from, the
        faulty pass runs only the segments from the group's first faulted
        one, and only up to the first golden checkpoint behind its last
        faulted one where the activation equals the golden pass's — the
        output is then ``entry.output`` itself.  A neuron group whose faults
        name fewer rows than the batch runs those rows only (see
        :meth:`_sparse_rows`).  The first time a lane would, it rehearses
        a plain forward of those rows, then runs the full-batch pass and
        compares the two outputs: a model whose rows differ between them
        mixes the samples of a batch, so the lane warns once and keeps
        full-batch passes.
        ``events`` are those of a full faulty forward (``None`` for a lane
        without monitor).
        """
        task, monitor = self.task, lane.monitor
        plan = self._plan_for(lane, images)
        span = self._faulted_span(plan, lane.wrapper, group)
        if monitor is not None:
            # First step: the group iterator has registered the lane's
            # injection hooks by now, so the monitor's fire behind them and
            # scan the *corrupted* activation of a faulted layer.
            monitor.attach()
        head = (lane.name,)
        if lane.fingerprint is not None:
            head += (lane.fingerprint, F.KERNEL_GENERATION)
        entry, boundary = self._golden_pass(lane, images, batch, head + cache_key, span)
        rows = None
        if span is not None and boundary is not None:
            rows = self._sparse_rows(lane, group, entry, boundary, len(batch))
        resumed_at = rejoined_at = None
        with group, _scanning(monitor):
            if span is None or boundary is None:
                output = task.infer(group.model, images, batch)
            else:
                sparse = None
                if rows is not None and lane.rows_agree is None:
                    # The lane's first sparse pass is rehearsed as a plain
                    # forward of the faulted rows: the full-batch pass that
                    # follows must match it.
                    with group.rehearsal(), group.sub_batch(rows):
                        sparse = task.finish(group.model(take_rows(images, rows)))
                    sparse = _splice_rows(task.finish(entry.output), rows, sparse)
                    if monitor is not None:
                        monitor.reset()
                    rows = None
                resumed_at = span[0]
                output = self._resume(plan, span, entry, boundary, batch, group, rows)
                rejoined_at = plan.rejoined_at
                if rows is not None:
                    self.rows_skipped += len(batch) - len(rows)
                if sparse is not None:
                    lane.rows_agree = _bitwise_equal(sparse, output)
                    if not lane.rows_agree:
                        warnings.warn(
                            f"{type(lane.model).__name__}: a faulty pass of the faulted rows "
                            "alone differs from the full-batch one (the model "
                            "mixes the samples of a batch), running full-batch passes",
                            RuntimeWarning,
                            stacklevel=2,
                        )
        if rejoined_at is not None:
            self.rejoins += 1
            if self.golden_cache is not None:
                self.golden_cache.rejoins += 1
        if monitor is None:
            return entry, output, None
        executed = monitor.collect()
        return entry, output, self._inherit_golden_events(entry, resumed_at, rejoined_at, executed)

    def _run_step(
        self,
        batch: list[ImageRecord],
        epoch: int,
        step: int,
        groups: list,
        group_index: int,
        collect_applied: bool,
    ) -> None:
        """Run one batch through every lane under the lanes' fault groups."""
        task = self.task
        images = AlfiDataLoaderWrapper.stack_images(batch)
        cache_key = tuple(record.image_id for record in batch)
        if self.golden_cache is not None:
            # The content digest guards spillover reuse against a changed
            # dataset whose image ids collide with an earlier campaign's;
            # hashed once per step, shared by the lanes.  The same ids and
            # bytes read under another per-sample shape are another input.
            cache_key += (bytes_digest(np.ascontiguousarray(images).tobytes()), images.shape)
        results = [
            self._run_lane(lane, group, images, batch, cache_key)
            for lane, group in zip(self.lanes, groups)
        ]
        entry, corrupted, events = results[0]
        resil_golden = resil_out = None
        if len(results) > 1:
            # The hardened model is judged against its *own* fault-free
            # baseline, so that range clamping of rare fault-free activations
            # is not misattributed to the injected fault.
            resil_entry, resil_out, _ = results[1]
            resil_golden = task.finish(resil_entry.output)
        task.consume(
            StepContext(
                batch=batch,
                epoch=epoch,
                step=step,
                group_index=group_index,
                golden=task.finish(entry.output),
                corrupted=corrupted,
                applied=[fault.as_dict() for fault in groups[0].applied_faults],
                monitor=events,
                collect_applied=collect_applied,
                resil_golden=resil_golden,
                resil=resil_out,
                golden_derived=entry.derived,
            )
        )
