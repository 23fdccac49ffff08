"""The task-agnostic campaign loop: :class:`CampaignCore`.

Dataset iteration, golden/faulty lock-step inference over the clone-free
fault group sessions, the primary and the hardened ("resil") model lane,
attach-once monitors, forward plans and the stream lifecycle.  Outputs are
interpreted by the :class:`~repro.alficore.campaign.tasks.CampaignTask` it
is given.

Every faulty pass of a planned model runs ``[first, rejoin)``: from the
group's first faulted segment — a golden checkpoint, or the input batch for
segment 0 — to the first golden checkpoint behind its last faulted segment
that it reproduces byte for byte (else to the end).  With a golden cache the
checkpoints are the entry's; without one the golden pass of the same step
records the two the faulty pass needs.
"""

from __future__ import annotations

import functools
import warnings
from typing import Callable, Iterator

import numpy as np

from repro.alficore.campaign.tasks import CampaignTask, StepContext
from repro.alficore.digests import bytes_digest, model_fingerprint
from repro.alficore.goldencache import GoldenCache, GoldenCacheEntry
from repro.alficore.monitoring import MonitorCache, MonitorResult
from repro.alficore.policies import InjectionPolicy
from repro.alficore.results import CampaignResultWriter
from repro.alficore.scenario import ScenarioConfig, default_scenario
from repro.alficore.wrapper import ptfiwrap
from repro.data.wrapper import AlfiDataLoaderWrapper, ImageRecord
from repro.nn.forward_plan import ActivationArena, ForwardPlan
from repro.nn.module import Module
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


def _epoch_segments(start: int, stop: int, num_batches: int) -> Iterator[tuple[int, int, int]]:
    """Split a global step range into ``(epoch, first_batch, stop_batch)`` runs."""
    step = start
    while step < stop:
        epoch, batch = divmod(step, num_batches)
        segment_stop = min(stop, (epoch + 1) * num_batches)
        yield epoch, batch, batch + (segment_stop - step)
        step = segment_stop


class CampaignCore:
    """Task-agnostic campaign loop over the clone-free fault group sessions.

    The core owns the mechanics shared by every workload — dataset iteration,
    golden/faulty lock-step inference, session handling for the primary and
    the optional hardened model lane, attach-once monitor caching and stream
    lifecycle — and delegates all output interpretation to a
    :class:`CampaignTask`.

    Args:
        model: the fault-free baseline model (restored bit-exactly after
            every weight fault group).
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
        prefix_reuse: run the faulty (and resil-faulty) lane as a suffix-only
            forward from the first faulted layer, reusing the golden pass's
            checkpointed prefix activations, and end it at the first golden
            checkpoint behind the last faulted layer that it reproduces
            (bit-identical to a full faulty forward).  Disabled automatically
            for models whose forward does not linearise into a
            :class:`~repro.nn.forward_plan.ForwardPlan`.
        golden_cache: optional :class:`GoldenCache`; golden (and
            resil-golden) passes are computed once per batch of images
            instead of once per epoch, and their boundary checkpoints are
            reused by later suffix-only faulty lanes.  A cache handed in is
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
        self._monitors = MonitorCache(self.custom_monitors)
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
        # Forward plans, their resumable boundaries and recording arenas,
        # lazily built per model object (``None`` marks a model whose forward
        # could not be linearised).
        self._plans: dict[int, ForwardPlan | None] = {}
        self._resumable: dict[int, tuple[int, ...]] = {}
        self._arenas: dict[int, ActivationArena] = {}
        self._fingerprints: dict[int, str] = {}

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
        # Weights may have been mutated between runs of the same core; the
        # cache fingerprint must reflect the state of this run.
        self._fingerprints = {}
        if not 0 <= start <= total:
            raise ValueError(f"step range start {start} outside campaign of {total} steps")
        policy = InjectionPolicy.from_string(self.scenario.inj_policy)
        loader = self.make_loader()
        group_start, group_stop = self._group_range(start, stop, policy)
        groups = self.wrapper.get_fault_group_iter(
            self._error_model, start=group_start, stop=group_stop
        )
        resil_groups = None
        if self.resil_wrapper is not None:
            resil_groups = self.resil_wrapper.get_fault_group_iter(
                self._error_model, start=group_start, stop=group_stop
            )
        stream_paths = self.task.begin(self.writer, resil=self.resil_model is not None)
        try:
            for epoch, first_batch, stop_batch in _epoch_segments(start, stop, self.num_batches):
                group = resil_group = None
                group_index = -1
                if policy is InjectionPolicy.PER_EPOCH:
                    group = self._next_group(groups)
                    if resil_groups is not None:
                        resil_group = self._next_group(resil_groups)
                    group_index = epoch
                for offset, batch in enumerate(loader.iter_batches(epoch, first_batch, stop_batch)):
                    step = epoch * self.num_batches + first_batch + offset
                    if policy is not InjectionPolicy.PER_EPOCH:
                        group = self._next_group(groups)
                        if resil_groups is not None:
                            resil_group = self._next_group(resil_groups)
                        group_index = step
                        collect_applied = True
                    else:
                        # The applied-fault log of an epoch group is collected
                        # exactly once, on the epoch's first (global) batch.
                        collect_applied = first_batch + offset == 0
                    self._run_step(
                        batch, epoch, step, group, group_index, collect_applied, resil_group
                    )
        finally:
            self.task.end()
            groups.close()
            if resil_groups is not None:
                resil_groups.close()
            self._monitors.detach_all()
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
    def _plan_for(self, model: Module, images: np.ndarray) -> ForwardPlan | None:
        """Return the (lazily traced) forward plan of a model, or ``None``.

        The trace and its replay validation run on the first sample of
        ``images`` only: the segment chain, the containment map and the
        executor choice are properties of the topology, not of the batch.

        Must be called outside any active fault group: the trace pass runs
        the model once, and active faults would corrupt it (and pollute the
        group's applied-fault log).
        """
        if not self.prefix_reuse or not getattr(self.task, "plan_compatible", False):
            return None
        key = id(model)
        if key not in self._plans:
            try:
                plan = ForwardPlan.trace(model, images[:1], executor=self.executor)
            except Exception as error:
                warnings.warn(
                    f"{type(model).__name__}: no forward plan under executor "
                    f"{self.executor!r}, running full forwards ({error!r})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                plan = None
            self._plans[key] = plan if plan is not None and plan.valid else None
        return self._plans[key]

    def _arena_for(self, model: Module) -> ActivationArena:
        key = id(model)
        if key not in self._arenas:
            self._arenas[key] = ActivationArena()
        return self._arenas[key]

    def _model_fingerprint(self, model: Module) -> str:
        """Digest of the model's weights.

        Part of every golden-cache key: spillover directories outlive one
        campaign (shards of later runs reuse them), so entries recorded for
        different weights must never match.  Computed while the model is
        unpatched (outside any fault group).  Input-content mismatches are
        covered separately by the per-batch image digest in the key.
        """
        key = id(model)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = model_fingerprint(model)
            self._fingerprints[key] = fingerprint
        return fingerprint

    def _resumable_boundaries(self, plan: ForwardPlan, wrapper: ptfiwrap) -> tuple[int, ...]:
        """Boundaries a fault group of ``wrapper`` can resume at, ascending.

        A group resumes at the segment of its earliest faulted layer, so
        only segments holding an injectable layer are ever asked for — the
        only ones a cached golden pass needs to checkpoint.  Boundary 0 is
        the input batch and needs no checkpoint.  Computed once per golden
        model (each has one plan and one wrapper).
        """
        key = id(plan.model)
        boundaries = self._resumable.get(key)
        if boundaries is None:
            segments = (plan.segment_for(layer.name) for layer in wrapper.fault_injection.layers)
            boundaries = tuple(sorted({index for index in segments if index}))
            self._resumable[key] = boundaries
        return boundaries

    @staticmethod
    def _faulted_span(
        golden_plan: ForwardPlan | None,
        faulty_plan: ForwardPlan | None,
        wrapper: ptfiwrap,
        group,
    ) -> tuple[int, int] | None:
        """Plan segments ``(first, last)`` that execute a faulted layer of the group.

        The faulty lane resumes at ``first`` (0: from the input batch) and
        may rejoin the golden pass behind ``last``; ``None`` means a plain
        forward of the faulty model.  The golden and the faulty model (a
        bit-identical clone for neuron campaigns) must segment identically,
        since the golden plan's checkpoints are fed into the faulty plan's
        suffix.  Both ends are taken over the *executed* segments of all of
        the group's faulted layers — layer indices follow registration order,
        which may differ from execution order, so mapping only
        ``first_faulted_layer`` could skip a patched layer that runs earlier
        in the chain, and rejoining before ``last`` would skip a fault that
        has yet to fire.
        """
        if golden_plan is None or faulty_plan is None:
            return None
        if faulty_plan is not golden_plan and faulty_plan.segment_names != golden_plan.segment_names:
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
            index = faulty_plan.segment_for(name)
            if index is None:
                return None
            first_segments.append(index)
            last_segments.append(faulty_plan.last_segment_for(name))
        return min(first_segments), max(last_segments)

    def _golden_pass(
        self,
        model: Module,
        plan: ForwardPlan | None,
        images: np.ndarray,
        batch: list[ImageRecord],
        cache_key: tuple,
        span: tuple[int, int] | None,
        with_monitor: bool,
        wrapper: ptfiwrap,
    ) -> tuple[GoldenCacheEntry, object]:
        """Run (or fetch) one lane's golden pass.

        ``span`` is the step's :meth:`_faulted_span`; ``wrapper`` is the
        lane's fault-injection wrapper, whose injectable layers decide which
        boundaries are checkpointed.

        Returns ``(entry, boundary)``: the golden pass as a cache entry — the
        cached one, or without a cache a transient one — and the activation
        the faulty lane resumes from: ``images`` for a span that starts in
        segment 0, the checkpoint of boundary ``span[0]`` otherwise
        (``None`` when not available).  A transient entry holds that
        checkpoint and the first resumable boundary behind ``span[1]``, the
        first one a cached entry would be compared at.  ``entry.marks`` /
        ``entry.events`` carry the golden monitor state the faulty lane
        inherits for the segments it does not execute (``None`` without
        monitoring).
        """
        cache = self.golden_cache
        resume_at = span[0] if span is not None else None
        if cache is not None:
            entry = cache.get(cache_key, batch_shape=images.shape)
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
            output = self.task.infer(model, images, batch)
            if cache is not None:
                return cache.put(cache_key, output, batch_shape=images.shape), None
            return GoldenCacheEntry(output), None
        monitor = None
        if with_monitor:
            monitor = self._monitors.monitor_for(model)
            monitor.reset()
            monitor.enabled = True
        try:
            # With a cache every boundary a fault group can resume at is
            # checkpointed (owned copies), so later epochs and grid points
            # need no prefix pass; the transient path records this step's two
            # into the reusable arena (boundary 0 is ``images``, a resume
            # point past the last resumable boundary has nothing behind it).
            resumable = self._resumable_boundaries(plan, wrapper)
            if cache is not None:
                wanted = resumable
                arena = None
            else:
                wanted = []
                if span is not None:
                    behind = next((index for index in resumable if index > span[1]), None)
                    wanted = [index for index in (resume_at, behind) if index]
                arena = self._arena_for(model)
            output, checkpoints, marks = plan.run_recording(
                images, wanted, arena=arena, monitor=monitor
            )
        finally:
            if monitor is not None:
                monitor.enabled = False
        events = monitor.collect() if monitor is not None else None
        if cache is not None:
            entry = cache.put(
                cache_key, output, checkpoints, marks, events, batch_shape=images.shape
            )
        else:
            entry = GoldenCacheEntry(output, checkpoints, marks, events)
        return entry, images if resume_at == 0 else checkpoints.get(resume_at)

    def _cache_lane_key(self, lane: str, model: Module, cache_key: tuple) -> tuple:
        """Full golden-cache key: lane and weight fingerprint before the
        step's batch key (image ids + image digest, see :meth:`_run_step`)."""
        if self.golden_cache is None:
            return (lane,) + cache_key
        return (lane, self._model_fingerprint(model)) + cache_key

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

    def _faulty_pass(
        self,
        plan: ForwardPlan | None,
        group,
        span: tuple[int, int] | None,
        entry: GoldenCacheEntry,
        boundary,
        images: np.ndarray,
        batch: list[ImageRecord],
    ) -> tuple[object, int | None, int | None]:
        """Run one lane's faulty pass inside its open fault group.

        Returns ``(output, resumed_at, rejoined_at)``: with a boundary to
        start from only the segments from the group's first faulted one run,
        and only up to the first golden checkpoint behind its last faulted
        one where the activation equals the golden pass's — the output is
        then ``entry.output`` itself.  A pass from segment 0 starts at the
        input batch, so it is an inference like any other and the task runs
        it (``infer`` is ``finish(model(images))``).
        """
        if span is None or boundary is None:
            return self.task.infer(group.model, images, batch), None, None
        resume_at, last_faulted = span
        resume = functools.partial(plan.resume, resume_at, golden=entry, after=last_faulted)
        if resume_at == 0:
            output = self.task.infer(resume, images, batch)
        else:
            output = self.task.finish(resume(boundary))
        if plan.rejoined_at is not None:
            self.rejoins += 1
            if self.golden_cache is not None:
                self.golden_cache.rejoins += 1
        return output, resume_at, plan.rejoined_at

    def _run_step(
        self,
        batch: list[ImageRecord],
        epoch: int,
        step: int,
        group,
        group_index: int,
        collect_applied: bool,
        resil_group,
    ) -> None:
        task = self.task
        images = AlfiDataLoaderWrapper.stack_images(batch)
        cache_key = tuple(record.image_id for record in batch)
        if self.golden_cache is not None:
            # The content digest guards spillover reuse against a changed
            # dataset whose image ids collide with an earlier campaign's;
            # hashed once per step, shared by the golden and resil lanes.
            cache_key += (bytes_digest(np.ascontiguousarray(images).tobytes()),)

        # Plans are traced before the patch session opens (the faulty model
        # object exists, and is fault-free, outside the ``with group`` scope).
        golden_plan = self._plan_for(self.model, images)
        faulty_model = group.model
        faulty_plan = (
            golden_plan if faulty_model is self.model else self._plan_for(faulty_model, images)
        )
        span = self._faulted_span(golden_plan, faulty_plan, self.wrapper, group)

        # Golden pass runs before the patch is applied.  The monitor scan on
        # the golden pass is only paid when something consumes its events: a
        # planned faulty pass (it inherits those of the prefix it skips and
        # of the tail behind a rejoin) or a cache recording.
        entry, boundary = self._golden_pass(
            self.model,
            golden_plan,
            images,
            batch,
            self._cache_lane_key("golden", self.model, cache_key),
            span,
            with_monitor=golden_plan is not None
            and (self.golden_cache is not None or span is not None),
            wrapper=self.wrapper,
        )
        golden = task.finish(entry.output)

        with group:
            monitor = self._monitors.monitor_for(group.model)
            monitor.reset()
            monitor.enabled = True
            try:
                corrupted, resumed_at, rejoined_at = self._faulty_pass(
                    faulty_plan, group, span, entry, boundary, images, batch
                )
            finally:
                monitor.enabled = False
            monitor_result = self._inherit_golden_events(
                entry, resumed_at, rejoined_at, monitor.collect()
            )
        applied = [fault.as_dict() for fault in group.applied_faults]
        resil_golden = resil_out = None
        if resil_group is not None:
            # The hardened model is judged against its *own* fault-free
            # baseline, so that range clamping of rare fault-free activations
            # is not misattributed to the injected fault.  Its golden pass
            # must run before the patch session opens.
            resil_plan = self._plan_for(self.resil_model, images)
            resil_faulty = resil_group.model
            resil_faulty_plan = (
                resil_plan
                if resil_faulty is self.resil_model
                else self._plan_for(resil_faulty, images)
            )
            resil_span = self._faulted_span(
                resil_plan, resil_faulty_plan, self.resil_wrapper, resil_group
            )
            resil_entry, resil_boundary = self._golden_pass(
                self.resil_model,
                resil_plan,
                images,
                batch,
                self._cache_lane_key("resil", self.resil_model, cache_key),
                resil_span,
                with_monitor=False,
                wrapper=self.resil_wrapper,
            )
            resil_golden = task.finish(resil_entry.output)
            with resil_group:
                resil_out, _, _ = self._faulty_pass(
                    resil_faulty_plan, resil_group, resil_span,
                    resil_entry, resil_boundary, images, batch,
                )
        task.consume(
            StepContext(
                batch=batch,
                epoch=epoch,
                step=step,
                group_index=group_index,
                golden=golden,
                corrupted=corrupted,
                applied=applied,
                monitor=monitor_result,
                collect_applied=collect_applied,
                resil_golden=resil_golden,
                resil=resil_out,
                golden_derived=entry.derived,
            )
        )
