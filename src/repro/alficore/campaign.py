"""Task-pluggable clone-free campaign core with sharded parallel execution.

The campaign engine is split into three layers:

* :class:`CampaignCore` owns everything that is identical for every workload:
  the golden/faulty lock-step loop over the clone-free fault group sessions
  (:meth:`~repro.alficore.wrapper.ptfiwrap.get_fault_group_iter`), session
  handling for the primary and the optional hardened ("resil") model lane,
  attach-once monitor caching (:class:`~repro.alficore.monitoring.MonitorCache`)
  and the streamed-record plumbing.  The core never interprets model outputs.
  Each step's golden pass is one
  :class:`~repro.alficore.goldencache.GoldenCacheEntry` (cached, or
  transient without a cache) that serves both ends of the faulty pass: the
  boundary it resumes at, and — *tail reuse* — the first cached boundary
  behind the group's last faulted segment that the faulty activation
  reproduces byte for byte, where the pass ends with the golden output
  object and inherits the golden monitor events of the skipped tail.
* :class:`CampaignTask` adapters interpret outputs per workload.
  :class:`ClassificationTask` classifies each inference masked / SDE / DUE
  against its golden top-1 and streams CSV rows;  :class:`DetectionTask`
  collects per-image predictions for IVMOD / mAP evaluation and streams
  detection JSON records.  Both keep a picklable aggregate ``state`` so shard
  workers can ship partial results back to the parent process.  What a
  record takes from the golden output alone (top-k, hit flags, the golden
  CSV cells) is memoised with the golden pass's cache entry, so it is built
  once per image; a rejoined pass (``corrupted is golden``) reuses it too.
* :class:`ShardedCampaignExecutor` partitions a campaign into contiguous
  ``(epoch, fault-group, dataset-index)`` shards and runs them through the
  supervised scheduler in :mod:`repro.alficore.resilience` (or sequentially
  in-process for ``workers=1``): failed, killed or hung shards are re-queued
  by their deterministic step range with capped exponential backoff, shard
  outputs land via atomic directory renames, and a crash-safe run manifest
  makes interrupted campaigns resumable.  Per-shard result files are merged
  deterministically — the merged output is byte-identical to a
  single-process run of the same seed, because every fault corruption is
  pre-drawn in the fault matrix and the loader's epoch permutations depend
  only on ``(seed, epoch)``.

:class:`CampaignRunner` keeps its PR-1 interface: a classification campaign
runner with O(batch) memory whose records are *streamed* to
:class:`~repro.alficore.results.CampaignResultWriter` while only aggregate
KPIs are kept and returned as a :class:`CampaignSummary`.  It is now a thin
facade over ``CampaignCore`` + ``ClassificationTask`` and gained ``workers``
/ ``num_shards`` for parallel execution.
"""

from __future__ import annotations

import copy
import os
import pickle
import shutil
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.alficore._deprecation import warn_once
from repro.alficore.digests import bytes_digest, model_fingerprint
from repro.alficore.goldencache import GoldenCache, GoldenCacheEntry
from repro.alficore.monitoring import (
    MonitorCache,
    MonitorResult,
    _nan_inf,
    output_has_nan_or_inf,
)
from repro.alficore.policies import InjectionPolicy
from repro.alficore.resilience import (
    ExecutionPolicy,
    RunManifest,
    ShardSupervisor,
    atomic_write_pickle,
)
from repro.alficore.results import (
    CampaignResultWriter,
    DetectionRecord,
    classification_cells,
    fault_positions_cell,
    merge_csv_files,
    merge_json_array_files,
)
from repro.alficore.scenario import ScenarioConfig, default_scenario
from repro.alficore.wrapper import ptfiwrap
from repro.data.wrapper import AlfiDataLoaderWrapper, ImageRecord
from repro.eval.classification import top_k_predictions
from repro.eval.sdc import FaultOutcome, classify_classification_outcome
from repro.nn.forward_plan import ActivationArena, ForwardPlan
from repro.nn.module import Module
from repro.pytorchfi.errormodels import ErrorModel


@dataclass
class CampaignSummary:
    """Aggregate KPIs of one streamed fault-injection campaign."""

    model_name: str
    num_inferences: int
    num_fault_groups: int
    num_applied_faults: int
    golden_top1_accuracy: float
    golden_top5_accuracy: float
    corrupted_top1_accuracy: float
    masked_rate: float
    sde_rate: float
    due_rate: float
    outcome_counts: dict[str, int] = field(default_factory=dict)
    output_files: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "model_name": self.model_name,
            "num_inferences": self.num_inferences,
            "num_fault_groups": self.num_fault_groups,
            "num_applied_faults": self.num_applied_faults,
            "golden_top1_accuracy": self.golden_top1_accuracy,
            "golden_top5_accuracy": self.golden_top5_accuracy,
            "corrupted_top1_accuracy": self.corrupted_top1_accuracy,
            "masked_rate": self.masked_rate,
            "sde_rate": self.sde_rate,
            "due_rate": self.due_rate,
            "outcome_counts": dict(self.outcome_counts),
            "output_files": dict(self.output_files),
        }


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


@dataclass
class StepContext:
    """Everything one lock-step golden/faulty step hands to the task."""

    batch: list[ImageRecord]
    epoch: int
    step: int
    group_index: int
    golden: object
    corrupted: object
    applied: list[dict]
    monitor: MonitorResult
    collect_applied: bool
    resil_golden: object | None = None
    resil: object | None = None
    # Scratch space that lives exactly as long as the golden pass behind
    # ``golden`` (the golden-cache entry's ``derived``): what a task computes
    # from the golden output alone it may keep here for the next epoch.
    golden_derived: dict | None = None


class CampaignTask:
    """Per-batch evaluation plug-in for :class:`CampaignCore`.

    A task interprets model outputs for one workload: it opens the workload's
    record streams in :meth:`begin`, folds every :class:`StepContext` into a
    picklable aggregate ``state`` in :meth:`consume` (streaming per-inference
    records as they are produced), and closes the streams in :meth:`end`.
    ``state`` objects of shards are combined with :meth:`merge_states` in
    shard order, which must reproduce the state of an unsharded run.
    """

    name = "task"
    # Tasks whose ``infer`` is exactly ``finish(model(images))`` may be run
    # through a :class:`~repro.nn.forward_plan.ForwardPlan` (prefix-reuse
    # suffix-only forwards).  Override with ``False`` when ``infer`` does
    # anything beyond that contract.
    plan_compatible = True

    def fresh(self) -> "CampaignTask":
        """Return an unstarted copy for a shard worker (configuration only)."""
        clone = copy.deepcopy(self)
        clone.reset()
        return clone

    def reset(self) -> None:
        """Drop accumulated state (start of a new run)."""
        raise NotImplementedError

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        """Open record streams; return ``{tag: path}`` of the stream files."""
        return {}

    def finish(self, output):
        """Convert a raw model output into the task's working form (idempotent)."""
        return output

    def infer(self, model: Module, images: np.ndarray, batch: list[ImageRecord]):
        """Run one forward pass (identical for the golden and faulty lanes)."""
        return self.finish(model(images))

    def consume(self, ctx: StepContext) -> None:
        """Fold one step's outputs into the aggregate state and streams."""
        raise NotImplementedError

    def end(self) -> None:
        """Close the record streams opened by :meth:`begin`."""

    @staticmethod
    def merge_states(states: list):
        """Combine shard states (in shard order) into one campaign state."""
        raise NotImplementedError


def _close_streams(streams: dict) -> None:
    for stream in streams.values():
        stream.close()


# --------------------------------------------------------------------------- #
# classification task
# --------------------------------------------------------------------------- #
@dataclass
class ClassificationState:
    """Picklable aggregates of a (possibly sharded) classification campaign."""

    inferences: int = 0
    groups: int = 0
    applied_faults: int = 0
    golden_top1_hits: int = 0
    golden_top5_hits: int = 0
    corrupted_top1_hits: int = 0
    outcomes: Counter = field(default_factory=Counter)
    # Buffers below are only filled with ``collect_outputs=True`` (the
    # ``TestErrorModels_ImgClass`` facade needs raw logits for its output).
    golden_logits: list = field(default_factory=list)
    corrupted_logits: list = field(default_factory=list)
    resil_golden_logits: list = field(default_factory=list)
    resil_logits: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    due_flags: list = field(default_factory=list)
    applied_log: list = field(default_factory=list)


class ClassificationTask(CampaignTask):
    """Masked / SDE / DUE classification of each inference vs its golden run.

    Args:
        collect_outputs: additionally buffer raw logits, labels, DUE flags
            and the applied-fault log in ``state`` (needed by the
            ``TestErrorModels_ImgClass`` facade; the streaming
            :class:`CampaignRunner` keeps this off for O(batch) memory).
    """

    name = "classification"

    def __init__(self, collect_outputs: bool = False):
        self.collect_outputs = collect_outputs
        self.state = ClassificationState()
        self._streams: dict = {}

    def reset(self) -> None:
        self.state = ClassificationState()
        self._streams = {}

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        self._streams = {}
        if writer is None:
            return {}
        self._streams["golden_csv"] = writer.stream_classification("golden")
        self._streams["corrupted_csv"] = writer.stream_classification("corrupted")
        if resil:
            self._streams["resil_csv"] = writer.stream_classification("resil")
        self._streams["applied_faults"] = writer.stream_applied_faults()
        return {tag: str(stream.path) for tag, stream in self._streams.items()}

    def finish(self, output) -> np.ndarray:
        return np.asarray(output)

    def consume(self, ctx: StepContext) -> None:
        state = self.state
        golden_out = np.asarray(ctx.golden)
        corrupted_out = np.asarray(ctx.corrupted)
        if ctx.collect_applied:
            state.groups += 1
            state.applied_faults += len(ctx.applied)
            if self.collect_outputs:
                state.applied_log.extend(ctx.applied)
            stream = self._streams.get("applied_faults")
            if stream is not None:
                for entry in ctx.applied:
                    stream.write(entry)

        labels, golden_classes, golden_probs, top1_hits, top5_hits, golden_rows = (
            self._golden_half(ctx, golden_out)
        )
        if ctx.corrupted is ctx.golden:
            # The faulty pass rejoined the golden one (tail reuse): same
            # output object, same top-k.
            corrupted_classes, corrupted_probs = golden_classes, golden_probs
        else:
            classes, probabilities = top_k_predictions(corrupted_out, k=5)
            corrupted_classes, corrupted_probs = classes.tolist(), probabilities.tolist()
        # Monitor events are batch-scoped; per-image output NaN/Inf adds
        # image resolution on top (for batch_size=1 they coincide).  Only a
        # batch whose output is not finite pays the per-image scans.
        batch_nan, batch_inf = _nan_inf(corrupted_out)
        golden_stream = self._streams.get("golden_csv")
        corrupted_stream = self._streams.get("corrupted_csv")
        fault_cell = fault_positions_cell(ctx.applied) if corrupted_stream is not None else ""
        for i, record in enumerate(ctx.batch):
            label = labels[i]
            nan_detected = ctx.monitor.nan_detected or (
                batch_nan and bool(np.isnan(corrupted_out[i]).any())
            )
            inf_detected = ctx.monitor.inf_detected or (
                batch_inf and bool(np.isinf(corrupted_out[i]).any())
            )
            outcome = classify_classification_outcome(
                golden_classes[i][0], corrupted_classes[i][0], nan_detected or inf_detected
            )
            state.inferences += 1
            state.outcomes[outcome] += 1
            state.golden_top1_hits += top1_hits[i]
            state.golden_top5_hits += top5_hits[i]
            state.corrupted_top1_hits += int(corrupted_classes[i][0] == label)
            if self.collect_outputs:
                state.golden_logits.append(golden_out[i])
                state.corrupted_logits.append(corrupted_out[i])
                state.labels.append(label)
                state.due_flags.append(bool(nan_detected or inf_detected))
            if golden_stream is not None:
                golden_stream.write(golden_rows[i])
            if corrupted_stream is not None:
                corrupted_stream.write(
                    classification_cells(
                        record.image_id, record.file_name, label, "corrupted",
                        nan_detected, inf_detected,
                        corrupted_classes[i], corrupted_probs[i], fault_cell,
                    )
                )
        if ctx.resil is not None:
            self._consume_resil(ctx)

    @staticmethod
    def _golden_half(ctx: StepContext, golden_out: np.ndarray) -> tuple:
        """The golden side of the step's records, built once per golden pass.

        Returns ``(labels, classes, probabilities, top1_hits, top5_hits,
        rows)``, plain Python values with one list element per image: what a
        record takes from the golden pass alone.  It depends on the golden
        output (pinned by ``ctx.golden_derived``, which lives and dies with
        that output) and on each image's label and file name, which
        therefore key the memo.
        """
        labels = [int(record.target) for record in ctx.batch]
        derived = ctx.golden_derived if ctx.golden_derived is not None else {}
        key = ("classification", *zip(labels, (record.file_name for record in ctx.batch)))
        half = derived.get(key)
        if half is None:
            classes, probabilities = (
                array.tolist() for array in top_k_predictions(golden_out, k=5)
            )
            half = derived[key] = (
                labels,
                classes,
                probabilities,
                [int(row[0] == label) for row, label in zip(classes, labels)],
                [int(label in row) for row, label in zip(classes, labels)],
                [
                    classification_cells(
                        record.image_id, record.file_name, label, "golden",
                        False, False, classes[i], probabilities[i], fault_positions_cell([]),
                    )
                    for i, (record, label) in enumerate(zip(ctx.batch, labels))
                ],
            )
        return half

    def _consume_resil(self, ctx: StepContext) -> None:
        state = self.state
        resil_out = np.asarray(ctx.resil)
        resil_golden_out = np.asarray(ctx.resil_golden)
        resil_classes, resil_probs = (
            array.tolist() for array in top_k_predictions(resil_out, k=5)
        )
        batch_nan, batch_inf = _nan_inf(resil_out)
        stream = self._streams.get("resil_csv")
        fault_cell = fault_positions_cell(ctx.applied) if stream is not None else ""
        for i, record in enumerate(ctx.batch):
            if self.collect_outputs:
                state.resil_golden_logits.append(resil_golden_out[i])
                state.resil_logits.append(resil_out[i])
            if stream is not None:
                stream.write(
                    classification_cells(
                        record.image_id, record.file_name, int(record.target), "resil",
                        batch_nan and bool(np.isnan(resil_out[i]).any()),
                        batch_inf and bool(np.isinf(resil_out[i]).any()),
                        resil_classes[i], resil_probs[i], fault_cell,
                    )
                )

    def end(self) -> None:
        _close_streams(self._streams)
        self._streams = {}

    @staticmethod
    def merge_states(states: list) -> ClassificationState:
        merged = ClassificationState()
        for state in states:
            merged.inferences += state.inferences
            merged.groups += state.groups
            merged.applied_faults += state.applied_faults
            merged.golden_top1_hits += state.golden_top1_hits
            merged.golden_top5_hits += state.golden_top5_hits
            merged.corrupted_top1_hits += state.corrupted_top1_hits
            merged.outcomes.update(state.outcomes)
            merged.golden_logits.extend(state.golden_logits)
            merged.corrupted_logits.extend(state.corrupted_logits)
            merged.resil_golden_logits.extend(state.resil_golden_logits)
            merged.resil_logits.extend(state.resil_logits)
            merged.labels.extend(state.labels)
            merged.due_flags.extend(state.due_flags)
            merged.applied_log.extend(state.applied_log)
        return merged


# --------------------------------------------------------------------------- #
# detection task
# --------------------------------------------------------------------------- #
@dataclass
class DetectionState:
    """Picklable aggregates of a (possibly sharded) detection campaign.

    Per-image *predictions* (small box/score/label dicts) are retained for
    the campaign-level IVMOD / mAP evaluation; the much larger per-image
    result records are streamed to disk instead of being buffered.
    """

    inferences: int = 0
    groups: int = 0
    applied_faults: int = 0
    golden_predictions: list = field(default_factory=list)
    corrupted_predictions: list = field(default_factory=list)
    resil_golden_predictions: list = field(default_factory=list)
    resil_predictions: list = field(default_factory=list)
    targets: list = field(default_factory=list)
    due_flags: list = field(default_factory=list)
    applied_log: list = field(default_factory=list)


class DetectionTask(CampaignTask):
    """IVMOD / mAP bookkeeping for object-detection campaigns.

    Each step's detections are converted to prediction dicts (golden,
    corrupted and optionally the hardened "resil" lane), NaN and Inf are
    attributed separately per event type via ``Detection.has_nan()`` /
    ``has_inf()`` plus the layer monitors, and per-image
    :class:`DetectionRecord` JSON entries are streamed as they are produced.
    """

    name = "detection"

    def __init__(self, collect_applied_log: bool = False):
        self.collect_applied_log = collect_applied_log
        self.state = DetectionState()
        self._streams: dict = {}

    def reset(self) -> None:
        self.state = DetectionState()
        self._streams = {}

    def begin(self, writer: CampaignResultWriter | None, resil: bool = False) -> dict[str, str]:
        self._streams = {}
        if writer is None:
            return {}
        self._streams["golden_json"] = writer.stream_detection("golden")
        self._streams["corrupted_json"] = writer.stream_detection("corrupted")
        if resil:
            self._streams["resil_json"] = writer.stream_detection("resil")
        self._streams["applied_faults"] = writer.stream_applied_faults()
        return {tag: str(stream.path) for tag, stream in self._streams.items()}

    def consume(self, ctx: StepContext) -> None:
        state = self.state
        if ctx.collect_applied:
            state.groups += 1
            state.applied_faults += len(ctx.applied)
            if self.collect_applied_log:
                state.applied_log.extend(ctx.applied)
            stream = self._streams.get("applied_faults")
            if stream is not None:
                for entry in ctx.applied:
                    stream.write(entry)

        # One structured scan per lane; only a lane that is not finite pays
        # the per-image has_nan() / has_inf() rescans.
        batch_nan, batch_inf = output_has_nan_or_inf(ctx.corrupted)
        resil_nan = resil_inf = False
        if ctx.resil is not None:
            resil_nan, resil_inf = output_has_nan_or_inf(ctx.resil)
        for i, record in enumerate(ctx.batch):
            golden_prediction = ctx.golden[i].as_dict()
            corrupted_detection = ctx.corrupted[i]
            corrupted_prediction = corrupted_detection.as_dict()
            target = record.target
            nan_detected = ctx.monitor.nan_detected or (
                batch_nan and corrupted_detection.has_nan()
            )
            inf_detected = ctx.monitor.inf_detected or (
                batch_inf and corrupted_detection.has_inf()
            )

            state.inferences += 1
            state.golden_predictions.append(golden_prediction)
            state.corrupted_predictions.append(corrupted_prediction)
            state.targets.append(
                {
                    "boxes": np.asarray(target["boxes"], dtype=np.float32),
                    "labels": np.asarray(target["labels"], dtype=np.int64),
                    "image_id": record.image_id,
                    "file_name": record.file_name,
                }
            )
            state.due_flags.append(bool(nan_detected or inf_detected))

            self._write_record("golden_json", record, golden_prediction, [], False, False, "golden")
            self._write_record(
                "corrupted_json", record, corrupted_prediction,
                ctx.applied, nan_detected, inf_detected, "corrupted",
            )
            if ctx.resil is not None:
                # Judge the hardened detector against its own fault-free run.
                resil_detection = ctx.resil[i]
                resil_prediction = resil_detection.as_dict()
                state.resil_golden_predictions.append(ctx.resil_golden[i].as_dict())
                state.resil_predictions.append(resil_prediction)
                self._write_record(
                    "resil_json", record, resil_prediction, ctx.applied,
                    resil_nan and resil_detection.has_nan(),
                    resil_inf and resil_detection.has_inf(), "resil",
                )

    def _write_record(
        self,
        tag: str,
        record: ImageRecord,
        prediction: dict,
        applied: list[dict],
        nan_detected: bool,
        inf_detected: bool,
        model_tag: str,
    ) -> None:
        stream = self._streams.get(tag)
        if stream is None:
            return
        stream.write(
            DetectionRecord(
                image_id=record.image_id,
                file_name=record.file_name,
                boxes=prediction["boxes"],
                scores=prediction["scores"],
                labels=prediction["labels"],
                fault_positions=applied,
                nan_detected=bool(nan_detected),
                inf_detected=bool(inf_detected),
                model_tag=model_tag,
            )
        )

    def end(self) -> None:
        _close_streams(self._streams)
        self._streams = {}

    @staticmethod
    def merge_states(states: list) -> DetectionState:
        merged = DetectionState()
        for state in states:
            merged.inferences += state.inferences
            merged.groups += state.groups
            merged.applied_faults += state.applied_faults
            merged.golden_predictions.extend(state.golden_predictions)
            merged.corrupted_predictions.extend(state.corrupted_predictions)
            merged.resil_golden_predictions.extend(state.resil_golden_predictions)
            merged.resil_predictions.extend(state.resil_predictions)
            merged.targets.extend(state.targets)
            merged.due_flags.extend(state.due_flags)
            merged.applied_log.extend(state.applied_log)
        return merged


# --------------------------------------------------------------------------- #
# the task-agnostic core
# --------------------------------------------------------------------------- #
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
            checkpointed prefix activations (bit-identical to a full faulty
            forward).  Disabled automatically for models whose forward does
            not linearise into a :class:`~repro.nn.forward_plan.ForwardPlan`.
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
        # Forward plans and recording arenas, lazily built per model object
        # (``None`` marks a model whose forward could not be linearised).
        self._plans: dict[int, ForwardPlan | None] = {}
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

    @staticmethod
    def _resumable_boundaries(plan: ForwardPlan, wrapper: ptfiwrap) -> frozenset[int]:
        """Boundaries a fault group of ``wrapper`` can resume at.

        A group resumes at the segment of its earliest faulted layer, so
        only segments holding an injectable layer are ever asked for — the
        only ones a cached golden pass needs to checkpoint.
        """
        segments = (plan.segment_for(layer.name) for layer in wrapper.fault_injection.layers)
        return frozenset(index for index in segments if index)

    @staticmethod
    def _faulted_span(
        golden_plan: ForwardPlan | None,
        faulty_plan: ForwardPlan | None,
        wrapper: ptfiwrap,
        group,
    ) -> tuple[int, int] | None:
        """Plan segments ``(first, last)`` that execute a faulted layer of the group.

        The faulty lane resumes at ``first`` and may rejoin the golden pass
        behind ``last``; ``None`` means a full forward.  The golden and the
        faulty model (a bit-identical clone for neuron campaigns) must
        segment identically, since the golden plan's checkpoints are fed
        into the faulty plan's suffix.  Both ends are taken over the
        *executed* segments of all of the group's faulted layers — layer
        indices follow registration order, which may differ from execution
        order, so mapping only ``first_faulted_layer`` could skip a patched
        layer that runs earlier in the chain, and rejoining before ``last``
        would skip a fault that has yet to fire.
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
        if min(first_segments) <= 0:
            return None
        return min(first_segments), max(last_segments)

    def _golden_pass(
        self,
        model: Module,
        plan: ForwardPlan | None,
        images: np.ndarray,
        batch: list[ImageRecord],
        cache_key: tuple,
        resume_at: int | None,
        with_monitor: bool,
        wrapper: ptfiwrap,
    ) -> tuple[GoldenCacheEntry, object]:
        """Run (or fetch) one lane's golden pass.

        ``wrapper`` is the lane's fault-injection wrapper: on a cache miss
        its injectable layers decide which boundaries are checkpointed.

        Returns ``(entry, boundary)``: the golden pass as a cache entry — the
        cached one, or without a cache a transient one that holds nothing
        but this step's boundary — and its checkpointed activation for
        ``resume_at`` (``None`` when not available).  ``entry.marks`` /
        ``entry.events`` carry the golden monitor state the faulty lane
        inherits for the segments it does not execute (``None`` without
        monitoring).
        """
        cache = self.golden_cache
        if cache is not None:
            entry = cache.get(cache_key, batch_shape=images.shape)
            if entry is not None:
                boundary = None
                if resume_at is not None:
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
            # need no prefix pass; the transient path records only this
            # step's boundary into the reusable arena.
            if cache is not None:
                wanted = self._resumable_boundaries(plan, wrapper)
                arena = None
            else:
                wanted = [resume_at] if resume_at is not None else []
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
        return entry, checkpoints.get(resume_at)

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
        and only up to the first cached boundary behind its last faulted one
        where the activation equals the golden pass's — the output is then
        ``entry.output`` itself.  (A transient entry holds no boundary behind
        the fault, so without a cache the pass always runs to the end.)
        """
        if span is None or boundary is None:
            return self.task.infer(group.model, images, batch), None, None
        resume_at, last_faulted = span
        raw = plan.resume(resume_at, boundary, golden=entry, after=last_faulted)
        if plan.rejoined_at is not None and self.golden_cache is not None:
            self.golden_cache.rejoins += 1
        return self.task.finish(raw), resume_at, plan.rejoined_at

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
        # suffix-only resume (prefix inheritance) or a cache recording.
        entry, boundary = self._golden_pass(
            self.model,
            golden_plan,
            images,
            batch,
            self._cache_lane_key("golden", self.model, cache_key),
            span[0] if span is not None else None,
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
                resil_span[0] if resil_span is not None else None,
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


# --------------------------------------------------------------------------- #
# sharded parallel execution
# --------------------------------------------------------------------------- #
@dataclass
class _ShardJob:
    """Self-contained, picklable description of one campaign shard."""

    index: int
    start: int
    stop: int
    model: Module
    resil_model: Module | None
    dataset: object
    task: CampaignTask
    scenario: ScenarioConfig
    error_model: ErrorModel | None
    input_shape: tuple[int, ...]
    dl_shuffle: bool
    fault_matrix: object
    shard_dir: str | None
    campaign_name: str
    prefix_reuse: bool = True
    cache_budget: int | None = None
    cache_spill_dir: str | None = None
    executor: str = "interpreter"


def _execute_shard(job: _ShardJob) -> tuple[int, object, dict[str, str]]:
    """Run one shard (in a worker process or in-process) and return its state."""
    # A fresh, unstarted task copy per attempt: an in-process retry must not
    # inherit the partial state a failed attempt accumulated into job.task.
    task = job.task.fresh()
    writer = (
        CampaignResultWriter(job.shard_dir, campaign_name=job.campaign_name)
        if job.shard_dir is not None
        else None
    )
    wrapper = ptfiwrap(
        job.model,
        scenario=job.scenario,
        input_shape=job.input_shape,
        fault_matrix=job.fault_matrix,
    )
    golden_cache = None
    if job.cache_budget is not None and (
        job.cache_spill_dir is not None or job.scenario.num_runs > 1
    ):
        # Without a spill directory the cache is private to this shard, and
        # a single-epoch shard visits every batch once: it could never hit.
        golden_cache = GoldenCache(job.cache_budget, spill_dir=job.cache_spill_dir)
    core = CampaignCore(
        job.model,
        job.dataset,
        task,
        scenario=job.scenario,
        writer=writer,
        error_model=job.error_model,
        input_shape=job.input_shape,
        dl_shuffle=job.dl_shuffle,
        resil_model=job.resil_model,
        wrapper=wrapper,
        prefix_reuse=job.prefix_reuse,
        golden_cache=golden_cache,
        executor=job.executor,
    )
    stream_paths = core.run(start=job.start, stop=job.stop)
    return job.index, task.state, stream_paths


class ShardedCampaignExecutor:
    """Partition a campaign into contiguous shards and run them in parallel.

    The campaign's global step sequence is split into ``num_shards``
    contiguous, balanced ranges.  Each shard re-derives its exact slice of
    the work deterministically — the seeded epoch permutations, the shared
    pre-generated fault matrix and the shard's fault-group range — runs it
    through its own :class:`CampaignCore`, and streams records into a
    per-shard directory (``<output>/shards/shard_XX``).  Afterwards the shard
    states are merged in shard order and the per-shard record files are
    concatenated byte-identically to a single-process run.

    Execution is fault tolerant: shards are dispatched through a
    :class:`~repro.alficore.resilience.ShardSupervisor`, so a worker that
    raises, hangs past the per-shard timeout or dies (e.g. is OOM-killed) is
    re-queued by its deterministic step range with capped exponential
    backoff until the retry budget of the :class:`ExecutionPolicy` is
    exhausted — at which point a structured
    :class:`~repro.alficore.resilience.ShardError` is raised.  When a writer
    is configured, each shard streams into a ``shard_XX.wip`` directory that
    is atomically renamed to ``shard_XX`` on completion, and a crash-safe
    run manifest (``<campaign>_manifest.json``) tracks completed shard
    ranges; ``policy.resume=True`` skips the recorded shards and merges
    byte-identically to an uninterrupted run.

    ``workers=1`` executes the shards sequentially in-process (no
    subprocesses, no pickling) with the same retry budget and
    ``ShardError`` semantics; ``workers>1`` uses supervised worker
    processes.

    Args:
        core: the configured campaign (model, dataset, task, scenario...).
        workers: number of worker processes (1 = in-process execution).
        num_shards: number of shards (defaults to ``workers``).
        policy: retry/timeout/backoff/resume configuration (defaults to
            :class:`~repro.alficore.resilience.ExecutionPolicy`).
    """

    SHARD_STATE_FILENAME = "shard_state.pkl"

    def __init__(
        self,
        core: CampaignCore,
        workers: int = 1,
        num_shards: int | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.core = core
        self.workers = int(workers)
        num_shards = self.workers if num_shards is None else int(num_shards)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = min(num_shards, core.total_steps)
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.policy.validate()
        #: per-shard failure history of the last run (index -> attempts)
        self.attempt_log: dict[int, list[dict]] = {}

    def shard_bounds(self) -> list[tuple[int, int]]:
        """Contiguous, balanced ``[start, stop)`` step ranges of the shards."""
        total = self.core.total_steps
        n = self.num_shards
        return [(i * total // n, (i + 1) * total // n) for i in range(n)]

    def run(self) -> tuple[object, dict[str, str]]:
        """Execute all shards and return ``(merged_state, merged_stream_paths)``.

        The merged state is also installed as ``core.task.state`` so callers
        can keep reading results from the task they configured.
        """
        core = self.core
        policy = self.policy
        if policy.resume and core.writer is None:
            raise ValueError(
                "resume=True requires a result writer: the run manifest and the "
                "per-shard record files live under the campaign output directory"
            )
        if self.num_shards <= 1 and not policy.resume:
            stream_paths = core.run()
            return core.task.state, stream_paths

        bounds = self.shard_bounds()
        manifest: RunManifest | None = None
        shards_root: Path | None = None
        scratch_dir: Path | None = None
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        if core.writer is not None:
            shards_root = core.writer.output_dir / "shards"
            manifest_path = (
                core.writer.output_dir / f"{core.writer.campaign_name}_manifest.json"
            )
            config = self._manifest_config(bounds)
            existing = RunManifest.load(manifest_path) if policy.resume else None
            if existing is not None:
                if not existing.matches(config):
                    raise ValueError(
                        f"cannot resume from {manifest_path}: it records a different "
                        "campaign configuration (model, scenario or shard geometry "
                        "changed); delete the manifest or re-run without resume"
                    )
                manifest = existing
                completed = self._load_completed(manifest, shards_root)
            else:
                manifest = RunManifest.fresh(manifest_path, config)
            self._clean_stale_wip(shards_root)
            scratch_dir = core.writer.output_dir / ".supervisor"

        cache = core.golden_cache
        cache_budget = cache.byte_budget if cache is not None else None
        cache_spill_dir = None
        if cache is not None:
            # Shards are separate processes: a shared spillover directory is
            # what lets them reuse each other's golden passes.
            if cache.spill_dir is not None:
                cache_spill_dir = str(cache.spill_dir)
            elif core.writer is not None:
                cache_spill_dir = str(core.writer.output_dir / "golden_cache")
        jobs = []
        for index, (start, stop) in enumerate(bounds):
            if index in completed:
                continue
            shard_dir = None
            if shards_root is not None:
                # Shards stream into a .wip directory that the finalizer
                # renames atomically on completion: a half-written shard is
                # never mistaken for a finished one.
                shard_dir = str(shards_root / f"shard_{index:02d}.wip")
            jobs.append(
                _ShardJob(
                    index=index,
                    start=start,
                    stop=stop,
                    model=core.model,
                    resil_model=core.resil_model,
                    dataset=core.dataset,
                    task=core.task.fresh(),
                    scenario=core.scenario,
                    error_model=core._error_model,
                    input_shape=core.input_shape,
                    dl_shuffle=core.dl_shuffle,
                    fault_matrix=core.wrapper.get_fault_matrix(),
                    shard_dir=shard_dir,
                    campaign_name=core.writer.campaign_name if core.writer is not None else "campaign",
                    prefix_reuse=core.prefix_reuse,
                    cache_budget=cache_budget,
                    cache_spill_dir=cache_spill_dir,
                    executor=core.executor,
                )
            )

        results: dict[int, tuple[int, object, dict[str, str]]] = dict(completed)
        if jobs:
            supervisor = ShardSupervisor(
                jobs,
                _execute_shard,
                workers=self.workers,
                policy=policy,
                scratch_dir=scratch_dir,
                prepare=self._prepare_attempt,
                finalize=self._make_finalizer(manifest, shards_root),
            )
            run_results = supervisor.run() if self.workers > 1 else supervisor.run_serial()
            self.attempt_log = supervisor.attempt_log
            for index, state, paths in run_results:
                results[index] = (index, state, paths)

        ordered = [results[index] for index in sorted(results)]
        merged_state = type(core.task).merge_states([state for _, state, _ in ordered])
        core.task.state = merged_state
        merged_paths: dict[str, str] = {}
        if core.writer is not None:
            merged_paths = self._merge_stream_files([paths for _, _, paths in ordered])
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
        return merged_state, merged_paths

    # ------------------------------------------------------------------ #
    # fault tolerance plumbing
    # ------------------------------------------------------------------ #
    def _manifest_config(self, bounds: list[tuple[int, int]]) -> dict:
        """Campaign configuration the manifest digest is derived from.

        Execution-policy knobs (retries, timeout, resume itself) are
        deliberately excluded: changing them between the interrupted run and
        the resume is legitimate and must not invalidate the manifest.
        """
        core = self.core
        return {
            "campaign_name": core.writer.campaign_name if core.writer is not None else "campaign",
            "task": type(core.task).__name__,
            "total_steps": core.total_steps,
            "num_shards": self.num_shards,
            "bounds": [[start, stop] for start, stop in bounds],
            "scenario": core.scenario.as_dict(),
        }

    @staticmethod
    def _prepare_attempt(job: _ShardJob, attempt: int) -> None:
        """Reset the shard's .wip directory before every (re-)attempt."""
        if job.shard_dir is None:
            return
        wip = Path(job.shard_dir)
        if wip.exists():
            shutil.rmtree(wip)
        wip.mkdir(parents=True, exist_ok=True)

    def _make_finalizer(self, manifest: RunManifest | None, shards_root: Path | None):
        """Parent-side success hook: commit the shard dir, update the manifest."""

        def finalize(
            job: _ShardJob, result: tuple[int, object, dict[str, str]]
        ) -> tuple[int, object, dict[str, str]]:
            index, state, stream_paths = result
            if job.shard_dir is None or shards_root is None:
                return result
            wip = Path(job.shard_dir)
            final = shards_root / f"shard_{index:02d}"
            files = {tag: Path(path).name for tag, path in stream_paths.items()}
            # The shard's merged-state payload travels with its record files
            # so a resumed run can rebuild the full result without re-running
            # the shard.
            atomic_write_pickle(
                wip / self.SHARD_STATE_FILENAME, {"state": state, "files": files}
            )
            if final.exists():
                shutil.rmtree(final)
            os.replace(wip, final)
            new_paths = {tag: str(final / name) for tag, name in files.items()}
            if manifest is not None:
                manifest.mark_completed(index, job.start, job.stop)
            return index, state, new_paths

        return finalize

    def _load_completed(
        self, manifest: RunManifest, shards_root: Path
    ) -> dict[int, tuple[int, object, dict[str, str]]]:
        """Rebuild results of manifest-recorded shards from their directories.

        A recorded shard whose directory or state pickle is missing or
        unreadable is demoted back to pending and simply re-run — resume
        never trusts bytes it cannot load.
        """
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        for index in manifest.completed_indices():
            final = shards_root / f"shard_{index:02d}"
            try:
                with open(final / self.SHARD_STATE_FILENAME, "rb") as handle:
                    payload = pickle.load(handle)
                state = payload["state"]
                files = dict(payload["files"])
            except Exception:
                manifest.mark_pending(index)
                continue
            paths = {tag: str(final / name) for tag, name in files.items()}
            completed[index] = (index, state, paths)
        return completed

    @staticmethod
    def _clean_stale_wip(shards_root: Path) -> None:
        """Remove .wip leftovers of attempts killed before completion."""
        if not shards_root.exists():
            return
        for leftover in shards_root.glob("shard_*.wip"):
            shutil.rmtree(leftover, ignore_errors=True)

    def _merge_stream_files(self, shard_paths: list[dict[str, str]]) -> dict[str, str]:
        """Concatenate the shards' record files into the campaign directory."""
        merged: dict[str, str] = {}
        tags: list[str] = []
        for paths in shard_paths:
            for tag in paths:
                if tag not in tags:
                    tags.append(tag)
        for tag in tags:
            parts = [Path(paths[tag]) for paths in shard_paths if tag in paths]
            out_path = self.core.writer.output_dir / parts[0].name
            if parts[0].suffix == ".csv":
                merge_csv_files(parts, out_path)
            else:
                merge_json_array_files(parts, out_path)
            merged[tag] = str(out_path)
        return merged


# --------------------------------------------------------------------------- #
# the streaming classification campaign runner (PR-1 interface)
# --------------------------------------------------------------------------- #
class CampaignRunner:
    """Run a classification fault-injection campaign without model clones.

    A thin facade over :class:`CampaignCore` + :class:`ClassificationTask`:
    golden and faulty inference run batch-wise in lock-step through the
    clone-free sessions, per-inference records are streamed (not buffered)
    and only aggregate KPIs are kept and returned as a
    :class:`CampaignSummary`.

    Args:
        model: the fault-free baseline classifier (restored bit-exactly after
            every weight fault group).
        dataset: map-style dataset yielding ``(image, label)``.
        scenario: campaign configuration.
        writer: optional :class:`CampaignResultWriter`; when given, the meta
            file, fault matrix, applied-fault log and per-inference golden /
            corrupted CSVs are written (records are streamed, not buffered).
        error_model: overrides the error model derived from the scenario.
        input_shape: per-sample input shape used for model profiling.
        custom_monitors: extra monitoring callbacks attached alongside the
            NaN/Inf monitor.
        dl_shuffle: shuffle the dataset between epochs (seeded).
        workers: worker processes for sharded execution (1 = serial).
        num_shards: campaign shards (defaults to ``workers``); the merged
            output of any shard count is bit-identical to a serial run.
        prefix_reuse: suffix-only faulty forwards from the first faulted
            layer (bit-identical to full forwards; on by default).
        golden_cache: optional epoch-invariant :class:`GoldenCache` shared
            by all epochs (and, via file spillover, all shards).
    """

    def __init__(
        self,
        model: Module,
        dataset,
        scenario: ScenarioConfig | None = None,
        writer: CampaignResultWriter | None = None,
        error_model: ErrorModel | None = None,
        input_shape: tuple[int, ...] = (3, 32, 32),
        custom_monitors: list[Callable] | None = None,
        dl_shuffle: bool = False,
        workers: int = 1,
        num_shards: int | None = None,
        prefix_reuse: bool = True,
        golden_cache: GoldenCache | None = None,
    ):
        warn_once("CampaignRunner", "run()")
        self.task = ClassificationTask()
        self.core = CampaignCore(
            model,
            dataset,
            self.task,
            scenario=scenario,
            writer=writer,
            error_model=error_model,
            input_shape=input_shape,
            custom_monitors=custom_monitors,
            dl_shuffle=dl_shuffle,
            prefix_reuse=prefix_reuse,
            golden_cache=golden_cache,
        )
        self.workers = workers
        self.num_shards = num_shards

    @property
    def model(self) -> Module:
        return self.core.model

    @property
    def dataset(self):
        return self.core.dataset

    @property
    def scenario(self) -> ScenarioConfig:
        return self.core.scenario

    @property
    def writer(self) -> CampaignResultWriter | None:
        return self.core.writer

    @property
    def wrapper(self) -> ptfiwrap:
        return self.core.wrapper

    def run(self) -> CampaignSummary:
        """Execute the campaign and return the aggregate KPIs.

        Delegates to the unified Experiment API entry point with the
        pre-built :class:`CampaignCore` as an artifact, so the streamed
        record files are byte-identical to a pure-spec run.
        """
        from repro.experiments.runner import Artifacts, facade_spec, run

        self.task.reset()
        # prefix_reuse/caching in the spec are informational here: the
        # pre-built core (passed as an artifact) already carries them.  The
        # kpi file is written by _summarize in the runner's own shape, so the
        # task plug-in's kpis write is turned off.
        spec = facade_spec(
            name=self.scenario.model_name,
            task="classification",
            scenario=self.scenario,
            workers=self.workers,
            num_shards=self.num_shards,
            prefix_reuse=self.core.prefix_reuse,
            task_options={"write_kpis": False},
        )
        result = run(spec, artifacts=Artifacts(core=self.core))
        return self._summarize(result.state, result.output_files)

    def _summarize(self, state: ClassificationState, stream_paths: dict[str, str]) -> CampaignSummary:
        n = state.inferences
        outcome_counts = {outcome.value: state.outcomes.get(outcome, 0) for outcome in FaultOutcome}
        output_files: dict[str, str] = {}
        writer = self.core.writer
        if writer is not None:
            # The Experiment-API write path persisted the meta yml and the
            # fault matrix (its kpis write is disabled via task_options); the
            # runner-shaped kpi summary is written below.
            output_files = dict(stream_paths)
        summary = CampaignSummary(
            model_name=self.scenario.model_name,
            num_inferences=n,
            num_fault_groups=state.groups,
            num_applied_faults=state.applied_faults,
            golden_top1_accuracy=state.golden_top1_hits / n if n else 0.0,
            golden_top5_accuracy=state.golden_top5_hits / n if n else 0.0,
            corrupted_top1_accuracy=state.corrupted_top1_hits / n if n else 0.0,
            masked_rate=state.outcomes.get(FaultOutcome.MASKED, 0) / n if n else 0.0,
            sde_rate=state.outcomes.get(FaultOutcome.SDE, 0) / n if n else 0.0,
            due_rate=state.outcomes.get(FaultOutcome.DUE, 0) / n if n else 0.0,
            outcome_counts=outcome_counts,
            output_files=output_files,
        )
        if writer is not None:
            summary.output_files["kpis"] = str(writer.write_kpi_summary(summary.as_dict()))
        return summary
