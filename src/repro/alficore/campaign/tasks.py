"""Campaign tasks: what one workload makes of the golden and faulty outputs.

:class:`CampaignTask` is the per-batch plug-in of
:class:`~repro.alficore.campaign.core.CampaignCore`; :class:`StepContext` is
what the core hands it for every lock-step golden/faulty step.
:class:`ClassificationTask` classifies each inference masked / SDE / DUE
against its golden top-1 and streams CSV rows; :class:`DetectionTask`
collects per-image predictions for IVMOD / mAP evaluation and streams
detection JSON records.  Both fold into a picklable aggregate ``state``
(:class:`ClassificationState`, :class:`DetectionState`) that shard workers
ship back to the parent process.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.alficore.monitoring import MonitorResult, _nan_inf, output_has_nan_or_inf
from repro.alficore.results import (
    CampaignResultWriter,
    DetectionRecord,
    classification_cells,
    fault_positions_cell,
)
from repro.data.wrapper import ImageRecord
from repro.eval.classification import top_k_predictions
from repro.eval.sdc import classify_classification_outcome
from repro.nn.module import Module


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
    # suffix-only forwards; a faulty pass from the input batch then reaches
    # ``infer`` with the planned pass in place of the model).  Override
    # with ``False`` when ``infer`` does anything beyond that contract.
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
        """Run one forward pass (identical for golden and faulty passes)."""
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
    # Buffers below are only filled with ``collect_outputs=True``.
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
            and the applied-fault log in ``state`` (the evaluated result's
            ``extras`` and the resil lane's KPIs need them; off, memory
            stays O(batch)).
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
