"""Frozen ``repro.eval.detection`` KPI bodies, generation 0 — test oracles only.

``coco_map``, ``ivmod_metric`` and their helpers as they stood while each
KPI matched every image on its own: ``coco_map`` re-collected every image's
detections once per class and threshold, ``ivmod_metric`` matched both lanes
of every image again.  The bodies are copied verbatim, with one change: the
IoU candidate ranking in ``match_detections`` uses ``kind="stable"``, so the
tie order does not depend on the CPU's sort kernel.
``tests/test_eval_detection.py`` asserts the production KPIs, which reduce
one set of per-image matches, return equal values on generated campaigns.

Production code must never import this module, and nothing here is to be
fixed or sped up: the value of the file is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.eval.detection import IvmodResult
from repro.models.detection.boxes import box_iou


def match_detections(
    pred_boxes: np.ndarray,
    pred_scores: np.ndarray,
    gt_boxes: np.ndarray,
    iou_threshold: float = 0.5,
) -> tuple[np.ndarray, int]:
    """Greedy matching of predictions to ground truth boxes (single class).

    Predictions are processed in order of decreasing score; each ground-truth
    box can be matched at most once.

    Returns:
        Tuple ``(tp_flags, num_gt)`` where ``tp_flags`` marks, per prediction
        (sorted by decreasing score), whether it is a true positive.
    """
    pred_boxes = np.asarray(pred_boxes, dtype=np.float32).reshape(-1, 4)
    pred_scores = np.asarray(pred_scores, dtype=np.float32).reshape(-1)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float32).reshape(-1, 4)
    order = np.argsort(-pred_scores, kind="stable")
    tp_flags = np.zeros(len(pred_boxes), dtype=bool)
    matched_gt: set[int] = set()
    if len(gt_boxes) and len(pred_boxes):
        ious = box_iou(pred_boxes, gt_boxes)
        for rank, pred_index in enumerate(order):
            candidates = np.argsort(-ious[pred_index], kind="stable")
            for gt_index in candidates:
                if ious[pred_index, gt_index] < iou_threshold:
                    break
                if int(gt_index) in matched_gt:
                    continue
                matched_gt.add(int(gt_index))
                tp_flags[rank] = True
                break
    return tp_flags, len(gt_boxes)


def average_precision(tp_flags: np.ndarray, num_gt: int) -> float:
    """Compute average precision from ordered true-positive flags.

    Uses the continuous (all-points) interpolation of the precision/recall
    curve, as in the CoCo evaluation.
    """
    tp_flags = np.asarray(tp_flags, dtype=bool).reshape(-1)
    if num_gt <= 0:
        return 0.0
    if len(tp_flags) == 0:
        return 0.0
    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / num_gt
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    # Make precision monotonically decreasing, then integrate over recall.
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    recall = np.concatenate([[0.0], recall])
    precision = np.concatenate([[precision[0] if len(precision) else 0.0], precision])
    return float(np.sum(np.diff(recall) * precision[1:]))


def _per_class_detections(predictions: list[dict], targets: list[dict], class_id: int):
    """Collect, per image, this class's predictions and ground truths."""
    rows = []
    for prediction, target in zip(predictions, targets):
        pred_boxes = np.asarray(prediction["boxes"], dtype=np.float32).reshape(-1, 4)
        pred_scores = np.asarray(prediction["scores"], dtype=np.float32).reshape(-1)
        pred_labels = np.asarray(prediction["labels"], dtype=np.int64).reshape(-1)
        gt_boxes = np.asarray(target["boxes"], dtype=np.float32).reshape(-1, 4)
        gt_labels = np.asarray(target["labels"], dtype=np.int64).reshape(-1)
        keep_pred = pred_labels == class_id
        keep_gt = gt_labels == class_id
        rows.append(
            (
                pred_boxes[keep_pred],
                pred_scores[keep_pred],
                gt_boxes[keep_gt],
            )
        )
    return rows


def coco_map(
    predictions: list[dict],
    targets: list[dict],
    num_classes: int,
    iou_thresholds: tuple[float, ...] = (0.5,),
) -> dict[str, float]:
    """Mean average precision / recall over classes and IoU thresholds.

    Args:
        predictions: per-image dicts with ``boxes`` (corner format), ``scores``
            and ``labels``.
        targets: per-image ground-truth dicts with ``boxes`` and ``labels``.
        num_classes: number of object classes.
        iou_thresholds: IoU thresholds to average over (CoCo uses 0.5..0.95).

    Returns:
        Dictionary with ``mAP``, ``AP50`` (if 0.5 is among the thresholds) and
        mean average recall ``AR``.
    """
    if len(predictions) != len(targets):
        raise ValueError(
            f"got {len(predictions)} prediction entries for {len(targets)} targets"
        )
    ap_per_threshold = []
    recall_per_threshold = []
    ap50 = None
    for threshold in iou_thresholds:
        per_class_ap = []
        per_class_recall = []
        for class_id in range(num_classes):
            rows = _per_class_detections(predictions, targets, class_id)
            all_scores = []
            all_tp = []
            total_gt = 0
            for pred_boxes, pred_scores, gt_boxes in rows:
                tp_flags, num_gt = match_detections(pred_boxes, pred_scores, gt_boxes, threshold)
                order = np.argsort(-pred_scores, kind="stable")
                all_scores.extend(pred_scores[order].tolist())
                all_tp.extend(tp_flags.tolist())
                total_gt += num_gt
            if total_gt == 0:
                continue
            if all_scores:
                merge_order = np.argsort(-np.asarray(all_scores), kind="stable")
                merged_tp = np.asarray(all_tp, dtype=bool)[merge_order]
            else:
                merged_tp = np.zeros((0,), dtype=bool)
            per_class_ap.append(average_precision(merged_tp, total_gt))
            per_class_recall.append(float(merged_tp.sum()) / total_gt if total_gt else 0.0)
        threshold_ap = float(np.mean(per_class_ap)) if per_class_ap else 0.0
        threshold_recall = float(np.mean(per_class_recall)) if per_class_recall else 0.0
        ap_per_threshold.append(threshold_ap)
        recall_per_threshold.append(threshold_recall)
        if abs(threshold - 0.5) < 1e-9:
            ap50 = threshold_ap
    result = {
        "mAP": float(np.mean(ap_per_threshold)) if ap_per_threshold else 0.0,
        "AR": float(np.mean(recall_per_threshold)) if recall_per_threshold else 0.0,
    }
    if ap50 is not None:
        result["AP50"] = ap50
    return result


def _image_detection_state(prediction: dict, target: dict, iou_threshold: float) -> tuple[int, int]:
    """Return ``(true_positives, false_positives)`` of one image's predictions."""
    pred_boxes = np.asarray(prediction["boxes"], dtype=np.float32).reshape(-1, 4)
    pred_scores = np.asarray(prediction["scores"], dtype=np.float32).reshape(-1)
    pred_labels = np.asarray(prediction["labels"], dtype=np.int64).reshape(-1)
    gt_boxes = np.asarray(target["boxes"], dtype=np.float32).reshape(-1, 4)
    gt_labels = np.asarray(target["labels"], dtype=np.int64).reshape(-1)
    true_positives = 0
    false_positives = 0
    for class_id in np.unique(np.concatenate([pred_labels, gt_labels])) if len(pred_labels) + len(gt_labels) else []:
        keep_pred = pred_labels == class_id
        keep_gt = gt_labels == class_id
        tp_flags, _ = match_detections(
            pred_boxes[keep_pred], pred_scores[keep_pred], gt_boxes[keep_gt], iou_threshold
        )
        true_positives += int(tp_flags.sum())
        false_positives += int((~tp_flags).sum())
    return true_positives, false_positives


def _prediction_has_nan_inf(prediction: dict) -> bool:
    boxes = np.asarray(prediction["boxes"], dtype=np.float64).reshape(-1)
    scores = np.asarray(prediction["scores"], dtype=np.float64).reshape(-1)
    values = np.concatenate([boxes, scores]) if boxes.size + scores.size else np.zeros(0)
    if values.size == 0:
        return False
    return not np.isfinite(values).all()


def ivmod_metric(
    golden_predictions: list[dict],
    corrupted_predictions: list[dict],
    targets: list[dict],
    iou_threshold: float = 0.5,
    due_flags: list[bool] | None = None,
) -> IvmodResult:
    """Image-wise vulnerability of object detection (IVMOD_SDE / IVMOD_DUE).

    An image counts towards IVMOD_SDE when the corrupted run loses true
    positives or gains false positives compared to the fault-free run of the
    same image (and no NaN/Inf was produced).  It counts towards IVMOD_DUE
    when the corrupted outputs contain NaN/Inf (or the corresponding monitor
    flagged the inference).

    Args:
        golden_predictions: fault-free per-image predictions.
        corrupted_predictions: fault-injected per-image predictions.
        targets: ground-truth annotations per image.
        iou_threshold: IoU used for TP/FP matching.
        due_flags: optional external NaN/Inf flags (from the monitors).
    """
    if not (len(golden_predictions) == len(corrupted_predictions) == len(targets)):
        raise ValueError("golden, corrupted and target lists must have equal length")
    total = len(targets)
    corrupted_images = 0
    due_images = 0
    fp_added_images = 0
    tp_lost_images = 0
    for index, (golden, corrupted, target) in enumerate(
        zip(golden_predictions, corrupted_predictions, targets)
    ):
        externally_flagged = bool(due_flags[index]) if due_flags is not None else False
        if externally_flagged or _prediction_has_nan_inf(corrupted):
            due_images += 1
            continue
        golden_tp, golden_fp = _image_detection_state(golden, target, iou_threshold)
        corrupted_tp, corrupted_fp = _image_detection_state(corrupted, target, iou_threshold)
        lost_tp = corrupted_tp < golden_tp
        added_fp = corrupted_fp > golden_fp
        if lost_tp:
            tp_lost_images += 1
        if added_fp:
            fp_added_images += 1
        if lost_tp or added_fp:
            corrupted_images += 1
    return IvmodResult(
        sde_rate=corrupted_images / total if total else 0.0,
        due_rate=due_images / total if total else 0.0,
        corrupted_images=corrupted_images,
        due_images=due_images,
        total_images=total,
        fp_added_images=fp_added_images,
        tp_lost_images=tp_lost_images,
    )
