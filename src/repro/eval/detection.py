"""Object-detection KPIs: CoCo-style AP/AR and the IVMOD metric.

The detection pipeline produces per-image predictions (boxes, scores,
labels).  Two complementary KPI families are computed:

* **CoCo-style average precision / recall** (:func:`coco_map`): detections
  are matched to ground-truth boxes per class at an IoU threshold (or a
  range of thresholds), precision/recall curves are integrated into AP and
  averaged into mAP.
* **IVMOD** (image-wise vulnerability of object detection, reference [5] of
  the paper): an *image* counts as corrupted if the fault changes its
  detection result relative to the fault-free run — additional false
  positives, lost true positives, or NaN/Inf outputs.  ``IVMOD_SDE`` is the
  fraction of images with such silent corruptions, ``IVMOD_DUE`` the fraction
  with NaN/Inf outputs.

Both are reductions over one match per image: ``_image_rows`` converts a
prediction/target pair once and keeps, per class label present in either,
the scores sorted stably by decreasing value, their TP flags at each IoU
threshold (one IoU matrix per image and class) and the ground-truth count.
mAP concatenates a class's rows in dataset order and re-sorts them stably by
score; IVMOD sums each image's TP/FP flags.  :func:`evaluate_detection_campaign`
builds each lane's rows once, so the golden rows serve golden mAP and IVMOD.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.detection.boxes import box_iou

#: One image's matches: label -> (scores by decreasing value, TP flags of
#: shape ``(thresholds, predictions)``, ground-truth count).
ImageRows = dict[int, tuple[np.ndarray, np.ndarray, int]]
_NO_SCORES = np.zeros(0, dtype=np.float32)


# --------------------------------------------------------------------------- #
# matching and AP
# --------------------------------------------------------------------------- #
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
    return _match(pred_boxes, order, gt_boxes, (iou_threshold,))[0], len(gt_boxes)


def _match(
    pred_boxes: np.ndarray, order: np.ndarray, gt_boxes: np.ndarray, thresholds: tuple
) -> np.ndarray:
    """TP flags of shape ``(thresholds, predictions)``, predictions in ``order``.

    Each prediction tries its ground-truth candidates by decreasing IoU, ties
    in index order on every CPU, until one is below the threshold.
    """
    tp_flags = np.zeros((len(thresholds), len(order)), dtype=bool)
    if not (len(order) and len(gt_boxes)):
        return tp_flags
    ious = box_iou(pred_boxes, gt_boxes)
    candidates = np.argsort(-ious, axis=1, kind="stable").tolist()
    rows = ious.tolist()
    for flags, threshold in zip(tp_flags, thresholds):
        # The float32 IoUs meet a Python float threshold in float32.
        limit = float(np.float32(threshold))
        matched: set[int] = set()
        for rank, pred_index in enumerate(order.tolist()):
            row = rows[pred_index]
            for gt_index in candidates[pred_index]:
                if row[gt_index] < limit:
                    break
                if gt_index in matched:
                    continue
                matched.add(gt_index)
                flags[rank] = True
                break
    return tp_flags


def _image_rows(prediction: dict, target: dict, thresholds: tuple) -> ImageRows:
    """Match one image once: its rows for every label in the prediction or target."""
    pred_labels = np.asarray(prediction["labels"], dtype=np.int64).reshape(-1)
    gt_labels = np.asarray(target["labels"], dtype=np.int64).reshape(-1)
    present, gt_list = pred_labels.tolist(), gt_labels.tolist()
    if present:
        pred_boxes = np.asarray(prediction["boxes"], dtype=np.float32).reshape(-1, 4)
        pred_scores = np.asarray(prediction["scores"], dtype=np.float32).reshape(-1)
        gt_boxes = np.asarray(target["boxes"], dtype=np.float32).reshape(-1, 4)
    rows: ImageRows = {}
    for label in sorted({*present, *gt_list}):
        if label not in present:  # nothing to match: the GT count alone
            rows[label] = (_NO_SCORES, np.zeros((len(thresholds), 0), bool), gt_list.count(label))
            continue
        keep = pred_labels == label
        scores = pred_scores[keep]
        order = np.argsort(-scores, kind="stable")
        gt = gt_boxes[gt_labels == label]
        rows[label] = (scores[order], _match(pred_boxes[keep], order, gt, thresholds), len(gt))
    return rows


def _dataset_rows(predictions: list[dict], targets: list[dict], thresholds: tuple) -> list:
    if len(predictions) != len(targets):
        raise ValueError(f"got {len(predictions)} prediction entries for {len(targets)} targets")
    return [_image_rows(p, t, thresholds) for p, t in zip(predictions, targets)]


def _tp_fp(rows: ImageRows) -> tuple[int, int]:
    """``(true_positives, false_positives)`` of one image at its first threshold."""
    hits = sum(int(np.count_nonzero(tp_flags[0])) for _, tp_flags, _ in rows.values())
    return hits, sum(tp_flags.shape[1] for _, tp_flags, _ in rows.values()) - hits


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
    rows = _dataset_rows(predictions, targets, iou_thresholds)
    return _map_from_rows(rows, num_classes, iou_thresholds)


def _map_from_rows(image_rows: list, num_classes: int, thresholds: tuple) -> dict[str, float]:
    per_class_ap: list[list[float]] = [[] for _ in thresholds]
    per_class_recall: list[list[float]] = [[] for _ in thresholds]
    for class_id in range(num_classes):
        rows = [image[class_id] for image in image_rows if class_id in image]
        total_gt = sum(num_gt for _, _, num_gt in rows)
        if total_gt == 0:
            continue
        merge_order = np.argsort(-np.concatenate([scores for scores, _, _ in rows]), kind="stable")
        merged = np.concatenate([tp_flags for _, tp_flags, _ in rows], axis=1)[:, merge_order]
        for index, merged_tp in enumerate(merged):
            per_class_ap[index].append(average_precision(merged_tp, total_gt))
            per_class_recall[index].append(float(merged_tp.sum()) / total_gt)
    ap_per_threshold = [float(np.mean(ap)) if ap else 0.0 for ap in per_class_ap]
    recall_per_threshold = [float(np.mean(rec)) if rec else 0.0 for rec in per_class_recall]
    result = {
        "mAP": float(np.mean(ap_per_threshold)) if ap_per_threshold else 0.0,
        "AR": float(np.mean(recall_per_threshold)) if recall_per_threshold else 0.0,
    }
    for threshold, threshold_ap in zip(thresholds, ap_per_threshold):
        if abs(threshold - 0.5) < 1e-9:
            result["AP50"] = threshold_ap
    return result


# --------------------------------------------------------------------------- #
# IVMOD
# --------------------------------------------------------------------------- #
@dataclass
class IvmodResult:
    """Per-campaign IVMOD metric values."""

    sde_rate: float
    due_rate: float
    corrupted_images: int
    due_images: int
    total_images: int
    fp_added_images: int
    tp_lost_images: int

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "ivmod_sde": self.sde_rate,
            "ivmod_due": self.due_rate,
            "corrupted_images": self.corrupted_images,
            "due_images": self.due_images,
            "total_images": self.total_images,
            "fp_added_images": self.fp_added_images,
            "tp_lost_images": self.tp_lost_images,
        }


def _prediction_has_nan_inf(prediction: dict) -> bool:
    boxes = np.asarray(prediction["boxes"], dtype=np.float64)
    scores = np.asarray(prediction["scores"], dtype=np.float64)
    return not (np.isfinite(boxes).all() and np.isfinite(scores).all())


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
    thresholds = (iou_threshold,)
    golden_rows = _dataset_rows(golden_predictions, targets, thresholds)
    corrupted_rows = _dataset_rows(corrupted_predictions, targets, thresholds)
    return _ivmod_from_rows(golden_rows, corrupted_rows, corrupted_predictions, due_flags)


def _ivmod_from_rows(golden_rows, corrupted_rows, corrupted_predictions, due_flags) -> IvmodResult:
    total = len(corrupted_rows)
    corrupted_images = due_images = fp_added_images = tp_lost_images = 0
    for index, (golden, corrupted) in enumerate(zip(golden_rows, corrupted_rows)):
        flagged = due_flags is not None and bool(due_flags[index])
        if flagged or _prediction_has_nan_inf(corrupted_predictions[index]):
            due_images += 1
            continue
        (golden_tp, golden_fp), (corrupted_tp, corrupted_fp) = _tp_fp(golden), _tp_fp(corrupted)
        lost_tp, added_fp = corrupted_tp < golden_tp, corrupted_fp > golden_fp
        tp_lost_images += lost_tp
        fp_added_images += added_fp
        corrupted_images += lost_tp or added_fp
    return IvmodResult(
        sde_rate=corrupted_images / total if total else 0.0,
        due_rate=due_images / total if total else 0.0,
        corrupted_images=corrupted_images,
        due_images=due_images,
        total_images=total,
        fp_added_images=fp_added_images,
        tp_lost_images=tp_lost_images,
    )


@dataclass
class DetectionCampaignResult:
    """Aggregated KPIs of a detection fault injection campaign."""

    model_name: str
    num_images: int
    golden_map: dict[str, float]
    corrupted_map: dict[str, float]
    ivmod: IvmodResult
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "model_name": self.model_name,
            "num_images": self.num_images,
            "golden_map": dict(self.golden_map),
            "corrupted_map": dict(self.corrupted_map),
            "ivmod": self.ivmod.as_dict(),
            "extra": dict(self.extra),
        }


def evaluate_detection_campaign(
    golden_predictions: list[dict],
    corrupted_predictions: list[dict],
    targets: list[dict],
    num_classes: int,
    model_name: str = "detector",
    iou_threshold: float = 0.5,
    due_flags: list[bool] | None = None,
) -> DetectionCampaignResult:
    """Compute mAP (golden and corrupted) plus IVMOD for a detection campaign."""
    thresholds = (iou_threshold,)
    golden_rows = _dataset_rows(golden_predictions, targets, thresholds)
    corrupted_rows = _dataset_rows(corrupted_predictions, targets, thresholds)
    return DetectionCampaignResult(
        model_name=model_name,
        num_images=len(targets),
        golden_map=_map_from_rows(golden_rows, num_classes, thresholds),
        corrupted_map=_map_from_rows(corrupted_rows, num_classes, thresholds),
        ivmod=_ivmod_from_rows(golden_rows, corrupted_rows, corrupted_predictions, due_flags),
    )
