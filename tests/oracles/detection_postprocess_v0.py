"""Frozen detector post-processing, generation 0 — test oracles only.

``YoloDecode.forward``, ``RetinaNetTail.forward`` and ``_select`` as they
stood while every image of a batch was decoded on its own, ``nms`` as the
greedy while loop that computed one row of IoUs per kept box, and the
two-dimensional ``decode_offsets`` they called.  The bodies are copied
verbatim; the methods became functions of the detector, and the tail's
decoding half is a function of its own, so raw head grids can be fed to it.
``tests/test_models_detection_postprocess.py`` asserts the production
decoders, which decode a whole stack at once, and the production ``nms``,
which suppresses from one IoU matrix, return the same bytes.

Production code must never import this module, and nothing here is to be
fixed or sped up: the value of the file is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.models.detection.anchors import generate_anchor_grid
from repro.models.detection.boxes import box_iou, clip_boxes
from repro.models.detection.detectors import Detection
from repro.nn import functional as F


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy non-maximum suppression.

    Args:
        boxes: corner-format boxes of shape ``(N, 4)``.
        scores: confidence scores of shape ``(N,)``.
        iou_threshold: boxes overlapping a kept box above this IoU are dropped.

    Returns:
        Indices of kept boxes, sorted by decreasing score.
    """
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float32).reshape(-1)
    if len(boxes) != len(scores):
        raise ValueError(f"boxes ({len(boxes)}) and scores ({len(scores)}) length mismatch")
    if len(boxes) == 0:
        return np.zeros((0,), dtype=np.int64)

    order = np.argsort(-scores, kind="stable")
    keep: list[int] = []
    while len(order) > 0:
        current = int(order[0])
        keep.append(current)
        if len(order) == 1:
            break
        remaining = order[1:]
        ious = box_iou(boxes[current : current + 1], boxes[remaining]).reshape(-1)
        order = remaining[ious <= iou_threshold]
    return np.asarray(keep, dtype=np.int64)


def decode_offsets(anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Apply predicted ``(dx, dy, dw, dh)`` offsets to anchors."""
    anchors = np.asarray(anchors, dtype=np.float32).reshape(-1, 4)
    offsets = np.asarray(offsets, dtype=np.float32).reshape(-1, 4)
    if anchors.shape != offsets.shape:
        raise ValueError(f"anchors {anchors.shape} and offsets {offsets.shape} mismatch")

    anchor_w = anchors[:, 2] - anchors[:, 0]
    anchor_h = anchors[:, 3] - anchors[:, 1]
    anchor_cx = anchors[:, 0] + anchor_w / 2
    anchor_cy = anchors[:, 1] + anchor_h / 2

    dx, dy, dw, dh = offsets[:, 0], offsets[:, 1], offsets[:, 2], offsets[:, 3]
    dw = np.clip(dw, -4.0, 4.0)
    dh = np.clip(dh, -4.0, 4.0)

    pred_cx = anchor_cx + dx * anchor_w
    pred_cy = anchor_cy + dy * anchor_h
    pred_w = anchor_w * np.exp(dw)
    pred_h = anchor_h * np.exp(dh)

    boxes = np.stack(
        [
            pred_cx - pred_w / 2,
            pred_cy - pred_h / 2,
            pred_cx + pred_w / 2,
            pred_cy + pred_h / 2,
        ],
        axis=1,
    )
    return boxes.astype(np.float32)


def select(
    detector, boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray, clip: bool = True
) -> Detection:
    """Threshold, clip to the image (unless already clipped) and NMS one image's candidates."""
    # NaN scores must survive selection so the DUE monitor can see them.
    keep_mask = (scores >= detector.score_threshold) | ~np.isfinite(scores)
    boxes, scores, labels = boxes[keep_mask], scores[keep_mask], labels[keep_mask]
    if len(scores) == 0:
        return Detection()
    if clip:
        boxes = clip_boxes(boxes, detector.image_size)
    finite = np.isfinite(scores) & np.isfinite(boxes).all(axis=1)
    parts = []
    if finite.any():
        keep = nms(boxes[finite], scores[finite], detector.nms_threshold)
        parts.append((boxes[finite][keep], scores[finite][keep], labels[finite][keep]))
    if (~finite).any():
        parts.append((boxes[~finite], scores[~finite], labels[~finite]))
    return Detection(
        boxes=np.concatenate([p[0] for p in parts], axis=0),
        scores=np.concatenate([p[1] for p in parts], axis=0),
        labels=np.concatenate([p[2] for p in parts], axis=0).astype(np.int64),
    )


def yolo_decode(detector, raw: np.ndarray) -> list[Detection]:
    """Decode the raw YOLO head grid into per-image detections."""
    batch, _, fh, fw = raw.shape
    outputs_per_anchor = 5 + detector.num_classes
    raw = raw.reshape(batch, detector.num_anchors, outputs_per_anchor, fh, fw)
    anchors = generate_anchor_grid((fh, fw), detector.image_size, detector.anchor_sizes)
    detections: list[Detection] = []
    for index in range(batch):
        # (anchors, outputs, fh, fw) -> (fh*fw*anchors, outputs), cell-major
        per_image = raw[index].transpose(2, 3, 0, 1).reshape(-1, outputs_per_anchor)
        offsets = per_image[:, 0:4] * 0.1
        objectness = F.sigmoid(per_image[:, 4])
        class_probs = F.softmax(per_image[:, 5:], axis=1)
        labels = np.argmax(class_probs, axis=1)
        scores = objectness * class_probs[np.arange(len(labels)), labels]
        boxes = decode_offsets(anchors, offsets)
        detections.append(select(detector, boxes, scores, labels))
    return detections


def retinanet_tail(detector, features: np.ndarray) -> list[Detection]:
    """Run both RetinaNet heads on the backbone features and decode them."""
    cls_raw = detector.cls_head(features)
    box_raw = detector.box_head(features)
    return retinanet_decode(detector, cls_raw, box_raw)


def retinanet_decode(detector, cls_raw: np.ndarray, box_raw: np.ndarray) -> list[Detection]:
    """The decoding half of :func:`retinanet_tail`, from the two heads' raw grids."""
    batch, _, fh, fw = cls_raw.shape
    anchors = generate_anchor_grid(
        (fh, fw), detector.image_size, detector.anchor_sizes, detector.aspect_ratios
    )
    cls_raw = cls_raw.reshape(batch, detector.num_anchors, detector.num_classes, fh, fw)
    box_raw = box_raw.reshape(batch, detector.num_anchors, 4, fh, fw)
    detections: list[Detection] = []
    for index in range(batch):
        cls_scores = cls_raw[index].transpose(2, 3, 0, 1).reshape(-1, detector.num_classes)
        offsets = box_raw[index].transpose(2, 3, 0, 1).reshape(-1, 4) * 0.1
        probs = F.sigmoid(cls_scores)
        labels = np.argmax(probs, axis=1)
        scores = probs[np.arange(len(labels)), labels]
        boxes = decode_offsets(anchors, offsets)
        detections.append(select(detector, boxes, scores, labels))
    return detections
