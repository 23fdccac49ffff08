"""Bounding-box utilities: format conversion, IoU and non-maximum suppression.

Boxes are stored as ``(x1, y1, x2, y2)`` in absolute pixel coordinates unless
noted otherwise, matching the CoCo evaluation convention used by the result
pipeline.
"""

from __future__ import annotations

import numpy as np


def xywh_to_xyxy(boxes: np.ndarray) -> np.ndarray:
    """Convert ``(x, y, w, h)`` boxes (CoCo annotation format) to corners."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    converted = boxes.copy()
    converted[:, 2] = boxes[:, 0] + boxes[:, 2]
    converted[:, 3] = boxes[:, 1] + boxes[:, 3]
    return converted


def xyxy_to_xywh(boxes: np.ndarray) -> np.ndarray:
    """Convert corner boxes to the ``(x, y, w, h)`` CoCo annotation format."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    converted = boxes.copy()
    converted[:, 2] = boxes[:, 2] - boxes[:, 0]
    converted[:, 3] = boxes[:, 3] - boxes[:, 1]
    return converted


def clip_boxes(boxes: np.ndarray, image_size: tuple[int, int]) -> np.ndarray:
    """Clip corner boxes to the image extent ``(height, width)``."""
    height, width = image_size
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4).copy()
    boxes[:, 0] = np.clip(boxes[:, 0], 0, width)
    boxes[:, 1] = np.clip(boxes[:, 1], 0, height)
    boxes[:, 2] = np.clip(boxes[:, 2], 0, width)
    boxes[:, 3] = np.clip(boxes[:, 3], 0, height)
    return boxes


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Area of corner-format boxes (clamped at zero)."""
    boxes = np.asarray(boxes, dtype=np.float32).reshape(-1, 4)
    widths = np.maximum(boxes[:, 2] - boxes[:, 0], 0.0)
    heights = np.maximum(boxes[:, 3] - boxes[:, 1], 0.0)
    return widths * heights


def box_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union between two corner-format box sets.

    Args:
        boxes_a: array of shape ``(A, 4)``.
        boxes_b: array of shape ``(B, 4)``.

    Returns:
        IoU matrix of shape ``(A, B)`` with values in ``[0, 1]``.
    """
    boxes_a = np.asarray(boxes_a, dtype=np.float32).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float32).reshape(-1, 4)
    if len(boxes_a) == 0 or len(boxes_b) == 0:
        return np.zeros((len(boxes_a), len(boxes_b)), dtype=np.float32)

    left = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    top = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    right = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    bottom = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])

    intersection = np.maximum(right - left, 0.0) * np.maximum(bottom - top, 0.0)
    union = box_area(boxes_a)[:, None] + box_area(boxes_b)[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, intersection / union, 0.0)
    return iou.astype(np.float32)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy non-maximum suppression.

    Boxes are visited by decreasing score (ties in index order); a visited
    box that no kept box overlaps above ``iou_threshold`` is kept.  The
    overlaps are one :func:`box_iou` matrix of the ranked boxes against
    themselves: each element has the bits a one-row call for that pair
    computes, so the kept boxes are those of the loop that computes a row
    per kept box.

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
    # By rank: overlapped[i, j] is whether the i-th box by score suppresses the j-th.
    ranked = boxes[order]
    overlapped = box_iou(ranked, ranked) > iou_threshold
    suppressed = np.zeros(len(order), dtype=bool)
    keep: list[int] = []
    for rank in range(len(order)):
        if suppressed[rank]:
            continue
        keep.append(rank)
        suppressed[rank + 1 :] |= overlapped[rank, rank + 1 :]
    return order[keep].astype(np.int64, copy=False)
