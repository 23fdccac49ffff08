"""Anchor-grid generation for single-stage detectors."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def generate_anchor_grid(
    feature_size: tuple[int, int],
    image_size: tuple[int, int],
    anchor_sizes: tuple[float, ...] = (16.0, 32.0),
    aspect_ratios: tuple[float, ...] = (1.0,),
) -> np.ndarray:
    """Generate anchor boxes centred on every cell of a feature map.

    Args:
        feature_size: ``(fh, fw)`` spatial size of the feature map.
        image_size: ``(height, width)`` of the input image in pixels.
        anchor_sizes: square-root areas of the anchors, in pixels.
        aspect_ratios: width/height ratios applied to every anchor size.

    Returns:
        Corner-format anchors of shape ``(fh * fw * A, 4)`` where
        ``A = len(anchor_sizes) * len(aspect_ratios)``; anchor ordering is
        row-major over cells, then sizes, then ratios.  The grid depends on
        nothing but the arguments, so it is built once per argument tuple
        and shared: the returned array is read-only.
    """
    return _anchor_grid(
        tuple(feature_size), tuple(image_size), tuple(anchor_sizes), tuple(aspect_ratios)
    )


@lru_cache(maxsize=64)
def _anchor_grid(
    feature_size: tuple[int, int],
    image_size: tuple[int, int],
    anchor_sizes: tuple[float, ...],
    aspect_ratios: tuple[float, ...],
) -> np.ndarray:
    fh, fw = feature_size
    height, width = image_size
    if fh <= 0 or fw <= 0:
        raise ValueError(f"feature size must be positive, got {feature_size}")

    stride_y = height / fh
    stride_x = width / fw

    centers_y = (np.arange(fh, dtype=np.float32) + 0.5) * stride_y
    centers_x = (np.arange(fw, dtype=np.float32) + 0.5) * stride_x

    shapes = []
    for size in anchor_sizes:
        for ratio in aspect_ratios:
            anchor_w = size * np.sqrt(ratio)
            anchor_h = size / np.sqrt(ratio)
            shapes.append((anchor_w, anchor_h))

    anchors = np.zeros((fh, fw, len(shapes), 4), dtype=np.float32)
    for idx, (anchor_w, anchor_h) in enumerate(shapes):
        cy, cx = np.meshgrid(centers_y, centers_x, indexing="ij")
        anchors[:, :, idx, 0] = cx - anchor_w / 2
        anchors[:, :, idx, 1] = cy - anchor_h / 2
        anchors[:, :, idx, 2] = cx + anchor_w / 2
        anchors[:, :, idx, 3] = cy + anchor_h / 2
    anchors = anchors.reshape(-1, 4)
    anchors.setflags(write=False)
    return anchors


def decode_offsets(anchors: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Apply predicted ``(dx, dy, dw, dh)`` offsets to anchors.

    The encoding follows the standard R-CNN box regression parameterisation:
    centre shifts are relative to the anchor size and width/height are scaled
    exponentially.  ``dw``/``dh`` are clamped so that corrupted activations
    cannot overflow to infinite box sizes before the NaN/Inf monitor sees the
    raw tensors.

    ``offsets`` of shape ``(batch, A, 4)`` decode ``batch`` images against
    the same ``(A, 4)`` anchors at once; every element is computed as a
    lone image's would be.  Any other shape is read as ``(-1, 4)``.
    """
    anchors = np.asarray(anchors, dtype=np.float32).reshape(-1, 4)
    offsets = np.asarray(offsets, dtype=np.float32)
    if offsets.ndim != 3:
        offsets = offsets.reshape(-1, 4)
    if anchors.shape != offsets.shape[-2:]:
        raise ValueError(f"anchors {anchors.shape} and offsets {offsets.shape} mismatch")

    anchor_w = anchors[:, 2] - anchors[:, 0]
    anchor_h = anchors[:, 3] - anchors[:, 1]
    anchor_cx = anchors[:, 0] + anchor_w / 2
    anchor_cy = anchors[:, 1] + anchor_h / 2

    dx, dy, dw, dh = offsets[..., 0], offsets[..., 1], offsets[..., 2], offsets[..., 3]
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
        axis=-1,
    )
    return boxes.astype(np.float32)
