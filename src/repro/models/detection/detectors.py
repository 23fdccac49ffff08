"""Object detectors built on the :mod:`repro.nn` substrate.

Three detector families mirror the models evaluated in the paper:

* :class:`YoloV3Tiny` -- a single-scale grid detector with a Darknet-style
  backbone (conv + leaky ReLU stacks) and a YOLO head that predicts
  objectness, class scores and box offsets per grid cell.
* :class:`RetinaNetLite` -- an anchor-based one-stage detector with separate
  classification and box-regression conv head over a small feature pyramid.
* :class:`FasterRCNNLite` -- a simplified two-stage detector: a proposal head
  scores anchors, the top proposals are classified and refined by a second
  head on pooled features.

All three consume ``(N, 3, H, W)`` images (64x64 by default) and return a
list of :class:`Detection` objects, one per image, holding corner-format
boxes, scores and integer class labels.  Because every stage is an ordinary
conv/linear layer of the substrate, PyTorchALFI can inject neuron or weight
faults into any of them.

**Post-processing is a module.**  Each detector's forward ends in a call to
a parameter-free :class:`Module` (:class:`YoloDecode`, :class:`RetinaNetTail`,
:class:`FasterRCNNTail`) rather than a plain method, so a traced
:class:`~repro.nn.forward_plan.ForwardPlan` sees a chain -- ``backbone... ->
head -> decode`` for YOLO, the backbone leaves plus one atomic tail for the
two others -- and detection campaigns get suffix-only faulty passes.  The
tails call the heads where they are registered, on the detector root, so
the names and order of the injectable layers are those of the plain-method
version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from repro import nn
from repro.models.detection.anchors import decode_offsets, generate_anchor_grid
from repro.models.detection.boxes import clip_boxes, nms
from repro.nn import functional as F, init
from repro.nn.module import Module


@dataclass
class Detection:
    """Per-image detection result.

    Attributes:
        boxes: corner-format boxes, shape ``(K, 4)``.
        scores: confidence scores, shape ``(K,)``.
        labels: integer class ids, shape ``(K,)``.
    """

    boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.float32))
    scores: np.ndarray = field(default_factory=lambda: np.zeros((0,), dtype=np.float32))
    labels: np.ndarray = field(default_factory=lambda: np.zeros((0,), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.scores)

    def as_dict(self) -> dict:
        """Return a JSON-friendly representation of the detections."""
        return {
            "boxes": np.asarray(self.boxes, dtype=float).reshape(-1, 4).tolist(),
            "scores": np.asarray(self.scores, dtype=float).reshape(-1).tolist(),
            "labels": np.asarray(self.labels, dtype=int).reshape(-1).tolist(),
        }

    def _value_arrays(self) -> list[np.ndarray]:
        return [np.asarray(self.boxes, dtype=np.float64), np.asarray(self.scores, dtype=np.float64)]

    def has_nan(self) -> bool:
        """True if any box coordinate or score is NaN."""
        return any(bool(np.isnan(v).any()) for v in self._value_arrays() if v.size)

    def has_inf(self) -> bool:
        """True if any box coordinate or score is infinite."""
        return any(bool(np.isinf(v).any()) for v in self._value_arrays() if v.size)

    def has_nan_or_inf(self) -> bool:
        """True if any box coordinate or score is NaN or infinite."""
        return self.has_nan() or self.has_inf()


class _PostProcessing(Module):
    """Base of the parameter-free modules that end a detector's forward.

    Holds its detector as a plain attribute, outside ``_modules``: the heads
    a tail calls stay registered on the detector root under the names fault
    files refer to, and are looked up there at call time (a hardened copy
    swaps protected layers into the root's ``_modules``).
    """

    def __init__(self, detector: Module):
        super().__init__()
        object.__setattr__(self, "detector", detector)

    def _detections(
        self, boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray
    ) -> list[Detection]:
        """One :meth:`_select` per image of a stack's ``(batch, A, ·)`` candidates."""
        return [self._select(*candidates) for candidates in zip(boxes, scores, labels)]

    def _select(
        self, boxes: np.ndarray, scores: np.ndarray, labels: np.ndarray, clip: bool = True
    ) -> Detection:
        """Threshold, clip to the image (unless already clipped) and NMS one image's candidates."""
        detector = self.detector
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


def _conv_block(in_channels: int, out_channels: int, rng: np.random.Generator, stride: int = 1) -> nn.Sequential:
    """Conv + BatchNorm + LeakyReLU block used by the Darknet-style backbone."""
    return nn.Sequential(
        nn.Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng),
        nn.BatchNorm2d(out_channels),
        nn.LeakyReLU(0.1),
    )


class YoloV3Tiny(Module):
    """Single-scale YOLO-style detector.

    The backbone downsamples the input by 8x; the head predicts, per grid
    cell and anchor, ``(tx, ty, tw, th, objectness, class scores...)``.
    """

    def __init__(
        self,
        num_classes: int = 5,
        image_size: tuple[int, int] = (64, 64),
        width: float = 0.5,
        seed: int = 0,
        score_threshold: float = 0.3,
        nms_threshold: float = 0.45,
    ):
        super().__init__()
        rng = init.make_rng(seed)
        c1 = max(8, int(16 * width))
        c2, c3 = c1 * 2, c1 * 4
        self.backbone = nn.Sequential(
            _conv_block(3, c1, rng),
            nn.MaxPool2d(2),
            _conv_block(c1, c2, rng),
            nn.MaxPool2d(2),
            _conv_block(c2, c3, rng),
            nn.MaxPool2d(2),
            _conv_block(c3, c3, rng),
        )
        self.anchor_sizes = (12.0, 24.0)
        self.num_anchors = len(self.anchor_sizes)
        self.num_classes = num_classes
        self.image_size = image_size
        self.score_threshold = score_threshold
        self.nms_threshold = nms_threshold
        outputs_per_anchor = 5 + num_classes
        self.head = nn.Conv2d(c3, self.num_anchors * outputs_per_anchor, 1, rng=rng)
        self.decode = YoloDecode(self)

    def forward(self, x: np.ndarray) -> list[Detection]:
        features = self.backbone(x)
        raw = self.head(features)
        return self.decode(raw)


def _cells(raw: np.ndarray, anchors: int, outputs: int) -> np.ndarray:
    """A head grid ``(batch, anchors * outputs, fh, fw)`` as ``(batch, fh * fw * anchors, outputs)``.

    Cell-major, then anchor: the row order of :func:`generate_anchor_grid`.
    """
    batch, _, fh, fw = raw.shape
    grid = raw.reshape(batch, anchors, outputs, fh, fw).transpose(0, 3, 4, 1, 2)
    return grid.reshape(batch, fh * fw * anchors, outputs)


def _picked(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per candidate of ``(batch, A, classes)`` probabilities: the top class and its probability."""
    labels = np.argmax(probs, axis=-1)
    return labels, np.take_along_axis(probs, labels[..., None], axis=-1)[..., 0]


class YoloDecode(_PostProcessing):
    """Decode the raw YOLO head grid into per-image detections.

    The whole stack is decoded at once, each value as a lone image's would
    be; only thresholding and NMS run per image.
    """

    def forward(self, raw: np.ndarray) -> list[Detection]:
        detector = self.detector
        _, _, fh, fw = raw.shape
        cells = _cells(raw, detector.num_anchors, 5 + detector.num_classes)
        anchors = generate_anchor_grid((fh, fw), detector.image_size, detector.anchor_sizes)
        offsets = cells[..., 0:4] * 0.1
        objectness = F.sigmoid(cells[..., 4])
        labels, probs = _picked(F.softmax(cells[..., 5:], axis=-1))
        boxes = decode_offsets(anchors, offsets)
        return self._detections(boxes, objectness * probs, labels)


class RetinaNetLite(Module):
    """Anchor-based one-stage detector with separate class and box heads."""

    def __init__(
        self,
        num_classes: int = 5,
        image_size: tuple[int, int] = (64, 64),
        width: float = 0.5,
        seed: int = 0,
        score_threshold: float = 0.3,
        nms_threshold: float = 0.5,
    ):
        super().__init__()
        rng = init.make_rng(seed)
        c1 = max(8, int(16 * width))
        c2, c3 = c1 * 2, c1 * 4
        self.backbone = nn.Sequential(
            nn.Conv2d(3, c1, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(c1),
            nn.ReLU(),
            nn.Conv2d(c1, c2, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(c2),
            nn.ReLU(),
            nn.Conv2d(c2, c3, 3, stride=2, padding=1, rng=rng),
            nn.BatchNorm2d(c3),
            nn.ReLU(),
        )
        self.anchor_sizes = (10.0, 20.0, 32.0)
        self.aspect_ratios = (0.5, 1.0, 2.0)
        self.num_anchors = len(self.anchor_sizes) * len(self.aspect_ratios)
        self.num_classes = num_classes
        self.image_size = image_size
        self.score_threshold = score_threshold
        self.nms_threshold = nms_threshold
        self.cls_head = nn.Sequential(
            nn.Conv2d(c3, c3, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c3, self.num_anchors * num_classes, 1, rng=rng),
        )
        self.box_head = nn.Sequential(
            nn.Conv2d(c3, c3, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c3, self.num_anchors * 4, 1, rng=rng),
        )
        self.tail = RetinaNetTail(self)

    def forward(self, x: np.ndarray) -> list[Detection]:
        return self.tail(self.backbone(x))


class RetinaNetTail(_PostProcessing):
    """Run both RetinaNet heads on the backbone features and decode them."""

    def forward(self, features: np.ndarray) -> list[Detection]:
        detector = self.detector
        return self.decode(detector.cls_head(features), detector.box_head(features))

    def decode(self, cls_raw: np.ndarray, box_raw: np.ndarray) -> list[Detection]:
        """Per-image detections from the two heads' raw grids, decoded as one stack."""
        detector = self.detector
        _, _, fh, fw = cls_raw.shape
        anchors = generate_anchor_grid(
            (fh, fw), detector.image_size, detector.anchor_sizes, detector.aspect_ratios
        )
        offsets = _cells(box_raw, detector.num_anchors, 4) * 0.1
        labels, scores = _picked(
            F.sigmoid(_cells(cls_raw, detector.num_anchors, detector.num_classes))
        )
        return self._detections(decode_offsets(anchors, offsets), scores, labels)


class FasterRCNNLite(Module):
    """Simplified two-stage detector (proposal head + per-proposal classifier)."""

    def __init__(
        self,
        num_classes: int = 5,
        image_size: tuple[int, int] = (64, 64),
        width: float = 0.5,
        seed: int = 0,
        top_proposals: int = 16,
        score_threshold: float = 0.3,
        nms_threshold: float = 0.5,
    ):
        super().__init__()
        rng = init.make_rng(seed)
        c1 = max(8, int(16 * width))
        c2 = c1 * 2
        self.backbone = nn.Sequential(
            nn.Conv2d(3, c1, 3, stride=2, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c1, c2, 3, stride=2, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(c2, c2, 3, stride=2, padding=1, rng=rng),
            nn.ReLU(),
        )
        self.anchor_sizes = (12.0, 24.0)
        self.num_anchors = len(self.anchor_sizes)
        self.num_classes = num_classes
        self.image_size = image_size
        self.top_proposals = top_proposals
        self.score_threshold = score_threshold
        self.nms_threshold = nms_threshold
        # Region proposal head: objectness + offsets per anchor.
        self.rpn = nn.Conv2d(c2, self.num_anchors * 5, 1, rng=rng)
        # Second stage: classify pooled proposal features.
        self.roi_pool_size = 2
        roi_features = c2 * self.roi_pool_size * self.roi_pool_size
        self.classifier = nn.Sequential(
            nn.Linear(roi_features, 64, rng=rng),
            nn.ReLU(),
            nn.Linear(64, num_classes + 1, rng=rng),
        )
        self.tail = FasterRCNNTail(self)

    def forward(self, x: np.ndarray) -> list[Detection]:
        return self.tail(self.backbone(x))


class FasterRCNNTail(_PostProcessing):
    """Both Faster-RCNN stages: proposals from the RPN, then per-proposal classification."""

    def forward(self, features: np.ndarray) -> list[Detection]:
        detector = self.detector
        rpn_raw = detector.rpn(features)
        batch, _, fh, fw = rpn_raw.shape
        anchors = generate_anchor_grid((fh, fw), detector.image_size, detector.anchor_sizes)
        rpn_raw = rpn_raw.reshape(batch, detector.num_anchors, 5, fh, fw)
        detections: list[Detection] = []
        for index in range(batch):
            per_image = rpn_raw[index].transpose(2, 3, 0, 1).reshape(-1, 5)
            objectness = F.sigmoid(per_image[:, 0])
            offsets = per_image[:, 1:5] * 0.1
            proposals = decode_offsets(anchors, offsets)
            proposals = clip_boxes(proposals, detector.image_size)
            # Stable: saturated objectness ties, and ties keep anchor order on every CPU.
            ranked = np.argsort(-np.nan_to_num(objectness, nan=-1.0), kind="stable")
            order = ranked[: detector.top_proposals]
            detections.append(
                self._second_stage(features[index], proposals[order], objectness[order])
            )
        return detections

    def _second_stage(
        self,
        feature_map: np.ndarray,
        proposals: np.ndarray,
        objectness: np.ndarray,
    ) -> Detection:
        if len(proposals) == 0:
            return Detection()
        pooled = self._roi_pool(feature_map, proposals)
        logits = self.detector.classifier(pooled)
        probs = F.softmax(logits, axis=1)
        labels = np.argmax(probs[:, 1:], axis=1)  # class 0 is background
        class_scores = probs[np.arange(len(labels)), labels + 1]
        scores = class_scores * objectness
        return self._select(proposals, scores, labels, clip=False)  # clipped before ranking

    def _roi_pool(self, feature_map: np.ndarray, proposals: np.ndarray) -> np.ndarray:
        """Pool each proposal region to a fixed-size feature vector."""
        channels, fh, fw = feature_map.shape
        height, width = self.detector.image_size
        pool_size = self.detector.roi_pool_size
        pooled = np.zeros((len(proposals), channels, pool_size, pool_size), dtype=np.float32)
        safe_proposals = np.nan_to_num(proposals, nan=0.0, posinf=width, neginf=0.0)
        for index, box in enumerate(safe_proposals):
            x1 = int(np.clip(box[0] / width * fw, 0, fw - 1))
            y1 = int(np.clip(box[1] / height * fh, 0, fh - 1))
            x2 = int(np.clip(np.ceil(box[2] / width * fw), x1 + 1, fw))
            y2 = int(np.clip(np.ceil(box[3] / height * fh), y1 + 1, fh))
            region = feature_map[:, y1:y2, x1:x2]
            region_4d = region[None, ...]
            pooled[index] = F.adaptive_avg_pool2d(region_4d, pool_size)[0]
        return pooled.reshape(len(proposals), -1)


def yolov3_tiny(num_classes: int = 5, seed: int = 0, **kwargs) -> YoloV3Tiny:
    """Build the YOLO-style detector."""
    return YoloV3Tiny(num_classes=num_classes, seed=seed, **kwargs)


def retinanet_lite(num_classes: int = 5, seed: int = 0, **kwargs) -> RetinaNetLite:
    """Build the RetinaNet-style detector."""
    return RetinaNetLite(num_classes=num_classes, seed=seed, **kwargs)


def faster_rcnn_lite(num_classes: int = 5, seed: int = 0, **kwargs) -> FasterRCNNLite:
    """Build the Faster-RCNN-style two-stage detector."""
    return FasterRCNNLite(num_classes=num_classes, seed=seed, **kwargs)


# Read-only, like ``MODEL_REGISTRY``: register through
# ``repro.experiments.register_model``.
DETECTOR_REGISTRY: Mapping[str, Callable[..., Module]] = MappingProxyType({
    "yolov3": yolov3_tiny,
    "retinanet": retinanet_lite,
    "faster_rcnn": faster_rcnn_lite,
})


def build_detector(name: str, **kwargs) -> Module:
    """Build a detector by registry name (``yolov3``, ``retinanet``, ``faster_rcnn``)."""
    if name not in DETECTOR_REGISTRY:
        raise KeyError(f"unknown detector {name!r}; available: {sorted(DETECTOR_REGISTRY)}")
    return DETECTOR_REGISTRY[name](**kwargs)
