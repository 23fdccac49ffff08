"""Detector post-processing decodes a stack at once and keeps the per-image bytes.

``YoloDecode`` and ``RetinaNetTail`` decode every image of a stack in one
pass over ``(batch, cells * anchors, ·)`` and select per image; ``nms``
suppresses greedily from one IoU matrix.  Both are pinned byte for byte
against the per-image loops and the one-row-per-kept-box ``nms`` frozen in
``tests/oracles/detection_postprocess_v0.py``, on generated head grids full
of NaN, ±Inf and huge values and on box sets full of ties, duplicates and
zero-area boxes.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.detection.anchors import decode_offsets
from repro.models.detection.boxes import nms
from repro.models.detection.detectors import retinanet_lite, yolov3_tiny
from repro.nn.forward_plan import _bitwise_equal
from tests.oracles import detection_postprocess_v0 as oracle

_SPECIAL = (np.nan, np.inf, -np.inf, 3.4e38, -3.4e38, 1e30, -1e30, 0.0, -0.0)
_NMS_THRESHOLDS = (0.0, 0.45, 1.0)


@functools.lru_cache(maxsize=None)
def _detector(family: str, score_threshold: float, nms_threshold: float):
    build = yolov3_tiny if family == "yolov3" else retinanet_lite
    return build(seed=1, score_threshold=score_threshold, nms_threshold=nms_threshold).eval()


@st.composite
def _grid(draw, channels: int):
    """A raw head grid ``(batch, channels, fh, fw)``: scaled noise with special values planted."""
    batch, fh, fw = draw(st.integers(1, 16)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 3.0, 30.0, 1e4, 1e38]))
    grid = (rng.standard_normal((batch, channels, fh, fw)) * scale).astype(np.float32)
    flat = grid.reshape(-1)
    for _ in range(draw(st.integers(0, 12))):
        flat[draw(st.integers(0, flat.size - 1))] = draw(st.sampled_from(_SPECIAL))
    # A whole image of one value: its saturated scores tie.
    if draw(st.booleans()):
        grid[draw(st.integers(0, batch - 1))] = draw(st.sampled_from(_SPECIAL + (8.0,)))
    return grid


_THRESHOLDS = st.tuples(st.sampled_from([0.0, 0.3, 0.9]), st.sampled_from(_NMS_THRESHOLDS))


class TestDecodersEqualThePerImageLoops:
    @settings(max_examples=150, deadline=None)
    @given(_THRESHOLDS, st.data())
    def test_yolo_decode(self, thresholds, data):
        detector = _detector("yolov3", *thresholds)
        raw = data.draw(_grid(detector.num_anchors * (5 + detector.num_classes)))
        with np.errstate(all="ignore"):
            expected = oracle.yolo_decode(detector, raw)
            assert _bitwise_equal(detector.decode(raw), expected)

    @settings(max_examples=150, deadline=None)
    @given(_THRESHOLDS, st.data())
    def test_retinanet_decode(self, thresholds, data):
        detector = _detector("retinanet", *thresholds)
        cls_raw = data.draw(_grid(detector.num_anchors * detector.num_classes))
        batch, _, fh, fw = cls_raw.shape
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        box_raw = (rng.standard_normal((batch, detector.num_anchors * 4, fh, fw)) * 4).astype(
            np.float32
        )
        box_raw.reshape(-1)[:: data.draw(st.integers(3, 97))] = data.draw(
            st.sampled_from(_SPECIAL)
        )
        with np.errstate(all="ignore"):
            expected = oracle.retinanet_decode(detector, cls_raw, box_raw)
            assert _bitwise_equal(detector.tail.decode(cls_raw, box_raw), expected)

    @pytest.mark.parametrize("family", ["yolov3", "retinanet"])
    @pytest.mark.parametrize("batch", [1, 5, 16])
    def test_whole_detectors(self, family, batch):
        detector = _detector(family, 0.3, 0.45 if family == "yolov3" else 0.5)
        images = np.random.default_rng(batch).standard_normal((batch, 3, 64, 64))
        images = images.astype(np.float32)
        if family == "yolov3":
            expected = oracle.yolo_decode(detector, detector.head(detector.backbone(images)))
        else:
            expected = oracle.retinanet_tail(detector, detector.backbone(images))
        assert _bitwise_equal(detector(images), expected)
        # ... and row i of the stack is image i decoded alone.
        for row in range(batch):
            assert _bitwise_equal(detector(images[row : row + 1]), expected[row : row + 1])

    def test_decode_offsets_of_a_stack_is_each_image_decoded_alone(self):
        rng = np.random.default_rng(4)
        anchors = rng.uniform(0, 64, (128, 4)).astype(np.float32)
        offsets = (rng.standard_normal((6, 128, 4)) * 3).astype(np.float32)
        offsets[2, 5] = (np.nan, np.inf, -np.inf, 1e30)
        with np.errstate(all="ignore"):
            stacked = decode_offsets(anchors, offsets)
            for image in range(len(offsets)):
                alone = oracle.decode_offsets(anchors, offsets[image])
                assert stacked[image].tobytes() == alone.tobytes()
        with pytest.raises(ValueError, match="mismatch"):
            decode_offsets(anchors, offsets[:, :64])


@st.composite
def _boxes(draw):
    """Boxes on a small integer grid (ties, duplicates, zero width or height) and tied scores.

    Now and then a corner is NaN or infinite, or the box is huge: ``nms`` is
    public, even though detectors hand it finite boxes only.
    """
    count = draw(st.integers(0, 40))
    corner = st.integers(0, 6)
    boxes = []
    for _ in range(count):
        if boxes and draw(st.integers(0, 4)) == 0:
            boxes.append(list(boxes[draw(st.integers(0, len(boxes) - 1))]))  # a duplicate
            continue
        x, y = draw(corner), draw(corner)
        boxes.append([x, y, x + draw(st.integers(0, 4)), y + draw(st.integers(0, 4))])
        if draw(st.integers(0, 9)) == 0:
            boxes[-1][draw(st.integers(0, 3))] = draw(st.sampled_from(_SPECIAL))
    scores = [draw(st.sampled_from([0.1, 0.5, 0.5, 0.9, 1.0])) for _ in boxes]
    return (
        np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        np.asarray(scores, dtype=np.float32),
    )


class TestNmsEqualsTheLoop:
    @settings(max_examples=300, deadline=None)
    @given(_boxes(), st.sampled_from(_NMS_THRESHOLDS))
    def test_generated_box_sets(self, candidates, threshold):
        boxes, scores = candidates
        with np.errstate(all="ignore"):
            kept = nms(boxes, scores, threshold)
            expected = oracle.nms(boxes, scores, threshold)
        assert kept.dtype == expected.dtype and kept.tolist() == expected.tolist()

    @pytest.mark.parametrize("threshold", _NMS_THRESHOLDS)
    def test_many_random_boxes(self, threshold):
        rng = np.random.default_rng(7)
        for _ in range(50):
            corners = rng.uniform(0, 64, (128, 2)).astype(np.float32)
            sizes = rng.uniform(0, 24, (128, 2)).astype(np.float32)
            boxes = np.concatenate([corners, corners + sizes], axis=1)
            scores = rng.random(128).astype(np.float32)
            assert nms(boxes, scores, threshold).tolist() == oracle.nms(
                boxes, scores, threshold
            ).tolist()

    def test_edge_cases(self):
        empty = nms(np.zeros((0, 4)), np.zeros(0))
        assert empty.dtype == np.int64 and empty.shape == (0,)
        assert nms([[0, 0, 1, 1]], [0.5]).tolist() == [0]
        with pytest.raises(ValueError, match="length mismatch"):
            nms(np.zeros((2, 4)), np.zeros(3))
