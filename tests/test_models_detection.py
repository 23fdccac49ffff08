"""Unit tests for the detection substrate: boxes, anchors and detectors."""

import numpy as np
import pytest

from repro.models.detection import (
    Detection,
    box_iou,
    build_detector,
    clip_boxes,
    faster_rcnn_lite,
    generate_anchor_grid,
    nms,
    retinanet_lite,
    xywh_to_xyxy,
    xyxy_to_xywh,
    yolov3_tiny,
)
from repro.models.detection.anchors import decode_offsets


class TestBoxConversions:
    def test_xywh_round_trip(self):
        boxes = np.array([[10.0, 20.0, 30.0, 40.0], [0.0, 0.0, 5.0, 5.0]])
        np.testing.assert_allclose(xyxy_to_xywh(xywh_to_xyxy(boxes)), boxes)

    def test_xywh_to_xyxy_values(self):
        out = xywh_to_xyxy(np.array([[10.0, 20.0, 5.0, 8.0]]))
        np.testing.assert_allclose(out, [[10.0, 20.0, 15.0, 28.0]])

    def test_clip_boxes(self):
        boxes = np.array([[-5.0, -5.0, 100.0, 100.0]])
        clipped = clip_boxes(boxes, (64, 48))
        np.testing.assert_allclose(clipped, [[0.0, 0.0, 48.0, 64.0]])


class TestIoU:
    def test_identical_boxes(self):
        box = np.array([[0.0, 0.0, 10.0, 10.0]])
        np.testing.assert_allclose(box_iou(box, box), [[1.0]])

    def test_disjoint_boxes(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[20.0, 20.0, 30.0, 30.0]])
        np.testing.assert_allclose(box_iou(a, b), [[0.0]])

    def test_half_overlap(self):
        a = np.array([[0.0, 0.0, 10.0, 10.0]])
        b = np.array([[5.0, 0.0, 15.0, 10.0]])
        np.testing.assert_allclose(box_iou(a, b), [[50.0 / 150.0]])

    def test_matrix_shape(self):
        a = np.zeros((3, 4))
        b = np.zeros((5, 4))
        assert box_iou(a, b).shape == (3, 5)

    def test_empty_inputs(self):
        assert box_iou(np.zeros((0, 4)), np.zeros((2, 4))).shape == (0, 2)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = np.sort(rng.uniform(0, 50, size=(4, 4)), axis=1)
        b = np.sort(rng.uniform(0, 50, size=(6, 4)), axis=1)
        np.testing.assert_allclose(box_iou(a, b), box_iou(b, a).T, rtol=1e-6)


class TestNms:
    def test_keeps_highest_scoring_of_overlapping_pair(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 11, 11], [30, 30, 40, 40]], dtype=np.float32)
        scores = np.array([0.6, 0.9, 0.5])
        keep = nms(boxes, scores, iou_threshold=0.5)
        assert list(keep) == [1, 2]

    def test_no_suppression_below_threshold(self):
        boxes = np.array([[0, 0, 10, 10], [20, 20, 30, 30]], dtype=np.float32)
        keep = nms(boxes, np.array([0.5, 0.6]), iou_threshold=0.5)
        assert set(keep.tolist()) == {0, 1}

    def test_empty_input(self):
        assert len(nms(np.zeros((0, 4)), np.zeros((0,)))) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            nms(np.zeros((2, 4)), np.zeros((3,)))

    def test_result_sorted_by_score(self):
        boxes = np.array([[0, 0, 5, 5], [20, 20, 25, 25], [40, 40, 45, 45]], dtype=np.float32)
        scores = np.array([0.1, 0.9, 0.5])
        keep = nms(boxes, scores, 0.5)
        assert list(keep) == [1, 2, 0]


class TestAnchors:
    def test_anchor_count(self):
        anchors = generate_anchor_grid((4, 4), (64, 64), (16.0,), (1.0,))
        assert anchors.shape == (16, 4)

    def test_anchor_count_with_sizes_and_ratios(self):
        anchors = generate_anchor_grid((2, 3), (64, 64), (8.0, 16.0), (0.5, 1.0, 2.0))
        assert anchors.shape == (2 * 3 * 6, 4)

    def test_anchor_centres_inside_image(self):
        anchors = generate_anchor_grid((8, 8), (64, 64), (16.0,))
        centres_x = (anchors[:, 0] + anchors[:, 2]) / 2
        centres_y = (anchors[:, 1] + anchors[:, 3]) / 2
        assert centres_x.min() >= 0 and centres_x.max() <= 64
        assert centres_y.min() >= 0 and centres_y.max() <= 64

    def test_anchor_sizes_respected(self):
        anchors = generate_anchor_grid((1, 1), (64, 64), (16.0,), (1.0,))
        widths = anchors[:, 2] - anchors[:, 0]
        np.testing.assert_allclose(widths, 16.0)

    def test_invalid_feature_size(self):
        with pytest.raises(ValueError):
            generate_anchor_grid((0, 4), (64, 64))

    def test_decode_zero_offsets_returns_anchors(self):
        anchors = generate_anchor_grid((2, 2), (32, 32), (8.0,))
        decoded = decode_offsets(anchors, np.zeros_like(anchors))
        np.testing.assert_allclose(decoded, anchors, atol=1e-5)

    def test_decode_shift(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        offsets = np.array([[0.5, 0.0, 0.0, 0.0]])
        decoded = decode_offsets(anchors, offsets)
        np.testing.assert_allclose(decoded, [[5.0, 0.0, 15.0, 10.0]], atol=1e-5)

    def test_decode_clamps_extreme_scale(self):
        anchors = np.array([[0.0, 0.0, 10.0, 10.0]])
        offsets = np.array([[0.0, 0.0, 100.0, 100.0]])
        decoded = decode_offsets(anchors, offsets)
        assert np.isfinite(decoded).all()


class TestDetection:
    def test_empty_detection(self):
        detection = Detection()
        assert len(detection) == 0
        assert not detection.has_nan_or_inf()

    def test_as_dict(self):
        detection = Detection(
            boxes=np.array([[0.0, 0.0, 5.0, 5.0]]),
            scores=np.array([0.8]),
            labels=np.array([2]),
        )
        data = detection.as_dict()
        assert data["labels"] == [2]
        assert len(data["boxes"][0]) == 4

    def test_nan_detection_flag(self):
        detection = Detection(
            boxes=np.array([[0.0, 0.0, np.nan, 5.0]]),
            scores=np.array([0.8]),
            labels=np.array([1]),
        )
        assert detection.has_nan_or_inf()

    def test_nan_and_inf_attributed_separately(self):
        nan_only = Detection(
            boxes=np.array([[0.0, 0.0, np.nan, 5.0]]),
            scores=np.array([0.8]),
            labels=np.array([1]),
        )
        assert nan_only.has_nan() and not nan_only.has_inf()
        inf_only = Detection(
            boxes=np.array([[0.0, 0.0, 4.0, 5.0]]),
            scores=np.array([np.inf]),
            labels=np.array([1]),
        )
        assert inf_only.has_inf() and not inf_only.has_nan()
        clean = Detection(
            boxes=np.array([[0.0, 0.0, 4.0, 5.0]]),
            scores=np.array([0.8]),
            labels=np.array([1]),
        )
        assert not clean.has_nan() and not clean.has_inf()


class TestDetectors:
    @pytest.mark.parametrize("factory", [yolov3_tiny, retinanet_lite, faster_rcnn_lite])
    def test_forward_returns_per_image_detections(self, factory):
        model = factory(num_classes=5, seed=0).eval()
        images = np.random.default_rng(0).normal(size=(2, 3, 64, 64)).astype(np.float32)
        detections = model(images)
        assert len(detections) == 2
        for detection in detections:
            assert isinstance(detection, Detection)
            boxes = np.asarray(detection.boxes).reshape(-1, 4)
            if len(boxes):
                assert boxes[:, 0].min() >= 0
                assert boxes[:, 2].max() <= 64

    def test_detectors_are_deterministic(self):
        images = np.random.default_rng(1).normal(size=(1, 3, 64, 64)).astype(np.float32)
        a = yolov3_tiny(seed=3).eval()(images)[0]
        b = yolov3_tiny(seed=3).eval()(images)[0]
        np.testing.assert_allclose(a.boxes, b.boxes)
        np.testing.assert_allclose(a.scores, b.scores)

    def test_build_detector_registry(self):
        model = build_detector("retinanet", num_classes=3)
        assert model.num_classes == 3

    @pytest.mark.parametrize("name,expected", [
        ("yolov3", ["backbone.0.0", "backbone.2.0", "backbone.4.0", "backbone.6.0", "head"]),
        ("retinanet", [
            "backbone.0", "backbone.3", "backbone.6",
            "cls_head.0", "cls_head.2", "box_head.0", "box_head.2",
        ]),
        ("faster_rcnn", [
            "backbone.0", "backbone.2", "backbone.4", "rpn", "classifier.0", "classifier.2",
        ]),
    ])
    def test_injectable_layer_names_are_pinned(self, name, expected):
        # Fault files address layers by index into this list and result files
        # carry these names: post-processing modules must not move either.
        from repro.alficore import default_scenario, ptfiwrap

        model = build_detector(name, num_classes=5, seed=1).eval()
        wrapper = ptfiwrap(
            model, scenario=default_scenario(injection_target="weights"), input_shape=(3, 64, 64)
        )
        assert [layer.name for layer in wrapper.fault_injection.layers] == expected
        # ... and own no parameters or buffers (weights are the parent's).
        tail = model.decode if name == "yolov3" else model.tail
        assert not list(tail.named_parameters()) and not list(tail.named_buffers())

    def test_anchor_grid_is_built_once_and_read_only(self):
        first = generate_anchor_grid((8, 8), [64, 64], [12.0, 24.0])
        assert generate_anchor_grid((8, 8), (64, 64), (12.0, 24.0)) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_build_detector_unknown(self):
        with pytest.raises(KeyError):
            build_detector("detr")

    def test_detectors_contain_injectable_conv_layers(self):
        from repro import nn

        for factory in (yolov3_tiny, retinanet_lite, faster_rcnn_lite):
            model = factory()
            convs = [m for _, m in model.named_modules() if isinstance(m, nn.Conv2d)]
            assert len(convs) >= 4
