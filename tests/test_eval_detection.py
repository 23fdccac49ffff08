"""Unit tests for the detection KPIs (AP/mAP and IVMOD)."""

import math

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.eval import (
    average_precision,
    coco_map,
    evaluate_detection_campaign,
    ivmod_metric,
    match_detections,
)
from repro.eval.detection import _image_rows, _tp_fp
from tests.oracles import detection_kpis_v0


def prediction(boxes, scores, labels):
    return {
        "boxes": np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        "scores": np.asarray(scores, dtype=np.float32).reshape(-1),
        "labels": np.asarray(labels, dtype=np.int64).reshape(-1),
    }


def target(boxes, labels):
    return {
        "boxes": np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        "labels": np.asarray(labels, dtype=np.int64).reshape(-1),
    }


class TestMatching:
    def test_perfect_match(self):
        tp, num_gt = match_detections([[0, 0, 10, 10]], [0.9], [[0, 0, 10, 10]])
        assert tp.tolist() == [True]
        assert num_gt == 1

    def test_low_iou_not_matched(self):
        tp, _ = match_detections([[0, 0, 10, 10]], [0.9], [[50, 50, 60, 60]])
        assert tp.tolist() == [False]

    def test_each_gt_matched_once(self):
        tp, _ = match_detections(
            [[0, 0, 10, 10], [0, 0, 10, 10]], [0.9, 0.8], [[0, 0, 10, 10]]
        )
        assert tp.tolist() == [True, False]

    def test_highest_score_matched_first(self):
        tp, _ = match_detections(
            [[0, 0, 10, 10], [1, 1, 11, 11]], [0.5, 0.9], [[0, 0, 10, 10]]
        )
        # Predictions are ordered by score: the 0.9 one (index 1) matches first.
        assert tp.tolist() == [True, False]

    def test_empty_predictions(self):
        tp, num_gt = match_detections(np.zeros((0, 4)), np.zeros(0), [[0, 0, 5, 5]])
        assert len(tp) == 0 and num_gt == 1


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision(np.array([True, True]), 2) == pytest.approx(1.0)

    def test_no_detections(self):
        assert average_precision(np.zeros(0, dtype=bool), 3) == 0.0

    def test_no_ground_truth(self):
        assert average_precision(np.array([True]), 0) == 0.0

    def test_half_recall(self):
        ap = average_precision(np.array([True]), 2)
        assert ap == pytest.approx(0.5)

    def test_false_positive_before_true_positive_lowers_ap(self):
        good = average_precision(np.array([True, False]), 1)
        bad = average_precision(np.array([False, True]), 1)
        assert good > bad


class TestCocoMap:
    def test_perfect_predictions(self):
        targets = [target([[0, 0, 10, 10]], [0]), target([[5, 5, 20, 20]], [1])]
        predictions = [
            prediction([[0, 0, 10, 10]], [0.9], [0]),
            prediction([[5, 5, 20, 20]], [0.8], [1]),
        ]
        result = coco_map(predictions, targets, num_classes=2)
        assert result["mAP"] == pytest.approx(1.0)
        assert result["AR"] == pytest.approx(1.0)
        assert result["AP50"] == pytest.approx(1.0)

    def test_missing_all_objects(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        predictions = [prediction(np.zeros((0, 4)), [], [])]
        result = coco_map(predictions, targets, num_classes=1)
        assert result["mAP"] == 0.0

    def test_wrong_class_counts_as_miss(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        predictions = [prediction([[0, 0, 10, 10]], [0.9], [1])]
        assert coco_map(predictions, targets, num_classes=2)["mAP"] == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            coco_map([], [target([[0, 0, 1, 1]], [0])], 1)

    def test_multiple_iou_thresholds(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        predictions = [prediction([[0, 0, 9, 10]], [0.9], [0])]  # IoU = 0.9
        result = coco_map(predictions, targets, 1, iou_thresholds=(0.5, 0.95))
        assert result["mAP"] == pytest.approx(0.5)  # hit at 0.5, miss at 0.95


class TestIvmod:
    def test_identical_runs_no_corruption(self):
        targets = [target([[0, 0, 10, 10]], [0])] * 3
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])] * 3
        result = ivmod_metric(golden, golden, targets)
        assert result.sde_rate == 0.0
        assert result.due_rate == 0.0

    def test_lost_true_positive_counts(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])]
        corrupted = [prediction(np.zeros((0, 4)), [], [])]
        result = ivmod_metric(golden, corrupted, targets)
        assert result.sde_rate == 1.0
        assert result.tp_lost_images == 1
        assert result.fp_added_images == 0

    def test_added_false_positive_counts(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])]
        corrupted = [prediction([[0, 0, 10, 10], [40, 40, 60, 60]], [0.9, 0.8], [0, 0])]
        result = ivmod_metric(golden, corrupted, targets)
        assert result.sde_rate == 1.0
        assert result.fp_added_images == 1

    def test_nan_output_counts_as_due_not_sde(self):
        targets = [target([[0, 0, 10, 10]], [0])]
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])]
        corrupted = [prediction([[0, 0, np.nan, 10]], [0.9], [0])]
        result = ivmod_metric(golden, corrupted, targets)
        assert result.due_rate == 1.0
        assert result.sde_rate == 0.0

    def test_external_due_flags(self):
        targets = [target([[0, 0, 10, 10]], [0])] * 2
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])] * 2
        result = ivmod_metric(golden, golden, targets, due_flags=[True, False])
        assert result.due_rate == 0.5

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ivmod_metric([], [prediction([[0, 0, 1, 1]], [0.5], [0])], [])

    def test_empty_campaign(self):
        result = ivmod_metric([], [], [])
        assert result.sde_rate == 0.0 and result.total_images == 0


class TestCampaignEvaluation:
    def test_campaign_summary(self):
        targets = [target([[0, 0, 10, 10]], [0]), target([[20, 20, 40, 40]], [1])]
        golden = [
            prediction([[0, 0, 10, 10]], [0.9], [0]),
            prediction([[20, 20, 40, 40]], [0.9], [1]),
        ]
        corrupted = [
            prediction([[0, 0, 10, 10]], [0.9], [0]),
            prediction(np.zeros((0, 4)), [], []),
        ]
        result = evaluate_detection_campaign(golden, corrupted, targets, num_classes=2, model_name="det")
        assert result.model_name == "det"
        assert result.num_images == 2
        assert result.golden_map["mAP"] == pytest.approx(1.0)
        assert result.corrupted_map["mAP"] < 1.0
        assert result.ivmod.sde_rate == pytest.approx(0.5)

    def test_as_dict_is_json_friendly(self):
        import json

        targets = [target([[0, 0, 10, 10]], [0])]
        golden = [prediction([[0, 0, 10, 10]], [0.9], [0])]
        result = evaluate_detection_campaign(golden, golden, targets, num_classes=1)
        json.dumps(result.as_dict())


class TestCandidateTieOrder:
    def test_equal_ious_are_tried_in_index_order(self):
        # Both predictions overlap GT 2 and GT 3; the first one ties between
        # them (IoU 9/11 each) and must take GT 2, the lower index, so the
        # second one (IoU 7/13 with GT 2, 5/15 with GT 3) finds nothing left
        # above 0.5.  A sort kernel that is unstable on ties for four or
        # more elements used to hand the first one GT 3 on some CPUs.
        gt = [[100, 100, 110, 110], [200, 200, 210, 210], [0, 0, 10, 10], [2, 0, 12, 10]]
        tp, num_gt = match_detections([[1, 0, 11, 10], [-3, 0, 7, 10]], [0.9, 0.8], gt)
        assert tp.tolist() == [True, False]
        assert num_gt == 4

    def test_an_iou_equal_to_the_threshold_in_float32_matches(self):
        # IoU 7/10 rounds to float32 0.69999998, which the threshold 0.7
        # also rounds to: float32 IoUs meet the threshold in float32.
        tp, _ = match_detections([[0, 0, 7, 1]], [0.9], [[0, 0, 10, 1]], iou_threshold=0.7)
        assert tp.tolist() == [True]


# --------------------------------------------------------------------------- #
# the production KPIs reduce one match per image; the frozen oracle matches
# every image again for every class, threshold and KPI
# --------------------------------------------------------------------------- #
_SPECIAL = (math.nan, math.inf, -math.inf)
_SCORES = st.sampled_from([0.25, 0.5, 0.75, 1.0] * 3 + list(_SPECIAL))
_THRESHOLDS = st.lists(
    st.sampled_from([0.1, 0.3, 0.5, 0.55, 0.7, 0.95]), min_size=1, max_size=3
).map(tuple)


@st.composite
def _grid_box(draw):
    """A box on an integer grid, so IoUs tie; sometimes with a NaN/Inf corner."""
    x, y = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    width, height = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    box = [float(x), float(y), float(x + width), float(y + height)]
    if draw(st.integers(0, 11)) == 0:
        box[draw(st.integers(0, 3))] = draw(st.sampled_from(_SPECIAL))
    return box


@st.composite
def _image(draw, gt_boxes, gt_labels, num_classes, as_lists):
    """Predictions for one image: GT boxes copied or nudged (0-2 times), plus strays."""
    boxes, labels = [], []
    for box, label in zip(gt_boxes, gt_labels):
        for _ in range(draw(st.integers(0, 2))):
            shift = float(draw(st.integers(-1, 1)))
            boxes.append([box[0] + shift, box[1], box[2] + shift, box[3]])
            relabel = draw(st.integers(0, 4)) == 0
            labels.append(draw(st.integers(-1, num_classes)) if relabel else label)
    for _ in range(draw(st.integers(0, 3))):
        boxes.append(draw(_grid_box()))
        labels.append(draw(st.integers(-1, num_classes)))
    scores = [draw(_SCORES) for _ in boxes]
    if as_lists:
        return {"boxes": boxes, "scores": scores, "labels": labels}
    return prediction(np.asarray(boxes).reshape(-1, 4), scores, labels)


@st.composite
def _campaigns(draw):
    """``(golden, corrupted, targets, num_classes, thresholds, due_flags)``."""
    num_classes = draw(st.integers(1, 3))
    as_lists = draw(st.booleans())  # record-file dicts as well as arrays
    golden, corrupted, targets = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        gt_boxes = [draw(_grid_box()) for _ in range(draw(st.integers(0, 6)))]
        # One label for the whole image now and then: four or more candidates
        # of one class are where an unstable sort breaks IoU ties.
        single = draw(st.none() | st.integers(-1, num_classes))
        gt_labels = [
            single if single is not None else draw(st.integers(-1, num_classes)) for _ in gt_boxes
        ]
        targets.append(target(np.asarray(gt_boxes).reshape(-1, 4), gt_labels))
        golden.append(draw(_image(gt_boxes, gt_labels, num_classes, as_lists)))
        corrupted.append(draw(_image(gt_boxes, gt_labels, num_classes, as_lists)))
    flags = st.lists(st.booleans(), min_size=len(targets), max_size=len(targets))
    due_flags = draw(st.none() | flags)
    return golden, corrupted, targets, num_classes, draw(_THRESHOLDS), due_flags


def _assert_kpis_equal_the_oracle(campaign):
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/Inf boxes are part of the input
        _compare_with_the_oracle(*campaign)


def _compare_with_the_oracle(golden, corrupted, targets, num_classes, thresholds, due_flags):
    for lane in (golden, corrupted):
        assert coco_map(lane, targets, num_classes, thresholds) == detection_kpis_v0.coco_map(
            lane, targets, num_classes, thresholds
        )
        for image, truth in zip(lane, targets):
            rows = _image_rows(image, truth, thresholds[:1])
            assert _tp_fp(rows) == detection_kpis_v0._image_detection_state(
                image, truth, thresholds[0]
            )
    expected_ivmod = detection_kpis_v0.ivmod_metric(
        golden, corrupted, targets, thresholds[0], due_flags
    )
    assert ivmod_metric(golden, corrupted, targets, thresholds[0], due_flags) == expected_ivmod
    result = evaluate_detection_campaign(
        golden, corrupted, targets, num_classes, iou_threshold=thresholds[0], due_flags=due_flags
    )
    single = thresholds[:1]
    assert result.golden_map == detection_kpis_v0.coco_map(golden, targets, num_classes, single)
    assert result.corrupted_map == detection_kpis_v0.coco_map(
        corrupted, targets, num_classes, single
    )
    assert result.ivmod == expected_ivmod


class TestKpisEqualTheFrozenOracle:
    @settings(max_examples=200, deadline=None)
    @given(_campaigns())
    def test_generated_campaigns(self, campaign):
        _assert_kpis_equal_the_oracle(campaign)

    def test_generated_campaigns_reach_nonzero_map(self):
        # The benchmark's synthetic detector scores mAP 0.0 everywhere; the
        # generator must exercise the AP arithmetic too.
        campaign = find(
            _campaigns(),
            lambda c: 0.0 < coco_map(c[0], c[2], c[3], c[4])["mAP"] < 1.0,
            settings=settings(max_examples=500, database=None, phases=[Phase.generate]),
        )
        _assert_kpis_equal_the_oracle(campaign)
