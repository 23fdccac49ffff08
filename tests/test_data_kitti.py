"""Unit tests for the Kitti-style synthetic detection dataset."""

import numpy as np
import pytest

from benchmarks.conftest import run_campaign
from repro.alficore import default_scenario
from repro.data import KITTI_CATEGORIES, AlfiDataLoaderWrapper, KittiLikeDetectionDataset
from repro.models.detection import yolov3_tiny


class TestKittiLikeDataset:
    def test_item_structure(self):
        dataset = KittiLikeDetectionDataset(num_samples=4)
        image, target = dataset[0]
        assert image.shape == (3, 48, 96)
        assert target["boxes"].shape[1] == 4
        assert len(target["boxes"]) == len(target["labels"])
        assert target["file_name"].startswith("synthetic_kitti/")

    def test_wide_aspect_required(self):
        with pytest.raises(ValueError):
            KittiLikeDetectionDataset(image_size=(64, 64))

    def test_categories(self):
        dataset = KittiLikeDetectionDataset(num_samples=10)
        assert dataset.num_classes == 3
        assert dataset.category_names == KITTI_CATEGORIES
        for target in dataset.ground_truth():
            assert set(target["labels"].tolist()) <= {0, 1, 2}

    def test_boxes_inside_image_and_on_ground_plane(self):
        dataset = KittiLikeDetectionDataset(num_samples=12, image_size=(48, 96), seed=3)
        horizon = int(48 * 0.4)
        for target in dataset.ground_truth():
            boxes = target["boxes"]
            assert boxes[:, [0, 2]].min() >= 0 and boxes[:, [0, 2]].max() <= 96
            assert boxes[:, [1, 3]].min() >= 0 and boxes[:, [1, 3]].max() <= 48
            # Object bottoms sit below the horizon (on the road).
            assert (boxes[:, 3] > horizon).all()

    def test_perspective_far_objects_are_smaller(self):
        dataset = KittiLikeDetectionDataset(num_samples=40, seed=5)
        bottoms, heights = [], []
        for target in dataset.ground_truth():
            for box in target["boxes"]:
                bottoms.append(box[3])
                heights.append(box[3] - box[1])
        correlation = np.corrcoef(bottoms, heights)[0, 1]
        assert correlation > 0.5  # nearer (lower) objects are taller

    def test_deterministic(self):
        a = KittiLikeDetectionDataset(num_samples=3, seed=7)
        b = KittiLikeDetectionDataset(num_samples=3, seed=7)
        np.testing.assert_array_equal(a[2][0], b[2][0])
        np.testing.assert_array_equal(a[2][1]["boxes"], b[2][1]["boxes"])

    def test_objects_visible_against_background(self):
        dataset = KittiLikeDetectionDataset(num_samples=3, noise=0.01, seed=1)
        image, target = dataset[0]
        box = target["boxes"][0].astype(int)
        inside = image[:, box[1] : box[3], box[0] : box[2]].mean()
        assert inside > image.mean()

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            KittiLikeDetectionDataset(num_samples=2)[5]

    def test_works_with_alfi_loader_wrapper(self):
        dataset = KittiLikeDetectionDataset(num_samples=4)
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=2)
        record = next(iter(wrapper))[0]
        assert record.height == 48 and record.width == 96
        assert isinstance(record.target, dict)


class TestKittiCampaign:
    def test_detection_campaign_on_kitti_like_data(self):
        dataset = KittiLikeDetectionDataset(num_samples=4, seed=2)
        model = yolov3_tiny(num_classes=3, seed=0, image_size=(48, 96)).eval()
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=5)
        corrupted = run_campaign(
            "detection", model, dataset, scenario,
            model_name="yolo_kitti", input_shape=(3, 48, 96), num_faults=1,
        ).results["corrupted"]
        assert corrupted.num_images == 4
        assert 0.0 <= corrupted.ivmod.sde_rate <= 1.0
