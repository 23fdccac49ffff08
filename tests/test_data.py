"""Unit tests for datasets, data loaders and the ALFI metadata wrapper."""

import json

import numpy as np
import pytest

from repro.data import (
    AlfiDataLoaderWrapper,
    CocoLikeDetectionDataset,
    DataLoader,
    SyntheticClassificationDataset,
    TensorDataset,
    coco_annotations_to_json,
    make_separable_classifier_data,
)


class TestTensorDatasetAndLoader:
    def test_tensor_dataset_items(self):
        xs = np.arange(10).reshape(5, 2)
        ys = np.arange(5)
        dataset = TensorDataset(xs, ys)
        assert len(dataset) == 5
        x, y = dataset[2]
        np.testing.assert_array_equal(x, [4, 5])
        assert y == 2

    def test_tensor_dataset_length_mismatch(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((3, 2)), np.zeros((4,)))

    def test_dataloader_batching(self):
        dataset = TensorDataset(np.arange(10), np.arange(10))
        loader = DataLoader(dataset, batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        assert len(batches[0][0]) == 4
        assert len(batches[-1][0]) == 2

    def test_dataloader_drop_last(self):
        dataset = TensorDataset(np.arange(10))
        loader = DataLoader(dataset, batch_size=4, drop_last=True)
        assert len(list(loader)) == 2
        assert len(loader) == 2

    def test_dataloader_shuffle_is_seeded(self):
        dataset = TensorDataset(np.arange(20))
        loader_a = DataLoader(dataset, batch_size=20, shuffle=True, seed=5)
        loader_b = DataLoader(dataset, batch_size=20, shuffle=True, seed=5)
        np.testing.assert_array_equal(next(iter(loader_a)), next(iter(loader_b)))

    def test_dataloader_shuffle_changes_between_epochs(self):
        dataset = TensorDataset(np.arange(50))
        loader = DataLoader(dataset, batch_size=50, shuffle=True, seed=1)
        first = next(iter(loader))
        second = next(iter(loader))
        assert not np.array_equal(first, second)

    def test_dataloader_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(TensorDataset(np.arange(4)), batch_size=0)


class TestSyntheticClassificationDataset:
    def test_deterministic_for_same_seed(self):
        a = SyntheticClassificationDataset(num_samples=5, seed=9)
        b = SyntheticClassificationDataset(num_samples=5, seed=9)
        image_a, label_a = a[3]
        image_b, label_b = b[3]
        np.testing.assert_array_equal(image_a, image_b)
        assert label_a == label_b

    def test_item_shapes_and_types(self):
        dataset = SyntheticClassificationDataset(num_samples=4, image_size=(3, 16, 16))
        image, label = dataset[0]
        assert image.shape == (3, 16, 16)
        assert image.dtype == np.float32
        assert isinstance(label, int)

    def test_labels_within_range(self):
        dataset = SyntheticClassificationDataset(num_samples=30, num_classes=4)
        assert set(dataset.labels.tolist()) <= set(range(4))

    def test_metadata(self):
        dataset = SyntheticClassificationDataset(num_samples=3)
        meta = dataset.metadata(1)
        assert meta["image_id"] == 1
        assert meta["height"] == 32 and meta["width"] == 32
        assert meta["file_name"].endswith(".png")

    def test_out_of_range_index(self):
        dataset = SyntheticClassificationDataset(num_samples=3)
        with pytest.raises(IndexError):
            dataset[5]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticClassificationDataset(num_samples=0)
        with pytest.raises(ValueError):
            SyntheticClassificationDataset(num_classes=1)

    def test_classes_are_visually_distinct(self):
        dataset = SyntheticClassificationDataset(num_samples=40, num_classes=3, noise=0.05)
        prototypes = dataset.prototypes
        distances = [
            np.abs(prototypes[i] - prototypes[j]).mean()
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(distances) > 0.5

    def test_separable_classifier_data(self):
        features, labels, weight = make_separable_classifier_data(num_samples=50, noise=0.05)
        logits = features @ weight.T
        accuracy = (np.argmax(logits, axis=1) == labels).mean()
        assert accuracy > 0.9


class TestCocoLikeDetectionDataset:
    def test_item_structure(self):
        dataset = CocoLikeDetectionDataset(num_samples=4, num_classes=3)
        image, target = dataset[0]
        assert image.shape == (3, 64, 64)
        assert target["boxes"].shape[1] == 4
        assert len(target["boxes"]) == len(target["labels"])
        assert target["image_id"] == 0

    def test_boxes_inside_image(self):
        dataset = CocoLikeDetectionDataset(num_samples=10, image_size=(48, 48))
        for target in dataset.ground_truth():
            boxes = target["boxes"]
            assert boxes.min() >= 0
            assert boxes[:, [0, 2]].max() <= 48
            assert boxes[:, [1, 3]].max() <= 48

    def test_objects_are_visible_in_image(self):
        dataset = CocoLikeDetectionDataset(num_samples=3, noise=0.01)
        image, target = dataset[0]
        box = target["boxes"][0].astype(int)
        inside = image[:, box[1] : box[3], box[0] : box[2]].mean()
        outside_mask = np.ones_like(image, dtype=bool)
        outside_mask[:, box[1] : box[3], box[0] : box[2]] = False
        assert inside > image[outside_mask].mean()

    def test_deterministic(self):
        a = CocoLikeDetectionDataset(num_samples=3, seed=4)
        b = CocoLikeDetectionDataset(num_samples=3, seed=4)
        np.testing.assert_array_equal(a[1][0], b[1][0])

    def test_target_copies_are_independent(self):
        dataset = CocoLikeDetectionDataset(num_samples=2)
        _, target = dataset[0]
        target["boxes"][...] = -1
        _, fresh = dataset[0]
        assert fresh["boxes"].min() >= 0

    def test_coco_json_export_schema(self):
        dataset = CocoLikeDetectionDataset(num_samples=3, num_classes=2)
        document = coco_annotations_to_json(dataset)
        assert set(document) == {"images", "annotations", "categories"}
        assert len(document["images"]) == 3
        assert len(document["categories"]) == 2
        # The export must be valid JSON end-to-end.
        json.dumps(document)
        for annotation in document["annotations"]:
            assert annotation["bbox"][2] > 0 and annotation["bbox"][3] > 0

    def test_coco_json_export_copies_the_targets_once(self, monkeypatch):
        dataset = CocoLikeDetectionDataset(num_samples=12, num_classes=3, seed=4)
        # Reference: one image at a time, each from its own copy of the targets.
        annotations = []
        for index in range(len(dataset)):
            meta = dataset.metadata(index)
            target = dataset.ground_truth()[index]
            for box, label in zip(target["boxes"], target["labels"]):
                x1, y1, x2, y2 = (float(v) for v in box)
                annotations.append(
                    {
                        "id": len(annotations) + 1,
                        "image_id": meta["image_id"],
                        "category_id": int(label),
                        "bbox": [x1, y1, x2 - x1, y2 - y1],
                        "area": float((x2 - x1) * (y2 - y1)),
                        "iscrowd": 0,
                    }
                )
        calls = []
        ground_truth = CocoLikeDetectionDataset.ground_truth

        def counted(self):
            calls.append(self)
            return ground_truth(self)

        monkeypatch.setattr(CocoLikeDetectionDataset, "ground_truth", counted)
        document = coco_annotations_to_json(dataset)
        assert calls == [dataset]
        assert document["annotations"] == json.loads(json.dumps(annotations))
        assert [image["id"] for image in document["images"]] == [
            dataset.metadata(index)["image_id"] for index in range(len(dataset))
        ]


class TestAlfiDataLoaderWrapper:
    def test_records_carry_metadata(self):
        dataset = SyntheticClassificationDataset(num_samples=5)
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=2)
        batch = next(iter(wrapper))
        assert len(batch) == 2
        record = batch[0]
        assert record.image.shape == (3, 32, 32)
        assert record.file_name.endswith(".png")
        assert record.height == 32 and record.width == 32
        assert isinstance(record.target, int)

    def test_len_and_dataset_size(self):
        dataset = SyntheticClassificationDataset(num_samples=7)
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=3)
        assert len(wrapper) == 3
        assert wrapper.dataset_size == 7

    def test_works_without_metadata_method(self):
        dataset = TensorDataset(np.zeros((4, 3, 8, 8), dtype=np.float32), np.arange(4))
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=2)
        record = next(iter(wrapper))[0]
        assert record.height == 8 and record.width == 8
        assert record.image_id == 0

    def test_stack_and_labels_helpers(self):
        dataset = SyntheticClassificationDataset(num_samples=4)
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=4)
        batch = next(iter(wrapper))
        stacked = AlfiDataLoaderWrapper.stack_images(batch)
        labels = AlfiDataLoaderWrapper.labels(batch)
        assert stacked.shape == (4, 3, 32, 32)
        assert labels.shape == (4,)

    def test_record_as_dict(self):
        dataset = SyntheticClassificationDataset(num_samples=2)
        wrapper = AlfiDataLoaderWrapper(dataset, batch_size=1)
        record = next(iter(wrapper))[0]
        data = record.as_dict()
        assert {"image", "image_id", "file_name", "height", "width", "target"} <= set(data)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            AlfiDataLoaderWrapper(SyntheticClassificationDataset(num_samples=2), batch_size=0)

    def test_shuffle_is_seeded(self):
        dataset = SyntheticClassificationDataset(num_samples=10)
        a = AlfiDataLoaderWrapper(dataset, batch_size=10, shuffle=True, seed=3)
        b = AlfiDataLoaderWrapper(dataset, batch_size=10, shuffle=True, seed=3)
        ids_a = [r.image_id for r in next(iter(a))]
        ids_b = [r.image_id for r in next(iter(b))]
        assert ids_a == ids_b
        assert ids_a != sorted(ids_a)
