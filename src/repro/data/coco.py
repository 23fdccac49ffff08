"""Synthetic CoCo-format object detection dataset.

Stands in for the CoCo / Kitti datasets used by the paper's detection
experiments.  Every image contains a small number of bright rectangular
"objects" on a noisy background; annotations follow the CoCo JSON schema
(``images``, ``annotations``, ``categories``) so the ALFI result pipeline
and CoCo-style AP/AR evaluation exercise the same code paths they would with
the real dataset.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.data.dataset import Dataset


class CocoLikeDetectionDataset(Dataset):
    """Seeded synthetic detection dataset with CoCo-schema annotations.

    Each item is a tuple ``(image, target)`` where ``image`` has shape
    ``(3, height, width)`` and ``target`` is a dict with ``boxes`` (corner
    format), ``labels``, ``image_id``, ``file_name``, ``height``, ``width``.
    """

    def __init__(
        self,
        num_samples: int = 50,
        num_classes: int = 5,
        image_size: tuple[int, int] = (64, 64),
        max_objects: int = 3,
        noise: float = 0.1,
        seed: int = 0,
    ):
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if num_classes <= 0:
            raise ValueError("num_classes must be positive")
        if max_objects <= 0:
            raise ValueError("max_objects must be positive")
        self.num_samples = num_samples
        self.num_classes = num_classes
        self.image_size = image_size
        self.max_objects = max_objects
        self.noise = noise
        self.seed = seed

        height, width = image_size
        rng = np.random.default_rng(seed)
        self._targets: list[dict[str, Any]] = []
        self._image_seeds = rng.integers(0, 2**31 - 1, size=num_samples)
        for index in range(num_samples):
            object_count = int(rng.integers(1, max_objects + 1))
            boxes = []
            labels = []
            for _ in range(object_count):
                box_w = float(rng.uniform(width * 0.15, width * 0.4))
                box_h = float(rng.uniform(height * 0.15, height * 0.4))
                x1 = float(rng.uniform(0, width - box_w))
                y1 = float(rng.uniform(0, height - box_h))
                boxes.append([x1, y1, x1 + box_w, y1 + box_h])
                labels.append(int(rng.integers(0, num_classes)))
            self._targets.append(
                {
                    "boxes": np.asarray(boxes, dtype=np.float32),
                    "labels": np.asarray(labels, dtype=np.int64),
                    "image_id": index,
                    "file_name": f"synthetic_coco/images/{index:012d}.png",
                    "height": height,
                    "width": width,
                }
            )

    def __len__(self) -> int:
        return self.num_samples

    def __getitem__(self, index: int) -> tuple[np.ndarray, dict[str, Any]]:
        if not 0 <= index < self.num_samples:
            raise IndexError(f"index {index} out of range for dataset of size {self.num_samples}")
        target = self._targets[index]
        height, width = self.image_size
        rng = np.random.default_rng(int(self._image_seeds[index]))
        image = rng.normal(0.0, self.noise, size=(3, height, width)).astype(np.float32)
        # Paint every object as a bright class-coloured rectangle.
        for box, label in zip(target["boxes"], target["labels"]):
            x1, y1, x2, y2 = (int(v) for v in box)
            channel = int(label) % 3
            image[channel, y1:y2, x1:x2] += 1.5
            image[(channel + 1) % 3, y1:y2, x1:x2] += 0.5
        return image, self._copy_target(target)

    def _copy_target(self, target: dict[str, Any]) -> dict[str, Any]:
        copied = dict(target)
        copied["boxes"] = target["boxes"].copy()
        copied["labels"] = target["labels"].copy()
        return copied

    def metadata(self, index: int) -> dict:
        """Return CoCo-style image metadata for image ``index``."""
        target = self._targets[index]
        return {
            "image_id": target["image_id"],
            "file_name": target["file_name"],
            "height": target["height"],
            "width": target["width"],
        }

    def ground_truth(self) -> list[dict[str, Any]]:
        """Return (copies of) all targets, used by the evaluation pipeline."""
        return [self._copy_target(t) for t in self._targets]


def coco_annotations_to_json(dataset: CocoLikeDetectionDataset) -> dict:
    """Export the dataset annotations in the CoCo JSON schema.

    The returned dictionary has the standard ``images``, ``annotations`` and
    ``categories`` sections and can be serialised with :func:`json.dumps`.
    """
    images = []
    annotations = []
    annotation_id = 1
    targets = dataset.ground_truth()
    for index in range(len(dataset)):
        meta = dataset.metadata(index)
        images.append(
            {
                "id": meta["image_id"],
                "file_name": meta["file_name"],
                "height": meta["height"],
                "width": meta["width"],
            }
        )
        target = targets[index]
        for box, label in zip(target["boxes"], target["labels"]):
            x1, y1, x2, y2 = (float(v) for v in box)
            annotations.append(
                {
                    "id": annotation_id,
                    "image_id": meta["image_id"],
                    "category_id": int(label),
                    "bbox": [x1, y1, x2 - x1, y2 - y1],
                    "area": float((x2 - x1) * (y2 - y1)),
                    "iscrowd": 0,
                }
            )
            annotation_id += 1
    categories = [{"id": i, "name": f"class_{i}"} for i in range(dataset.num_classes)]
    document = {"images": images, "annotations": annotations, "categories": categories}
    # Round-trip through json to guarantee the document is serialisable.
    return json.loads(json.dumps(document))
