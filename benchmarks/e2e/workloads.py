"""The four workloads: sizes, reasons, and the spec file each one hands the program.

An *op* is one golden+faulty inference pair whose record reached the
``corrupted`` result stream.  Sizes are stated at scale 1.0 (about 2 s per
campaign on the 2-core reference box, so that a 15 s run holds 6-9 repeats);
``--smoke`` runs a quarter of that.  Every spec leaves ``execution.executor``,
``caching.prefix_reuse`` and all unnamed knobs at their defaults, so a change
of a default shows up here without editing the benchmark.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import yaml


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``images`` is the dataset size at scale 1.0, ``multiple`` the granularity
    sizes are rounded to (a whole batch, one image per shard), and
    ``ops_per_image`` how many records one image contributes (epochs or grid
    points).
    """

    name: str
    why: str
    images: int
    ops_per_image: int
    multiple: int = 1

    def sized(self, scale: float) -> int:
        """Dataset size at ``scale``, at least one ``multiple``."""
        steps = max(1, round(self.images * scale / self.multiple))
        return max(2, steps * self.multiple)

    def ops(self, images: int) -> int:
        """Ops one campaign (or sweep) of ``images`` images attempts."""
        return images * self.ops_per_image


SWEEP_BITS = [[bit, bit] for bit in range(23, 31)]
SWEEP_TARGETS = ["weights", "neurons"]

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cls_weights_cached",
            "vgg16 weight flips at batch 1 over 6 epochs with a golden cache: cache hits, "
            "suffix-only resume, monitors, patch sessions and CSV streaming carry the time",
            images=120,
            ops_per_image=6,
        ),
        Workload(
            "cls_neurons_batched",
            "resnet50 first-layer neuron flips at batch 16, one epoch: no prefix, no cache, "
            "both lanes full forwards, so nn.functional kernels and the head fit carry the time",
            images=128,
            ops_per_image=1,
            multiple=16,
        ),
        Workload(
            "det_weights_sharded",
            "yolov3 detection weight flips on 4 shards and 2 workers: full module forwards, "
            "JSON records, supervisor, slowest shard, shard merge and detection eval",
            images=360,
            ops_per_image=1,
            multiple=4,
        ),
        Workload(
            "sweep_bitpos_grid",
            "run_sweep on alexnet, 8 exponent bits x weights/neurons = 16 points into a fresh "
            "store: per-point fixed costs and 16x recomputed golden passes carry the time",
            images=20,
            ops_per_image=len(SWEEP_BITS) * len(SWEEP_TARGETS),
        ),
    )
}


def _scenario(seed: int, **overrides) -> dict:
    scenario = {
        "injection_target": "weights",
        "inj_policy": "per_image",
        "batch_size": 1,
        "max_faults_per_image": 1,
        "num_runs": 1,
        "rnd_bit_range": [23, 30],
        "random_seed": 2000 + seed,
    }
    scenario.update(overrides)
    return scenario


def _classification(model: str, images: int, seed: int) -> dict:
    # Model seeds stay fixed; only the dataset and the fault draw follow --seed.
    return {
        "task": "classification",
        "model": {"name": model, "params": {"num_classes": 10, "seed": 0}},
        "dataset": {
            "name": "synthetic-classification",
            "params": {"num_samples": images, "num_classes": 10, "seed": 1000 + seed},
        },
    }


def spec_document(name: str, images: int, seed: int, workdir: Path, oracle: bool = False) -> dict:
    """The spec of workload ``name``; ``oracle`` selects the naive reference path."""
    if name == "cls_weights_cached":
        document = _classification("vgg16", images, seed)
        document["scenario"] = _scenario(seed, num_runs=6)
        document["caching"] = {"golden_cache_mb": 512}
    elif name == "cls_neurons_batched":
        document = _classification("resnet50", images, seed)
        document["scenario"] = _scenario(
            seed,
            injection_target="neurons",
            inj_policy="per_batch",
            batch_size=16,
            layer_range=[0, 0],
        )
    elif name == "det_weights_sharded":
        document = {
            "task": "detection",
            "model": {"name": "yolov3", "params": {"num_classes": 5, "seed": 1}},
            "dataset": {
                "name": "synthetic-coco",
                "params": {"num_samples": images, "num_classes": 5, "seed": 1000 + seed},
            },
            "scenario": _scenario(seed),
            "backend": {
                "name": "sharded",
                "workers": min(2, os.cpu_count() or 1),
                "num_shards": 4,
            },
        }
    elif name == "sweep_bitpos_grid":
        document = _classification("alexnet", images, seed)
        document["scenario"] = _scenario(seed)
        document["sweep"] = {
            "axes": {
                "scenario.rnd_bit_range": SWEEP_BITS,
                "scenario.injection_target": SWEEP_TARGETS,
            },
            "store": str(workdir / "store"),
        }
    else:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    document["name"] = name
    document["output_dir"] = str(workdir / "output")
    if oracle:
        # The repo's contract is byte identity with this path.
        document["caching"] = {"prefix_reuse": False, "golden_cache_mb": 0}
        document["execution"] = {"executor": "module"}
        document["backend"] = {"name": "serial"}
    return document


def materialise(name: str, images: int, seed: int, workdir: Path, oracle: bool = False) -> Path:
    """Write the workload's spec file into ``workdir`` and return its path."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "spec.yml"
    path.write_text(yaml.safe_dump(spec_document(name, images, seed, workdir, oracle)))
    return path
