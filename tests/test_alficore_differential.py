"""Campaign differential: the engine against its naive reference path.

Every result file of a campaign run by the default engine (plans, stacked
blocks, tail reuse, sample-sparse rows, seeded golden passes and, over
several epochs, a golden cache) must equal, byte for byte, the files of the
same campaign run with ``prefix_reuse: false, golden_cache_mb: 0``: one
full golden and one full faulty forward per step.  The grid
covers the injection target, the policy and batch size, one or three
epochs, and a shuffled dataset, on two models; the ``(model, dl_shuffle)``
pairs rotate over the grid so that each pair meets every other axis value
while the grid stays within tier-1 time.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.experiments import Experiment, run

IMAGES = 12

# per_image campaigns always run at batch size 1.
POLICIES = [
    ("per_image", 1), ("per_batch", 1), ("per_batch", 4), ("per_epoch", 1), ("per_epoch", 4),
]
ROTATION = [("alexnet", False), ("resnet18", True), ("resnet18", False), ("alexnet", True)]
GRID = [
    (target, policy, batch_size, num_runs, *ROTATION[index % len(ROTATION)])
    for index, (target, (policy, batch_size), num_runs) in enumerate(
        itertools.product(["weights", "neurons"], POLICIES, [1, 3])
    )
]


def _spec(model, target, policy, batch_size, num_runs, shuffle, out, naive):
    builder = (
        Experiment.builder()
        .name("differential")
        .task("classification")
        .model(model, num_classes=10, seed=0)
        .dataset(
            "synthetic-classification", num_samples=IMAGES, num_classes=10, noise=0.25, seed=5
        )
        .scenario(
            injection_target=target, inj_policy=policy, batch_size=batch_size,
            num_runs=num_runs, rnd_bit_range=(23, 30), random_seed=70,
            model_name="differential", dataset_size=IMAGES,
        )
        .shuffle(shuffle)
        .output_dir(out)
    )
    if naive:
        builder.caching(prefix_reuse=False, golden_cache_mb=0)
    elif num_runs > 1:
        builder.caching(golden_cache_mb=64)
    return builder.build()


def _files(result) -> dict[str, bytes]:
    """Every result file except the meta file, which records the caching knobs."""
    return {
        tag: Path(path).read_bytes()
        for tag, path in result.output_files.items()
        if tag != "meta"
    }


@pytest.mark.parametrize("target, policy, batch_size, num_runs, model, shuffle", GRID)
def test_engine_writes_the_naive_bytes(
    tmp_path, target, policy, batch_size, num_runs, model, shuffle
):
    case = (model, target, policy, batch_size, num_runs, shuffle)
    naive = run(_spec(*case, tmp_path / "naive", naive=True))
    engine = run(_spec(*case, tmp_path / "engine", naive=False))
    files = _files(engine)
    assert {"golden_csv", "corrupted_csv", "applied_faults", "kpis"} <= set(files)
    assert files == _files(naive)
    assert engine.state.inferences == num_runs * IMAGES
