"""Batch geometry is not in the result bits.

``repro.nn.functional.conv2d`` issues one GEMM per sample (and group) and
``linear`` one product per row, each exactly the call a batch of one issues;
everything else in a registry forward was per-sample already.  So row *i* of
``model(x)`` is ``model(x[i : i + 1])`` bit for bit, and the per-image
verdicts of a campaign do not depend on ``scenario.batch_size``.  This file
pins that contract at four levels: every registry model, generated
``conv2d`` / ``linear`` geometries, whole campaigns, and the fitted
classifier head.

NaN *positions* are part of the contract, NaN payload bits are not (see
``tests/test_nn_kernels_differential.py``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticClassificationDataset
from repro.experiments import Experiment, run
from repro.experiments.registry import MODELS
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.nn import functional as F
from repro.nn.forward_plan import _bitwise_equal
from tests.oracles.kernels_v0 import per_sample
from tests.test_nn_forward_plan import PLAN_SEGMENTS
from tests.test_nn_kernels_differential import _relayout, _values, assert_same_bits


# --------------------------------------------------------------------------- #
# (i) every registry model
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(PLAN_SEGMENTS))
def test_a_row_of_a_batched_forward_is_the_forward_of_that_sample(name):
    detector = MODELS.metadata(name)["kind"] == "detector"
    side = 64 if detector else 32
    # Random weights score low; a low threshold gives every image boxes.
    model = MODELS.get(name)(seed=0, **({"score_threshold": 0.05} if detector else {})).eval()
    x = np.random.default_rng(0).normal(size=(16, 3, side, side)).astype(np.float32)
    alone = [model(x[i : i + 1]) for i in range(16)]
    if detector:
        assert all(len(detections[0].boxes) for detections in alone)
    for batch in (2, 5, 16):
        together = model(x[:batch])
        for i in range(batch):
            assert _bitwise_equal(together[i : i + 1], alone[i]), f"{name}: row {i} of batch {batch}"


# --------------------------------------------------------------------------- #
# (ii) generated conv2d / linear geometries
# --------------------------------------------------------------------------- #
@st.composite
def conv_cases(draw):
    groups = draw(st.sampled_from([1, 2, 3, "depthwise"]))
    in_per_group = draw(st.integers(1, 3))
    if groups == "depthwise":
        groups, in_per_group = draw(st.integers(1, 6)), 1
    kernel = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    return {
        "n": draw(st.integers(1, 16)),
        "groups": groups,
        "channels": groups * in_per_group,
        "out_channels": groups * draw(st.integers(1, 3)),
        "kernel": kernel,
        "stride": (draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        "padding": (draw(st.integers(0, 3)), draw(st.integers(0, 3))),
        "size": (kernel[0] + draw(st.integers(0, 9)), kernel[1] + draw(st.integers(0, 9))),
        "special": draw(st.booleans()),
        "bias": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@given(case=conv_cases())
@settings(max_examples=150, deadline=None)
def test_conv2d_rows_are_the_per_sample_calls(case):
    rng = np.random.default_rng(case["seed"])
    kh, kw = case["kernel"]
    special = case["special"]
    x = _relayout(rng, _values(rng, (case["n"], case["channels"], *case["size"]), special))
    weight = _relayout(
        rng, _values(rng, (case["out_channels"], case["channels"] // case["groups"], kh, kw), special)
    )
    bias = _values(rng, (case["out_channels"],), special=False) if case["bias"] else None
    arguments = (weight, bias, case["stride"], case["padding"], case["groups"])
    with np.errstate(invalid="ignore"):
        together = F.conv2d(x, *arguments)
        alone = per_sample(F.conv2d)(x, *arguments)
    assert together.flags.c_contiguous
    assert_same_bits(together, alone, f"{case} x strides {x.strides} w strides {weight.strides}")


@given(
    n=st.integers(1, 16),
    features=st.integers(1, 300),
    out_features=st.integers(1, 40),
    special=st.booleans(),
    with_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_linear_rows_are_the_per_sample_calls(n, features, out_features, special, with_bias, seed):
    rng = np.random.default_rng(seed)
    x = _relayout(rng, _values(rng, (n, features), special))
    weight = _relayout(rng, _values(rng, (out_features, features), special))
    bias = _values(rng, (out_features,), special=False) if with_bias else None
    with np.errstate(invalid="ignore"):
        together = F.linear(x, weight, bias)
        alone = per_sample(F.linear)(x, weight, bias)
    assert_same_bits(together, alone, f"x{x.shape} strides {x.strides} w strides {weight.strides}")


# --------------------------------------------------------------------------- #
# (iii) whole campaigns
# --------------------------------------------------------------------------- #
IMAGES = 16
BATCH_SIZES = (1, 4, 16)


def _campaign_files(model, target, policy, batch_size, output_dir) -> dict[str, bytes]:
    """Run one campaign; its CSV / JSON result files as ``{tag: bytes}``."""
    spec = (
        Experiment.builder()
        .name(model)
        .model(model, num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=IMAGES, num_classes=10, noise=0.25, seed=1)
        .scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=1234, model_name=model,
            dataset_size=IMAGES, num_runs=2, inj_policy=policy, batch_size=batch_size,
        )
        .output_dir(output_dir)
        .build()
    )
    files = {
        tag: Path(path).read_bytes()
        for tag, path in run(spec).output_files.items()
        if Path(path).suffix in (".csv", ".json")
    }
    assert {"golden_csv", "corrupted_csv"} <= set(files)
    return files


@pytest.mark.parametrize("policy", ["per_image", "per_batch", "per_epoch"])
@pytest.mark.parametrize("target", ["weights", "neurons"])
@pytest.mark.parametrize("model", ["lenet5", "resnet18"])
def test_campaign_verdicts_do_not_depend_on_the_batch_size(model, target, policy, tmp_path):
    files = {
        batch_size: _campaign_files(model, target, policy, batch_size, tmp_path / str(batch_size))
        for batch_size in BATCH_SIZES
    }
    # Which fault meets which image is the policy's business and in general a
    # function of the batch size; the fault-free half of every record never
    # is.  Two cases pair faults and images the same way at every batch size
    # -- one weight fault group for the whole epoch, and ``per_image``, which
    # runs at batch 1 whatever the scenario says -- and there the corrupted
    # records, applied faults and KPIs are the same bytes too.
    every_file = (target, policy) == ("weights", "per_epoch") or policy == "per_image"
    for batch_size in BATCH_SIZES[1:]:
        assert files[batch_size]["golden_csv"] == files[1]["golden_csv"], batch_size
        if every_file:
            assert sorted(files[batch_size]) == sorted(files[1])
            for tag, content in files[1].items():
                assert files[batch_size][tag] == content, (batch_size, tag)


# --------------------------------------------------------------------------- #
# (iv) the fitted head
# --------------------------------------------------------------------------- #
def test_the_fitted_head_does_not_depend_on_the_extraction_batch_size():
    dataset = SyntheticClassificationDataset(num_samples=40, num_classes=10, noise=0.25, seed=1)
    heads = []
    for batch_size in (1, 16):
        model = fit_classifier_head(lenet5(num_classes=10, seed=0), dataset, 10, batch_size=batch_size)
        heads.append([p.data.tobytes() for _, p in model.named_parameters()])
    assert heads[0] == heads[1]
