"""Seeded golden passes: the head fit's features stand in for the backbone.

:func:`~repro.models.pretrained.fit_classifier_head` runs the whole backbone
over the calibration split and keeps, for the model object it fitted, the
final ``Linear``'s input per image (and whether every leaf row was finite).
A cache-less campaign on that object runs its golden passes as the prefix
its faulty passes need plus the head, from those features
(``CampaignCore.golden_seeded`` counts them).  The contract under test: every
result file is the bytes of the same campaign run with ``prefix_reuse=False``
(plain full forwards), whether the seeded pass ran or one of its fallbacks
did (``golden_seeded == 0``).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import run_campaign
from repro import nn
from repro.alficore import (
    CampaignCore,
    CampaignResultWriter,
    ClassificationTask,
    apply_protection,
    collect_activation_bounds,
    default_scenario,
    model_fingerprint,
)
from repro.alficore.goldencache import GoldenCache, head_features
from repro.alficore.monitoring import RangeMonitor
from repro.data import SyntheticClassificationDataset
from repro.models import build_model, lenet5
from repro.models.pretrained import fit_classifier_head

IMAGES = 16


def _dataset(images: int = IMAGES) -> SyntheticClassificationDataset:
    return SyntheticClassificationDataset(num_samples=images, num_classes=10, noise=0.25, seed=5)


def _scenario(target: str = "neurons", batch_size: int = 4, **overrides):
    settings = dict(
        injection_target=target, inj_policy="per_batch", batch_size=batch_size,
        rnd_bit_range=(23, 30), random_seed=29, num_runs=1, model_name="seeded",
    )
    settings.update(overrides)
    return default_scenario(**settings)


def _fitted(name: str = "lenet5", dataset=None):
    model = build_model(name, num_classes=10, seed=2)
    return fit_classifier_head(model, dataset if dataset is not None else _dataset(), 10)


def _result_files(result) -> dict[str, bytes]:
    """Every CSV / JSON result file of a campaign run, as ``{tag: bytes}``."""
    files = {
        tag: Path(path).read_bytes()
        for tag, path in result.output_files.items()
        if Path(path).suffix in (".csv", ".json")
    }
    assert "applied_faults" in files
    return files


def _both(model, dataset, scenario, tmp_path, **options):
    """Run a campaign seeding-capable and with ``prefix_reuse=False``; assert equal bytes."""
    results = {}
    for reuse in (True, False):
        results[reuse] = run_campaign(
            "classification", model, dataset, scenario, output_dir=tmp_path / str(reuse),
            prefix_reuse=reuse, **options,
        )
    seeded, full = results[True], results[False]
    assert _result_files(seeded) == _result_files(full)
    assert full.core.golden_seeded == 0
    return seeded


class TestTheFitKeepsItsFeatures:
    def test_one_finite_row_per_calibration_image(self):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        record = head_features(model)
        assert record.head is model.classifier[-1]
        assert len(record.features) == IMAGES
        assert record.fingerprint == model_fingerprint(model)

    def test_a_copy_of_the_model_has_none(self):
        import copy

        assert head_features(copy.deepcopy(_fitted())) is None

    def test_a_non_finite_feature_is_an_error_not_a_nan_head(self):
        model = lenet5(num_classes=10, seed=2)
        model.features[0].weight.data[0, 0, 0, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=f"{IMAGES} of {IMAGES} calibration images"):
                fit_classifier_head(model, _dataset(), 10)
        assert head_features(model) is None

    def test_an_image_with_an_inf_pixel_has_no_features(self):
        dataset = _WithInf(_dataset())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match=f"4 of {IMAGES} calibration images"):
                _fitted(dataset=dataset)


class TestSeededPassesKeepTheBytes:
    @pytest.mark.parametrize("batch_size", [4, 16])
    @pytest.mark.parametrize("name", ["resnet50", "vgg16", "lenet5"])
    def test_per_batch_neuron_campaign(self, name, batch_size, tmp_path):
        dataset = _dataset(2 * IMAGES)
        model = _fitted(name, dataset)
        seeded = _both(model, dataset, _scenario(batch_size=batch_size), tmp_path)
        # The first step checks the seeded pass against a full one.
        assert seeded.core.golden_seeded == 2 * IMAGES // batch_size - 1

    def test_weight_faults_per_image(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        seeded = _both(model, dataset, _scenario("weights", inj_policy="per_image"), tmp_path)
        assert seeded.core.golden_seeded == IMAGES - 1

    def test_a_shuffled_multi_epoch_campaign(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        seeded = _both(model, dataset, _scenario(num_runs=3), tmp_path, dl_shuffle=True)
        assert seeded.core.golden_seeded == 3 * 4 - 1

    def test_sharded_equals_serial(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        scenario = _scenario(num_runs=2)
        serial = run_campaign(
            "classification", model, dataset, scenario, output_dir=tmp_path / "serial"
        )
        assert serial.core.golden_seeded == 2 * 4 - 1
        sharded = run_campaign(
            "classification", model, dataset, scenario, output_dir=tmp_path / "sharded",
            workers=2, num_shards=3,
        )
        assert _result_files(sharded) == _result_files(serial)

    def test_every_run_checks_its_first_seeded_pass(self):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        result = run_campaign("classification", model, dataset, _scenario())
        core = result.core
        assert core.golden_seeded == 3
        core.run(0, 2)
        assert core.golden_seeded == 3 + 1


class TestFullGoldenFallbacks:
    def test_a_custom_monitor(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        files = {}
        for reuse in (True, False):
            writer = CampaignResultWriter(tmp_path / str(reuse), campaign_name="seeded")
            core = CampaignCore(
                model, dataset, ClassificationTask(), scenario=_scenario(), writer=writer,
                custom_monitors=[RangeMonitor(10.0)], prefix_reuse=reuse,
            )
            files[reuse] = {tag: Path(path).read_bytes() for tag, path in core.run().items()}
            assert core.golden_seeded == 0
        assert files[True] == files[False]

    def test_a_golden_cache(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        seeded = _both(model, dataset, _scenario(num_runs=2), tmp_path, golden_cache=GoldenCache())
        assert seeded.core.golden_seeded == 0

    def test_a_row_with_a_non_finite_value(self, tmp_path):
        # The leaf's -inf is gone by the head, so the fit succeeds; the
        # images it hit keep no features and their batches run in full.
        dataset = _dataset()
        model = fit_classifier_head(_InfInTheMiddle().eval(), dataset, 10)
        kept = len(head_features(model).features)
        assert 0 < kept < IMAGES
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            scenario = _scenario(batch_size=1, inj_policy="per_image")
            seeded = _both(model, dataset, scenario, tmp_path)
        assert seeded.core.golden_seeded == kept - 1

    def test_an_image_the_fit_never_saw(self, tmp_path):
        # Fitted on clean images; the campaign's images 0, 4, 8, 12 hold an
        # Inf pixel, so no batch is made of calibration images only.
        clean = _dataset()
        model = _fitted(dataset=clean)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            seeded = _both(model, _WithInf(clean), _scenario(), tmp_path)
        assert seeded.core.golden_seeded == 0

    def test_a_bn_running_mean_edited_after_the_fit(self, tmp_path):
        dataset = _dataset()
        model = _fitted("resnet18", dataset)
        model.stem[1].running_mean[0] += 0.5
        with warnings.catch_warnings():
            # The fingerprint turns seeding off before any pass: nothing to warn about.
            warnings.filterwarnings("error", ".*a golden pass seeded", RuntimeWarning)
            seeded = _both(model, dataset, _scenario(), tmp_path)
        assert seeded.core.golden_seeded == 0
        assert seeded.core.lanes[0].features is None

    def test_a_relu_swapped_in_place_warns_once(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        index = next(i for i, m in enumerate(model.features) if isinstance(m, nn.ReLU))
        fingerprint = model_fingerprint(model)
        model.features._modules[str(index)] = nn.LeakyReLU(0.5)
        assert model_fingerprint(model) == fingerprint
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seeded = _both(model, dataset, _scenario(num_runs=2), tmp_path)
        differs = [w for w in caught if "seeded with the head fit" in str(w.message)]
        assert len(differs) == 1 and differs[0].category is RuntimeWarning
        assert seeded.core.golden_seeded == 0
        assert seeded.core.lanes[0].verdicts["seed"] is False

    def test_the_resil_lane(self, tmp_path):
        dataset = _dataset()
        model = _fitted(dataset=dataset)
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        hardened = apply_protection(
            model, collect_activation_bounds(model, [calibration]), "ranger"
        )
        seeded = _both(model, dataset, _scenario(), tmp_path, resil_model=hardened)
        lanes = seeded.core.lanes
        assert lanes[0].features is not None and lanes[1].features is None
        # Only the model under test seeds: 3 of 4 steps.
        assert seeded.core.golden_seeded == 3


class _WithInf:
    """Every fourth image holds an Inf pixel."""

    def __init__(self, dataset):
        self.dataset = dataset

    def __len__(self):
        return len(self.dataset)

    def __getitem__(self, index):
        image, label = self.dataset[index]
        if index % 4 == 0:
            image = image.copy()
            image[0, 0, 0] = np.inf
        return image, label


class _NegInfWhereBright(nn.Module):
    """Writes -inf into the first value of every row where it is above 0.05."""

    def forward(self, x):
        out = x.copy()
        flat = out.reshape(len(out), -1)
        flat[flat[:, 0] > 0.05, 0] = -np.inf
        return out


class _InfInTheMiddle(nn.Module):
    """A leaf raises -inf on some images; the ReLU behind it clears it."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv = nn.Conv2d(3, 4, 3, rng=rng)
        self.mark = _NegInfWhereBright()
        self.relu = nn.ReLU()
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(4 * 30 * 30, 10, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.relu(self.mark(self.conv(x)))))

