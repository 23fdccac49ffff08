"""Sample-sparse faulty passes: a neuron group runs only the rows it faults.

Row *i* of a batched forward is the forward of sample *i* alone
(``tests/test_nn_batch_invariance.py``), so a neuron fault group's faulty
pass runs the batch rows its faults name as a sub-batch and takes every other
row from the golden pass.  The contract under test: every result file and
the applied-fault stream are the bytes of the same campaign run with
``prefix_reuse=False`` (plain full forwards of the whole batch), whether the
sparse pass ran (``CampaignCore.rows_skipped > 0``) or one of its fallbacks
did (``rows_skipped == 0``).
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
)
from repro.alficore.faultmatrix import FaultMatrix
from repro.alficore.goldencache import GoldenCache
from repro.alficore.monitoring import RangeMonitor
from repro.alficore.wrapper import ptfiwrap
from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.models import build_model, lenet5
from repro.models.detection import yolov3_tiny
from repro.models.pretrained import fit_classifier_head

IMAGES = 20


def _dataset(images: int = IMAGES) -> SyntheticClassificationDataset:
    return SyntheticClassificationDataset(num_samples=images, num_classes=10, noise=0.25, seed=3)


def _scenario(target: str = "neurons", batch_size: int = 4, **overrides):
    settings = dict(
        injection_target=target, inj_policy="per_batch", batch_size=batch_size,
        rnd_bit_range=(23, 30), random_seed=71, num_runs=2, model_name="sparse",
    )
    settings.update(overrides)
    return default_scenario(**settings)


def _result_files(result) -> dict[str, bytes]:
    """Every CSV / JSON result file of a campaign run, as ``{tag: bytes}``."""
    files = {
        tag: Path(path).read_bytes()
        for tag, path in result.output_files.items()
        if Path(path).suffix in (".csv", ".json")
    }
    assert "applied_faults" in files
    return files


def _both(task, model, dataset, scenario, tmp_path, **options):
    """Run a campaign sparse-capable and with ``prefix_reuse=False``; assert equal bytes."""
    results = {}
    for reuse in (True, False):
        results[reuse] = run_campaign(
            task, model, dataset, scenario, output_dir=tmp_path / str(reuse),
            prefix_reuse=reuse, **options,
        )
    sparse, full = results[True], results[False]
    assert _result_files(sparse) == _result_files(full)
    assert full.core.rows_skipped == 0
    return sparse


def _core_files(model, dataset, scenario, out, *, prefix_reuse, matrix=None, **core):
    """Run a :class:`CampaignCore` directly; its stream files as ``{tag: bytes}``."""
    wrapper = None
    if matrix is not None:
        wrapper = ptfiwrap(model, scenario=scenario, fault_matrix=matrix)
    writer = CampaignResultWriter(out, campaign_name="sparse")
    campaign = CampaignCore(
        model, dataset, ClassificationTask(), scenario=scenario, writer=writer,
        wrapper=wrapper, prefix_reuse=prefix_reuse, **core,
    )
    paths = campaign.run()
    return campaign, {tag: Path(path).read_bytes() for tag, path in paths.items()}


def _core_both(model, dataset, scenario, tmp_path, **core):
    sparse, files = _core_files(model, dataset, scenario, tmp_path / "sparse", prefix_reuse=True, **core)
    _, reference = _core_files(model, dataset, scenario, tmp_path / "full", prefix_reuse=False, **core)
    assert files == reference
    return sparse


def _matrix_with_rows(model, scenario, rows_per_group) -> FaultMatrix:
    """The scenario's neuron fault matrix, with each group's batch rows set."""
    generated = ptfiwrap(model, scenario=scenario).get_fault_matrix()
    matrix = generated.matrix.copy()
    width = scenario.max_faults_per_image
    for group in range(matrix.shape[1] // width):
        matrix[0, group * width : (group + 1) * width] = rows_per_group(group)
    return FaultMatrix(matrix, "neurons", generated.metadata)


@pytest.fixture(scope="module")
def fitted_lenet():
    return fit_classifier_head(lenet5(num_classes=10, seed=1), _dataset(), 10)


class _Noise:
    """Draws the corrupted value at apply time, from the group's rng."""

    name = "noise"

    def corrupt(self, original, rng):
        return original + float(rng.normal()) * 1e3, {"bit_position": None, "flip_direction": None}


class TestSparsePassesKeepTheBytes:
    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    @pytest.mark.parametrize("name", ["lenet5", "resnet18"])
    def test_per_batch_neuron_campaign(self, name, batch_size, tmp_path):
        model = build_model(name, num_classes=10, seed=1).eval()
        sparse = _both("classification", model, _dataset(), _scenario(batch_size=batch_size), tmp_path)
        if batch_size == 1:
            assert sparse.core.rows_skipped == 0
        else:
            assert sparse.core.rows_skipped > 0

    @pytest.mark.parametrize("rows", [(2, 2), (0, 3)], ids=["one_row", "two_rows"])
    def test_two_faults_in_one_or_two_rows(self, fitted_lenet, rows, tmp_path):
        scenario = _scenario(max_faults_per_image=2, dataset_size=IMAGES)
        matrix = _matrix_with_rows(fitted_lenet, scenario, lambda group: rows)
        sparse = _core_both(fitted_lenet, _dataset(), scenario, tmp_path, matrix=matrix)
        # 10 steps of 4 images; the first one checks row invariance at full width.
        assert sparse.rows_skipped == 9 * (4 - len(set(rows)))

    def test_a_short_last_batch_without_the_faulted_row(self, fitted_lenet, tmp_path):
        dataset = _dataset(18)  # batches of 4, 4, 4, 4, 2
        scenario = _scenario(dataset_size=18)
        matrix = _matrix_with_rows(fitted_lenet, scenario, lambda group: 3)
        sparse = _core_both(fitted_lenet, dataset, scenario, tmp_path, matrix=matrix)
        # The short batches lack row 3: no fault applies and nothing is skipped.
        assert sparse.rows_skipped == 7 * 3

    def test_a_deep_layer_fault_resumes_from_checkpoint_rows(self, fitted_lenet, tmp_path):
        scenario = _scenario(layer_range=[3, 4], dataset_size=IMAGES)
        sparse = _core_both(fitted_lenet, _dataset(), scenario, tmp_path)
        plan, wrapper = sparse.lanes[0].plan, sparse.wrapper
        assert plan.segment_for(wrapper.fault_injection.layers[3].name) > 0
        assert sparse.rows_skipped > 0

    def test_cached_golden_checkpoints_serve_their_rows(self, fitted_lenet, tmp_path):
        # Two epochs: the second one's golden passes are cache hits.
        scenario = _scenario(layer_range=[3, 4])
        cache = GoldenCache()
        cached = run_campaign(
            "classification", fitted_lenet, _dataset(), scenario,
            output_dir=tmp_path / "cached", golden_cache=cache,
        )
        assert cache.hits > 0 and cached.core.rows_skipped > 0
        full = run_campaign(
            "classification", fitted_lenet, _dataset(), scenario,
            output_dir=tmp_path / "full", prefix_reuse=False,
        )
        assert _result_files(cached) == _result_files(full)

    def test_resil_lane(self, fitted_lenet, tmp_path):
        dataset = _dataset()
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        hardened = apply_protection(
            fitted_lenet, collect_activation_bounds(fitted_lenet, [calibration]), "ranger"
        )
        sparse = _both(
            "classification", fitted_lenet, dataset, _scenario(), tmp_path, resil_model=hardened
        )
        assert "resil_csv" in sparse.output_files
        # Both lanes skip: 9 of 10 steps after the check, 3 rows each.
        assert sparse.core.rows_skipped == 2 * 9 * 3

    def test_a_stochastic_error_model_draws_the_same_values(self, fitted_lenet, tmp_path):
        sparse = _core_both(fitted_lenet, _dataset(), _scenario(), tmp_path, error_model=_Noise())
        assert sparse.rows_skipped > 0

    def test_yolov3_splices_lists_of_detections(self, tmp_path):
        dataset = CocoLikeDetectionDataset(num_samples=8, num_classes=5, seed=6)
        model = yolov3_tiny(num_classes=5, seed=0).eval()
        sparse = _both("detection", model, dataset, _scenario(rnd_bit_range=(30, 30)), tmp_path)
        assert sparse.core.rows_skipped > 0
        # Some spliced rows differ from their golden detections.
        golden, corrupted = (
            sparse.extras[f"{side}_predictions"] for side in ("golden", "corrupted")
        )
        assert any(
            np.asarray(g["boxes"]).tobytes() != np.asarray(c["boxes"]).tobytes()
            for g, c in zip(golden, corrupted)
        )


class TestFullBatchFallbacks:
    def test_a_custom_monitor_sees_the_whole_batch(self, fitted_lenet, tmp_path):
        sparse = _core_both(
            fitted_lenet, _dataset(), _scenario(), tmp_path, custom_monitors=[RangeMonitor(10.0)]
        )
        assert sparse.rows_skipped == 0

    def test_a_golden_pass_that_holds_an_inf(self, fitted_lenet, tmp_path):
        class WithInf:
            """Batches 0, 2 and 4 of 4 images start with an image holding an Inf pixel."""

            def __init__(self, dataset):
                self.dataset = dataset

            def __len__(self):
                return len(self.dataset)

            def __getitem__(self, index):
                image, label = self.dataset[index]
                if index % 8 == 0:
                    image = image.copy()
                    image[0, 0, 0] = np.inf
                return image, label

        scenario = _scenario(dataset_size=IMAGES)
        matrix = _matrix_with_rows(fitted_lenet, scenario, lambda group: 2)
        sparse = _core_both(fitted_lenet, WithInf(_dataset()), scenario, tmp_path, matrix=matrix)
        # Only batches 1 and 3 of either epoch skip rows; the first of them
        # checks row invariance at full width.
        assert sparse.rows_skipped == 3 * 3

    def test_weight_faults(self, fitted_lenet, tmp_path):
        sparse = _both("classification", fitted_lenet, _dataset(), _scenario("weights"), tmp_path)
        assert sparse.core.rows_skipped == 0


class _BatchCentered(nn.Module):
    """Subtracts the batch mean, a cross-sample op, while ``mix`` is set."""

    def __init__(self, mix: bool):
        super().__init__()
        self.mix = mix

    def forward(self, x):
        return x - x.mean(axis=0, keepdims=True) if self.mix else x


class _MixingNet(nn.Module):
    def __init__(self, mix: bool = True):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv = nn.Conv2d(3, 4, 3, rng=rng)
        self.center = _BatchCentered(mix)
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(4 * 30 * 30, 10, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.center(self.conv(x))))


def test_a_model_that_mixes_rows_warns_once_and_keeps_its_bytes(tmp_path):
    model = _MixingNet().eval()
    scenario = _scenario(layer_range=[0, 0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sparse = _core_both(model, _dataset(), scenario, tmp_path)
    mixing = [w for w in caught if "mixes the samples" in str(w.message)]
    assert len(mixing) == 1 and mixing[0].category is RuntimeWarning
    assert "_MixingNet" in str(mixing[0].message)
    assert sparse.rows_skipped == 0
    assert sparse.lanes[0].verdicts["rows"] is False


def test_a_model_that_starts_mixing_rows_between_runs_is_checked_again(tmp_path):
    # Each run checks its first sparse pass: a model changed between two
    # runs of one core must not keep the row shortcut the first run proved.
    scenario = _scenario(layer_range=[0, 0])
    files, cores = {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for reuse in (True, False):
            model = _MixingNet(mix=False).eval()
            writer = CampaignResultWriter(tmp_path / str(reuse), campaign_name="sparse")
            core = CampaignCore(
                model, _dataset(), ClassificationTask(), scenario=scenario, writer=writer,
                prefix_reuse=reuse,
            )
            runs = []
            for start, stop in ((0, 5), (5, 10)):
                paths = core.run(start, stop)
                runs.append({tag: Path(path).read_bytes() for tag, path in paths.items()})
                model.center.mix = True
            files[reuse], cores[reuse] = runs, core
    assert files[True] == files[False]
    mixing = [w for w in caught if "mixes the samples" in str(w.message)]
    assert len(mixing) == 1 and mixing[0].category is RuntimeWarning
    sparse = cores[True]
    # The first run skipped rows; the second one's check failed at its first
    # step, which turned sparse rows and stacks off for the rest of the run.
    assert sparse.rows_skipped == 4 * 3
    assert sparse.lanes[0].verdicts == {"rows": False}


class _InfFirst:
    """The dataset with an Inf pixel in its first image."""

    def __init__(self, dataset):
        self.dataset = dataset

    def __len__(self):
        return len(self.dataset)

    def __getitem__(self, index):
        image, label = self.dataset[index]
        if index == 0:
            image = image.copy()
            image[0, 0, 0] = np.inf
        return image, label


@pytest.mark.parametrize("mix", [True, False])
def test_a_shared_stochastic_group_is_replayed_from_each_steps_state(tmp_path, mix):
    # A per-epoch neuron group is entered by every step of its epoch and draws
    # its corruptions from one generator.  A step run again alone (the rows
    # check of a stacked block and, on a model that mixes rows, every step of
    # that block) must draw what the step drew, and leave the generator as
    # the block left it.  The first step's golden pass holds an Inf, so it
    # runs the plain pass and takes no shortcut: the first check is that of
    # the stacked block of the eight steps behind it.
    scenario = _scenario(layer_range=[0, 0], inj_policy="per_epoch", batch_size=2)
    alone = CampaignCore._alone
    checked = []

    def spy(self, lane, item, kinds, golden):
        checked.append((item.step.index, frozenset(kinds)))
        return alone(self, lane, item, kinds, golden)

    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        patch.setattr(CampaignCore, "_alone", spy)
        sparse = _core_both(
            _MixingNet(mix).eval(), _InfFirst(_dataset()), scenario, tmp_path,
            error_model=_Noise(),
        )
    # The check runs one step of the block again; if it failed, so do the
    # seven others.  Both runs of the pair are logged: only the first checks.
    assert [step for step, _ in checked] == ([1] + list(range(2, 9)) if mix else [1])
    assert {kinds for _, kinds in checked} == {frozenset({"rows"})}
    assert sparse.lanes[0].verdicts == {"rows": not mix}
    warned = [w for w in caught if "mixes the samples" in str(w.message)]
    assert len(warned) == int(mix)
    assert all(w.category is RuntimeWarning for w in warned)
    assert (sparse.rows_skipped > 0) is not mix
