"""Integration tests for classification campaigns on in-memory objects."""

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import run_campaign
from repro.alficore import CampaignCore, ClassificationTask, default_scenario
from repro.alficore.protection import apply_protection, collect_activation_bounds
from repro.data import SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


class TestClassificationCampaign:
    def test_weight_campaign_end_to_end(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=3)
        result = run_campaign(
            "classification", model, dataset, scenario,
            model_name="lenet_weights", output_dir=tmp_path, num_faults=1, inj_policy="per_image",
        )
        corrupted = result.results["corrupted"]
        assert corrupted.num_inferences == len(dataset)
        assert corrupted.golden_top1_accuracy >= 0.9
        assert 0.0 <= corrupted.sde_rate <= 1.0
        assert corrupted.masked_rate + corrupted.sde_rate + corrupted.due_rate == pytest.approx(1.0)
        assert result.extras["golden_logits"].shape == result.extras["corrupted_logits"].shape

    def test_neuron_campaign(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", rnd_bit_range=(0, 31), random_seed=4)
        result = run_campaign(
            "classification", model, dataset, scenario, model_name="lenet_neurons", num_faults=1
        )
        assert result.results["corrupted"].num_inferences == len(dataset)
        # Every inference must have applied exactly one neuron fault.  The
        # sessions log per group; the injector's shared log must stay empty.
        assert len(result.state.applied_log) == len(dataset)
        assert result.wrapper.fault_injection.applied_faults == []

    def test_output_files_written(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=5)
        result = run_campaign(
            "classification", model, dataset, scenario,
            model_name="files", output_dir=tmp_path, num_faults=1,
        )
        for key in ("meta", "faults", "applied_faults", "golden_csv", "corrupted_csv", "kpis"):
            assert key in result.output_files
            assert Path(result.output_files[key]).exists()
        kpis = json.loads(Path(result.output_files["kpis"]).read_text())
        assert "corrupted" in kpis

    def test_corrupted_csv_contains_fault_positions(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=6)
        run_campaign(
            "classification", model, dataset, scenario,
            model_name="csvcheck", output_dir=tmp_path, num_faults=2,
        )
        from repro.alficore.results import iter_record_file

        rows = list(iter_record_file(tmp_path / "csvcheck_corrupted_results.csv"))
        assert len(rows) == len(dataset)
        positions = json.loads(rows[0]["fault_positions"])
        assert len(positions) == 2
        assert {"layer", "bit_position", "original_value", "corrupted_value"} <= set(positions[0])

    def test_resil_model_evaluated_under_same_faults(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        bounds = collect_activation_bounds(model, [calibration])
        hardened = apply_protection(model, bounds, "ranger")
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(30, 30), random_seed=7)
        result = run_campaign(
            "classification", model, dataset, scenario,
            resil_model=hardened, model_name="resil", num_faults=1,
        )
        corrupted, resil = result.results["corrupted"], result.results.get("resil")
        assert resil is not None
        assert result.extras["resil_logits"] is not None
        # Hardened model must not be worse overall (SDE + DUE) than the
        # unprotected one under identical exponent-MSB faults.
        unprotected_total = corrupted.sde_rate + corrupted.due_rate
        protected_total = resil.sde_rate + resil.due_rate
        assert protected_total <= unprotected_total + 1e-9

    def test_fault_file_reuse_produces_identical_outcomes(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=8)
        first = run_campaign(
            "classification", model, dataset, scenario,
            model_name="first", output_dir=tmp_path, num_faults=1,
        )
        second = run_campaign(
            "classification", model, dataset, scenario,
            model_name="second", num_faults=1, fault_file=first.output_files["faults"],
        )
        np.testing.assert_allclose(
            first.extras["corrupted_logits"], second.extras["corrupted_logits"]
        )

    def test_requires_dataset(self):
        with pytest.raises(ValueError):
            CampaignCore(lenet5(), None, ClassificationTask())

    def test_num_runs_multiplies_inferences(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=9)
        result = run_campaign(
            "classification", model, dataset, scenario,
            model_name="epochs", num_faults=1, num_runs=2,
        )
        assert result.results["corrupted"].num_inferences == 2 * len(dataset)
