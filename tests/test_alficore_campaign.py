"""Integration tests for the clone-free streaming campaign engine."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest

import repro.alficore.campaign as campaign_package
from benchmarks.conftest import run_campaign, run_streaming
from repro.alficore import CampaignCore, CampaignResultWriter, ClassificationTask, default_scenario
from repro.alficore.campaign import ClassificationState, DetectionState, core, sharded, tasks
from repro.data import SyntheticClassificationDataset
from repro.eval.sdc import FaultOutcome
from repro.experiments import CampaignResult
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


class TestStreamingCampaign:
    def test_weight_campaign_restores_model_bit_exactly(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=3)
        result = run_streaming(model, dataset, scenario)
        assert result.state.inferences == len(dataset)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_rates_sum_to_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=4)
        result = run_streaming(model, dataset, scenario)
        kpis = result.results["corrupted"]
        assert kpis.masked_rate + kpis.sde_rate + kpis.due_rate == pytest.approx(1.0)
        assert kpis.golden_top1_accuracy >= 0.9
        assert sum(result.state.outcomes.values()) == kpis.num_inferences

    def test_neuron_campaign_applies_one_fault_per_inference(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=6)
        result = run_streaming(model, dataset, scenario)
        assert result.state.groups == len(dataset)
        assert result.state.applied_faults == len(dataset)
        # Shared injector log stays empty: records are collected per group.
        assert result.wrapper.fault_injection.applied_faults == []

    def test_streams_written_and_readable(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", max_faults_per_image=2, random_seed=7, model_name="stream"
        )
        writer = CampaignResultWriter(tmp_path, campaign_name="stream")
        result = run_streaming(model, dataset, scenario, writer=writer)
        for key in ("meta", "faults", "applied_faults", "golden_csv", "corrupted_csv", "kpis"):
            assert key in result.output_files

        corrupted_rows = writer.read_classification_csv("corrupted")
        golden_rows = writer.read_classification_csv("golden")
        assert len(corrupted_rows) == len(golden_rows) == len(dataset)
        positions = json.loads(corrupted_rows[0]["fault_positions"])
        assert len(positions) == 2
        assert {"layer", "bit_position", "original_value", "corrupted_value"} <= set(positions[0])

        applied = json.loads((tmp_path / "stream_applied_faults.json").read_text())
        assert len(applied) == 2 * len(dataset)
        kpis = json.loads((tmp_path / "stream_summary_kpis.json").read_text())
        assert kpis["corrupted"]["num_inferences"] == len(dataset)

    def test_streaming_kpis_match_buffered_campaign(self, fitted_model_and_dataset):
        """Counters alone must reproduce the KPIs evaluated from the logits."""
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=8)
        buffered = run_campaign(
            "classification", model, dataset, scenario, model_name="buffered", num_faults=1
        ).results["corrupted"]
        streamed = run_streaming(model, dataset, scenario).results["corrupted"]
        assert streamed.num_inferences == buffered.num_inferences
        assert streamed.masked_rate == pytest.approx(buffered.masked_rate)
        assert streamed.sde_rate == pytest.approx(buffered.sde_rate)
        assert streamed.due_rate == pytest.approx(buffered.due_rate)
        assert streamed.corrupted_top1_accuracy == pytest.approx(buffered.corrupted_top1_accuracy)

    @pytest.mark.parametrize("policy,expected_groups", [("per_batch", 6), ("per_epoch", 2)])
    def test_batch_and_epoch_policies(self, fitted_model_and_dataset, policy, expected_groups):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights",
            inj_policy=policy,
            batch_size=4,
            num_runs=2,
            random_seed=9,
        )
        result = run_streaming(model, dataset, scenario)
        assert result.state.inferences == 2 * len(dataset)
        assert result.state.groups == expected_groups

    def test_per_image_forces_batch_size_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", batch_size=4, random_seed=10)
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        assert core.scenario.batch_size == 1
        assert core.scenario.dataset_size == len(dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            CampaignCore(lenet5(seed=0), [], ClassificationTask())

    def test_result_as_dict_round_trips_json(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        result = run_streaming(
            model, dataset, default_scenario(injection_target="weights", random_seed=11)
        )
        blob = json.dumps(result.as_dict())
        assert isinstance(json.loads(blob), dict)
        assert isinstance(result, CampaignResult)


class TestPackageSplit:
    """``repro.alficore.campaign`` became a package of three modules: bytes
    and import paths from before the split must not notice."""

    @pytest.mark.parametrize("state", [
        ClassificationState(
            inferences=3, groups=3, applied_faults=3, golden_top1_hits=2,
            outcomes=Counter({FaultOutcome.MASKED: 2, FaultOutcome.SDE: 1}),
            labels=[4, 0, 7], due_flags=[False, False, True], applied_log=[{"layer": 1}],
        ),
        DetectionState(
            inferences=2, groups=2, applied_faults=4, due_flags=[True, False],
            golden_predictions=[{"labels": [1]}, {"labels": []}], applied_log=[{"layer": 0}],
        ),
    ], ids=["classification", "detection"])
    def test_state_pickled_before_the_split_loads_to_an_equal_state(self, state):
        # What --resume of a run interrupted before the upgrade and
        # StoredPoint.load_result() on an older store unpickle.  Protocol 2
        # names a class as plain "module\nname\n", so the path can be rewritten.
        blob = pickle.dumps(state, protocol=2)
        defined_in = type(state).__module__.encode()
        assert defined_in == b"repro.alficore.campaign.tasks" and defined_in in blob
        legacy = blob.replace(defined_in, b"repro.alficore.campaign")
        loaded = pickle.loads(legacy)
        assert type(loaded) is type(state) and loaded == state

    def test_every_exported_name_is_its_submodules_object(self):
        for name in campaign_package.__all__:
            exported = getattr(campaign_package, name)
            owners = [m for m in (tasks, core, sharded) if m.__name__ == exported.__module__]
            assert len(owners) == 1, name
            assert getattr(owners[0], name) is exported
