"""Integration tests for object-detection campaigns on in-memory objects."""

import json
from pathlib import Path

import pytest

from benchmarks.conftest import run_campaign
from repro.alficore import CampaignCore, DetectionTask, default_scenario
from repro.data import CocoLikeDetectionDataset
from repro.models.detection import yolov3_tiny


@pytest.fixture(scope="module")
def detection_setup():
    dataset = CocoLikeDetectionDataset(num_samples=6, num_classes=5, seed=3)
    model = yolov3_tiny(num_classes=5, seed=0).eval()
    return model, dataset


class TestObjDetCampaign:
    def test_weight_campaign_end_to_end(self, detection_setup, tmp_path):
        model, dataset = detection_setup
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=2)
        result = run_campaign(
            "detection", model, dataset, scenario,
            model_name="yolo_weights", output_dir=tmp_path, num_faults=1, inj_policy="per_image",
        )
        corrupted = result.results["corrupted"]
        assert corrupted.num_images == len(dataset)
        assert 0.0 <= corrupted.ivmod.sde_rate <= 1.0
        assert 0.0 <= corrupted.ivmod.due_rate <= 1.0
        assert len(result.extras["golden_predictions"]) == len(dataset)
        assert len(result.extras["corrupted_predictions"]) == len(dataset)

    def test_neuron_campaign(self, detection_setup):
        model, dataset = detection_setup
        scenario = default_scenario(injection_target="neurons", random_seed=4)
        result = run_campaign(
            "detection", model, dataset, scenario, model_name="yolo_neurons", num_faults=1
        )
        assert result.results["corrupted"].num_images == len(dataset)
        # The sessions log per group; the injector's shared log stays empty.
        assert len(result.state.applied_log) == len(dataset)
        assert result.wrapper.fault_injection.applied_faults == []

    def test_output_files_written(self, detection_setup, tmp_path):
        model, dataset = detection_setup
        scenario = default_scenario(injection_target="weights", random_seed=5)
        result = run_campaign(
            "detection", model, dataset, scenario,
            model_name="files", output_dir=tmp_path, num_faults=1,
        )
        for key in ("meta", "faults", "ground_truth", "golden_json", "corrupted_json", "kpis"):
            assert key in result.output_files
            assert Path(result.output_files[key]).exists()
        corrupted = json.loads(Path(result.output_files["corrupted_json"]).read_text())
        assert len(corrupted) == len(dataset)
        assert {"boxes", "scores", "labels", "fault_positions"} <= set(corrupted[0])

    def test_ground_truth_file_matches_dataset(self, detection_setup, tmp_path):
        model, dataset = detection_setup
        scenario = default_scenario(injection_target="weights", random_seed=6)
        result = run_campaign(
            "detection", model, dataset, scenario,
            model_name="gt", output_dir=tmp_path, num_faults=1,
        )
        ground_truth = json.loads(Path(result.output_files["ground_truth"]).read_text())
        assert len(ground_truth) == len(dataset)
        assert ground_truth[0]["image_id"] == 0
        assert len(ground_truth[0]["boxes"][0]) == 4

    def test_resil_detector(self, detection_setup):
        model, dataset = detection_setup
        # A different detector of the same layer structure would not replay
        # faults meaningfully, so the hardened model here is simply a clone.
        resil = model.clone()
        scenario = default_scenario(injection_target="weights", random_seed=7)
        result = run_campaign(
            "detection", model, dataset, scenario,
            resil_model=resil, model_name="resil", num_faults=1,
        )
        assert result.results.get("resil") is not None
        assert result.extras["resil_predictions"] is not None

    def test_num_classes_detection(self, detection_setup):
        model, dataset = detection_setup
        result = run_campaign("detection", model, dataset, default_scenario())
        assert result.context["num_classes"] == 5

    def test_requires_dataset(self):
        with pytest.raises(ValueError):
            CampaignCore(yolov3_tiny(), None, DetectionTask())
