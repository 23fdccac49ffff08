"""Unit tests for the campaign post-processing (analysis) module."""

import json

import pytest

from benchmarks.conftest import run_campaign
from repro.alficore import (
    analyze_classification_campaign,
    analyze_detection_campaign,
    compare_campaigns,
    default_scenario,
)
from repro.alficore.results import (
    CampaignResultWriter,
    DetectionRecord,
    classification_cells,
    fault_positions_cell,
)
from repro.data import SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head


def _write_synthetic_classification_campaign(tmp_path, name="camp"):
    """Hand-craft a small campaign directory with known outcomes."""
    writer = CampaignResultWriter(tmp_path, campaign_name=name)

    def record(image_id, top1, fault_bit, fault_layer, nan=False, tag="corrupted"):
        return classification_cells(
            image_id, f"img_{image_id}.png", 0, tag, nan, False,
            [top1, (top1 + 1) % 5, (top1 + 2) % 5, (top1 + 3) % 5, (top1 + 4) % 5],
            [0.6, 0.2, 0.1, 0.05, 0.05],
            fault_positions_cell(
                [{"layer": fault_layer, "bit_position": fault_bit, "flip_direction": "0->1"}]
            ),
        )

    golden = [record(i, top1=0, fault_bit=0, fault_layer=0, tag="golden") for i in range(4)]
    corrupted = [
        record(0, top1=0, fault_bit=10, fault_layer=0),          # masked
        record(1, top1=1, fault_bit=30, fault_layer=1),          # SDE
        record(2, top1=0, fault_bit=30, fault_layer=1, nan=True),  # DUE
        record(3, top1=0, fault_bit=10, fault_layer=0),          # masked
    ]
    _stream(writer.stream_classification("golden"), golden)
    _stream(writer.stream_classification("corrupted"), corrupted)
    return writer


def _stream(stream, records):
    with stream:
        for record in records:
            stream.write(record)


class TestClassificationAnalysis:
    def test_rates_from_known_outcomes(self, tmp_path):
        _write_synthetic_classification_campaign(tmp_path)
        analysis = analyze_classification_campaign(tmp_path, "camp")
        assert analysis.num_inferences == 4
        assert analysis.masked_rate == pytest.approx(0.5)
        assert analysis.sde_rate == pytest.approx(0.25)
        assert analysis.due_rate == pytest.approx(0.25)
        assert analysis.corrupted_image_ids == [1, 2]

    def test_per_bit_and_per_layer_breakdown(self, tmp_path):
        _write_synthetic_classification_campaign(tmp_path)
        analysis = analyze_classification_campaign(tmp_path, "camp")
        # Bit 10 faults were always masked; bit 30 faults always corrupted.
        assert analysis.sde_by_bit[10] == 0.0
        assert analysis.sde_by_bit[30] == 1.0
        assert analysis.sde_by_layer[0] == 0.0
        assert analysis.sde_by_layer[1] == 1.0

    def test_flip_direction_counts(self, tmp_path):
        _write_synthetic_classification_campaign(tmp_path)
        analysis = analyze_classification_campaign(tmp_path, "camp")
        assert analysis.flip_direction_counts == {"0->1": 4}

    def test_as_dict_serialisable(self, tmp_path):
        _write_synthetic_classification_campaign(tmp_path)
        analysis = analyze_classification_campaign(tmp_path, "camp")
        json.dumps(analysis.as_dict())

    def test_missing_campaign_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            analyze_classification_campaign(tmp_path, "nothing")

    def test_files_of_different_lengths_raise(self, tmp_path):
        writer = _write_synthetic_classification_campaign(tmp_path)
        _stream(writer.stream_classification("golden"), [])
        with pytest.raises(ValueError, match="different row counts"):
            analyze_classification_campaign(tmp_path, "camp")

    def test_analysis_of_real_campaign_matches_kpis(self, tmp_path):
        """Post-processing a real campaign must match the on-line KPIs."""
        dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=17)
        model = fit_classifier_head(lenet5(seed=3), dataset, 10)
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=31)
        corrupted = run_campaign(
            "classification", model, dataset, scenario,
            model_name="real", output_dir=tmp_path, num_faults=1,
        ).results["corrupted"]
        analysis = analyze_classification_campaign(tmp_path, "real")
        assert analysis.num_inferences == corrupted.num_inferences
        assert analysis.sde_rate == pytest.approx(corrupted.sde_rate)
        assert analysis.due_rate == pytest.approx(corrupted.due_rate)


class TestDetectionAnalysis:
    def _write_detection_campaign(self, tmp_path, name="det"):
        writer = CampaignResultWriter(tmp_path, campaign_name=name)
        targets = [
            {"image_id": 0, "file_name": "a.png", "boxes": [[0, 0, 10, 10]], "labels": [1]},
            {"image_id": 1, "file_name": "b.png", "boxes": [[5, 5, 20, 20]], "labels": [2]},
        ]
        writer.write_ground_truth_json(targets)

        def det_record(image_id, boxes, scores, labels, nan=False, tag="corrupted", positions=None):
            return DetectionRecord(
                image_id=image_id,
                file_name=f"{image_id}.png",
                boxes=boxes,
                scores=scores,
                labels=labels,
                fault_positions=positions or [],
                nan_detected=nan,
                model_tag=tag,
            )

        golden = [
            det_record(0, [[0, 0, 10, 10]], [0.9], [1], tag="golden"),
            det_record(1, [[5, 5, 20, 20]], [0.9], [2], tag="golden"),
        ]
        corrupted = [
            # image 0: lost its true positive -> SDE
            det_record(0, [], [], [], positions=[{"layer": 2, "bit_position": 30, "flip_direction": "0->1"}]),
            # image 1: unchanged -> masked
            det_record(1, [[5, 5, 20, 20]], [0.9], [2], positions=[{"layer": 0, "bit_position": 5, "flip_direction": "1->0"}]),
        ]
        _stream(writer.stream_detection("golden"), golden)
        _stream(writer.stream_detection("corrupted"), corrupted)
        return writer

    def test_detection_rates(self, tmp_path):
        self._write_detection_campaign(tmp_path)
        analysis = analyze_detection_campaign(tmp_path, "det")
        assert analysis.num_inferences == 2
        assert analysis.sde_rate == pytest.approx(0.5)
        assert analysis.due_rate == 0.0
        assert analysis.corrupted_image_ids == [0]
        assert analysis.sde_by_bit[30] == 1.0
        assert analysis.sde_by_bit[5] == 0.0

    def test_missing_ground_truth_raises(self, tmp_path):
        writer = CampaignResultWriter(tmp_path, campaign_name="nogt")
        _stream(writer.stream_detection("golden"), [])
        _stream(writer.stream_detection("corrupted"), [])
        with pytest.raises(FileNotFoundError):
            analyze_detection_campaign(tmp_path, "nogt")

    def test_files_of_different_lengths_raise(self, tmp_path):
        writer = self._write_detection_campaign(tmp_path)
        _stream(writer.stream_detection("golden"), [])
        with pytest.raises(ValueError, match="not aligned"):
            analyze_detection_campaign(tmp_path, "det")


class TestCompareCampaigns:
    def test_comparison_rows(self, tmp_path):
        _write_synthetic_classification_campaign(tmp_path, name="a")
        _write_synthetic_classification_campaign(tmp_path, name="b")
        analyses = [
            analyze_classification_campaign(tmp_path, "a"),
            analyze_classification_campaign(tmp_path, "b"),
        ]
        rows = compare_campaigns(analyses)
        assert len(rows) == 2
        assert rows[0]["campaign"] == "a"
        assert rows[0]["most vulnerable bit"] == 30
        assert rows[0]["most vulnerable layer"] == 1
