"""Unit tests for the result persistence layer (meta / fault / output files)."""

import csv
import json

import numpy as np
import pytest
import yaml

from repro.alficore import CampaignResultWriter, FaultMatrix, default_scenario, load_fault_file
from repro.alficore.results import ClassificationRecord, DetectionRecord


@pytest.fixture
def writer(tmp_path):
    return CampaignResultWriter(tmp_path, campaign_name="unit")


@pytest.fixture
def sample_classification_records():
    return [
        ClassificationRecord(
            image_id=i,
            file_name=f"img_{i}.png",
            ground_truth=i % 3,
            top5_classes=[0, 1, 2, 3, 4],
            top5_probabilities=[0.5, 0.2, 0.15, 0.1, 0.05],
            fault_positions=[{"layer": 1, "bit_position": 30}],
            nan_detected=(i == 2),
        )
        for i in range(3)
    ]


class TestMetaFiles:
    def test_meta_yaml_round_trips(self, writer):
        scenario = default_scenario(dataset_size=5, model_name="vgg16")
        path = writer.write_meta(scenario, extra={"note": "unit-test", "count": np.int64(3)})
        with open(path) as handle:
            document = yaml.safe_load(handle)
        assert document["scenario"]["dataset_size"] == 5
        assert document["run_info"]["note"] == "unit-test"
        assert document["run_info"]["count"] == 3
        assert document["campaign_name"] == "unit"


class TestFaultFiles:
    def test_fault_matrix_written_and_reloadable(self, writer):
        matrix = FaultMatrix(np.arange(14).reshape(7, 2).astype(float), "neurons", {"x": 1})
        path = writer.write_fault_matrix(matrix)
        assert load_fault_file(path) == matrix

    def test_applied_faults_json(self, writer):
        applied = [{"layer": 0, "original_value": np.float32(1.5), "bit_position": 30}]
        path = writer.write_applied_faults(applied)
        data = json.loads(path.read_text())
        assert data[0]["original_value"] == pytest.approx(1.5)


class TestClassificationCsv:
    def test_csv_columns(self, writer, sample_classification_records):
        path = writer.write_classification_csv(sample_classification_records, tag="corrupted")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        expected_columns = {
            "image_id",
            "file_name",
            "ground_truth",
            "model_tag",
            "nan_detected",
            "inf_detected",
            "fault_positions",
        } | {f"top{i}_class" for i in range(1, 6)} | {f"top{i}_prob" for i in range(1, 6)}
        assert expected_columns <= set(rows[0])

    def test_fault_positions_embedded_as_json(self, writer, sample_classification_records):
        writer.write_classification_csv(sample_classification_records)
        rows = writer.read_classification_csv()
        positions = json.loads(rows[0]["fault_positions"])
        assert positions[0]["bit_position"] == 30

    def test_empty_records_produce_empty_file(self, writer, tmp_path):
        path = writer.write_classification_csv([], tag="golden")
        assert path.exists()
        assert path.read_text() == ""

    def test_read_missing_tag_raises(self, writer):
        with pytest.raises(FileNotFoundError):
            writer.read_classification_csv(tag="nothing")


class TestDetectionJson:
    def test_detection_json_round_trip(self, writer):
        records = [
            DetectionRecord(
                image_id=0,
                file_name="img.png",
                boxes=[[0.0, 0.0, 5.0, 5.0]],
                scores=[0.9],
                labels=[2],
                nan_detected=False,
            )
        ]
        writer.write_detection_json(records, tag="corrupted")
        loaded = writer.read_detection_json(tag="corrupted")
        assert loaded[0]["labels"] == [2]
        assert loaded[0]["model_tag"] == "corrupted"

    def test_ground_truth_json(self, writer):
        targets = [{"image_id": 0, "boxes": np.zeros((1, 4)), "labels": np.array([1])}]
        path = writer.write_ground_truth_json(targets)
        data = json.loads(path.read_text())
        assert data[0]["labels"] == [1]

    def test_kpi_summary_json(self, writer):
        path = writer.write_kpi_summary({"sde": np.float64(0.12), "nested": {"due": 0.01}})
        data = json.loads(path.read_text())
        assert data["sde"] == pytest.approx(0.12)
        assert data["nested"]["due"] == pytest.approx(0.01)

    def test_read_missing_detection_tag(self, writer):
        with pytest.raises(FileNotFoundError):
            writer.read_detection_json(tag="missing")


class TestStreamingWriters:
    def test_streamed_csv_matches_batch_writer(self, writer, sample_classification_records, tmp_path):
        batch_path = writer.write_classification_csv(sample_classification_records, tag="batch")
        with writer.stream_classification(tag="streamed") as stream:
            for record in sample_classification_records:
                stream.write(record)
        assert stream.num_records == len(sample_classification_records)
        streamed_rows = writer.read_classification_csv("streamed")
        batch_rows = writer.read_classification_csv("batch")
        assert streamed_rows == batch_rows
        assert batch_path.read_text().splitlines()[0] == \
            (writer.output_dir / "unit_streamed_results.csv").read_text().splitlines()[0]

    def test_streamed_csv_empty_produces_empty_file(self, writer):
        with writer.stream_classification(tag="nothing"):
            pass
        path = writer.output_dir / "unit_nothing_results.csv"
        assert path.exists()
        assert path.read_text() == ""

    def test_streamed_detection_json_readable(self, writer):
        records = [
            DetectionRecord(
                image_id=i,
                file_name=f"img_{i}.png",
                boxes=[[0.0, 0.0, 1.0, 1.0]],
                scores=[0.5],
                labels=[1],
            )
            for i in range(3)
        ]
        with writer.stream_detection(tag="streamed") as stream:
            for record in records:
                stream.write(record)
        loaded = writer.read_detection_json("streamed")
        assert len(loaded) == 3
        assert loaded[0]["image_id"] == 0

    def test_streamed_empty_json_is_valid(self, writer):
        with writer.stream_applied_faults():
            pass
        path = writer.output_dir / "unit_applied_faults.json"
        assert json.loads(path.read_text()) == []

    def test_streamed_applied_faults_handles_numpy_types(self, writer):
        with writer.stream_applied_faults() as stream:
            stream.write({"layer": np.int64(3), "original_value": np.float32(0.25)})
        loaded = json.loads((writer.output_dir / "unit_applied_faults.json").read_text())
        assert loaded == [{"layer": 3, "original_value": 0.25}]


class TestIndentedJsonWriter:
    """``dumps_indented`` replaced ``json.dumps(_to_plain(x), indent=2,
    default=_json_default)`` in ``JsonArrayStream.write``; the bytes may not move."""

    CASES = 400

    @staticmethod
    def _reference(value):
        from repro.alficore.results import _json_default, _to_plain

        return json.dumps(_to_plain(value), indent=2, default=_json_default)

    @classmethod
    def _leaf(cls, rng):
        from pathlib import Path

        leaves = [
            None, True, False, 0, -7, 2**70, 0.0, -0.0, 1.5, 1e-320, 1e308, 0.1 + 0.2,
            float("nan"), float("inf"), float("-inf"),
            "", "plain", "quote\" back\\slash", "tab\tnew\nline\x00\x1f", "ünï©ødé ☃ \U0001f600",
            np.float32(0.1), np.float64(-2.5e-7), np.float32("nan"), np.float64("inf"),
            np.int64(-3), np.uint8(255), np.bool_(True),
            np.arange(3), np.zeros((2, 0)), np.array([[1.5, np.nan], [np.inf, -0.0]], np.float32),
            np.array(4.0), np.array([True, False]), Path("some") / "file.png",
            [], {}, (), object.__new__(_Opaque),
        ]
        return leaves[int(rng.integers(len(leaves)))]

    @classmethod
    def _nesting(cls, rng, depth=0):
        kind = rng.random()
        if depth >= 4 or kind < 0.4:
            return cls._leaf(rng)
        size = int(rng.integers(0, 4))
        if kind < 0.6:
            return [cls._nesting(rng, depth + 1) for _ in range(size)]
        if kind < 0.7:
            return tuple(cls._nesting(rng, depth + 1) for _ in range(size))
        keys = ["k", "key with \"quote\"", "ü", "", "x\ny"]
        return {keys[int(rng.integers(len(keys)))] + str(i): cls._nesting(rng, depth + 1)
                for i in range(size)}

    def test_seeded_random_nestings_are_byte_identical(self):
        from repro.alficore.results import dumps_indented

        rng = np.random.default_rng(16)
        for case in range(self.CASES):
            value = self._nesting(rng)
            assert dumps_indented(value) == self._reference(value), (case, value)

    @pytest.mark.parametrize("keyed", [
        {1: "int key"}, {1.5: "float key"}, {None: 0, True: 1}, {"nested": [{2: {"deep": 1}}]},
    ])
    def test_non_string_keys_fall_back_to_the_stdlib_encoder(self, keyed):
        from repro.alficore.results import dumps_indented

        assert dumps_indented(keyed) == self._reference(keyed)
        with pytest.raises(TypeError):
            dumps_indented({np.int64(1): "numpy key"})  # as the stdlib always did

    def test_applied_fault_and_detection_records(self, writer):
        from repro.alficore.results import dumps_indented

        fault = {
            "target": "weight", "layer": np.int64(10), "layer_name": "features.24",
            "coordinates": [10, 31, 50, -1, 1, 2], "bit_position": 23,
            "original_value": np.float32(0.0258), "corrupted_value": float("nan"),
            "flip_direction": "1->0",
        }
        record = DetectionRecord(
            image_id=3, file_name="a/b.png", boxes=[[0.0, 1.5, 2.0, 3.25]], scores=[0.5],
            labels=[2], fault_positions=[fault], nan_detected=True,
        )
        for value in (fault, record.as_dict()):
            assert dumps_indented(value) == self._reference(value)
        with writer.stream_detection(tag="one") as stream:
            stream.write(record)
        text = (writer.output_dir / "unit_one_results.json").read_text()
        assert text == "[\n" + self._reference(record.as_dict()) + "\n]"


class _Opaque:
    def __str__(self):
        return "opaque \"thing\""


class TestCellListRows:
    """Campaign tasks stream finished cell lists; ``ClassificationRecord`` ->
    ``DictWriter`` (the batch writer) is the reference for their bytes."""

    @staticmethod
    def _records():
        awkward = [{"layer_name": "a,b", "note": "say \"hi\"", "value": np.float32(0.5)}]
        return [
            ClassificationRecord(
                image_id=i, file_name=f"dir,with/comma_{i}.png", ground_truth=i % 3,
                top5_classes=[4, 3, 2], top5_probabilities=[0.5, 0.25 + i / 7, 1e-12],
                fault_positions=awkward if i else [], nan_detected=bool(i % 2),
                inf_detected=(i == 2), model_tag="resil",
            )
            for i in range(4)
        ]

    @staticmethod
    def _cells(record):
        from repro.alficore.results import classification_cells, fault_positions_cell

        return classification_cells(
            record.image_id, record.file_name, record.ground_truth, record.model_tag,
            record.nan_detected, record.inf_detected,
            np.array(record.top5_classes), np.array(record.top5_probabilities),
            fault_positions_cell(record.fault_positions),
        )

    def test_streamed_cell_lists_match_the_dictwriter_bytes(self, writer):
        records = self._records()  # three classes: fewer than five rank columns
        batch = writer.write_classification_csv(records, tag="batch")
        header = batch.read_text().splitlines()[0]
        assert "top3_prob" in header and "top4_class" not in header
        with writer.stream_classification(tag="cells") as cells:
            for record in records:
                cells.write(self._cells(record))
        with writer.stream_classification(tag="records") as keyed:
            for record in records:
                keyed.write(record)
        assert cells.num_records == len(records)
        assert cells.path.read_bytes() == keyed.path.read_bytes() == batch.read_bytes()
        assert writer.read_classification_csv("cells")[1]["fault_positions"] == json.dumps(
            [{"layer_name": "a,b", "note": "say \"hi\"", "value": 0.5}]
        )

    def test_zero_records_give_an_empty_file(self, writer):
        with writer.stream_classification(tag="none") as stream:
            pass
        assert stream.path.read_bytes() == b""
        assert writer.write_classification_csv([], tag="batch_none").read_bytes() == b""

    def test_keyed_records_keep_the_dictwriter_rules(self, tmp_path):
        from repro.alficore.results import CsvRecordStream

        with CsvRecordStream(tmp_path / "rows.csv") as stream:
            stream.write({"a": 1, "b": "x"})
            stream.write({"b": "only b"})  # a missing key leaves its cell empty
            with pytest.raises(ValueError, match="not in the header"):
                stream.write({"a": 2, "c": 3})
            with pytest.raises(ValueError, match="fieldnames"):
                CsvRecordStream(tmp_path / "bare.csv").write([1, 2])
        assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n1,x\r\n,only b\r\n"

    def test_shard_merge_of_streamed_files_equals_one_stream(self, writer, tmp_path):
        from repro.alficore.results import merge_csv_files, merge_json_array_files

        records = self._records()
        faults = [record.fault_positions for record in records] + [{"x": (1, np.int64(2))}]

        def stream(directory, rows, elements):
            shard = CampaignResultWriter(directory, campaign_name="unit")
            with shard.stream_classification(tag="m") as csv_stream:
                for record in rows:
                    csv_stream.write(self._cells(record))
            with shard.stream_applied_faults() as json_stream:
                for element in elements:
                    json_stream.write(element)
            return csv_stream.path, json_stream.path

        single_csv, single_json = stream(tmp_path / "single", records, faults)
        parts = [
            stream(tmp_path / f"shard_{index}", rows, elements)
            for index, (rows, elements) in enumerate(
                [(records[:1], faults[:2]), ([], []), (records[1:], faults[2:])]
            )
        ]
        merged_csv = merge_csv_files([part[0] for part in parts], tmp_path / "merged.csv")
        merged_json = merge_json_array_files([part[1] for part in parts], tmp_path / "merged.json")
        assert merged_csv.read_bytes() == single_csv.read_bytes()
        assert merged_json.read_bytes() == single_json.read_bytes()
