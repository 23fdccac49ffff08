"""Unit tests for the result persistence layer (meta / fault / output files).

Every record file has one producer — a stream of
:class:`~repro.alficore.results.CampaignResultWriter` — and one reader,
:func:`~repro.alficore.results.iter_record_file`.  The stdlib
``csv.DictWriter`` and ``json.dumps`` are the byte references the streams are
checked against here.
"""

import csv
import io
import json

import numpy as np
import pytest
import yaml

from repro.alficore import CampaignResultWriter, FaultMatrix, default_scenario
from repro.alficore.results import (
    DetectionRecord,
    classification_cells,
    classification_fieldnames,
    fault_positions_cell,
    iter_record_file,
)


@pytest.fixture
def writer(tmp_path):
    return CampaignResultWriter(tmp_path, campaign_name="unit")


def _row(image_id, classes, probabilities, positions=(), nan=False, inf=False, tag="corrupted",
         file_name=None):
    """One classification row as the campaign tasks stream it."""
    return classification_cells(
        image_id, file_name or f"img_{image_id}.png", image_id % 3, tag, nan, inf,
        np.array(classes), np.array(probabilities), fault_positions_cell(list(positions)),
    )


@pytest.fixture
def sample_rows():
    return [
        _row(i, [0, 1, 2, 3, 4], [0.5, 0.2, 0.15, 0.1, 0.05],
             positions=[{"layer": 1, "bit_position": 30}], nan=(i == 2))
        for i in range(3)
    ]


def _dictwriter_bytes(rows):
    """The reference: the rows keyed by their header, through ``csv.DictWriter``."""
    if not rows:
        return b""
    fieldnames = classification_fieldnames(len(rows[0]))
    handle = io.StringIO(newline="")
    writer = csv.DictWriter(handle, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(dict(zip(fieldnames, row)) for row in rows)
    return handle.getvalue().encode("utf-8")


def _stream_rows(writer, tag, rows):
    with writer.stream_classification(tag=tag) as stream:
        for row in rows:
            stream.write(row)
    return stream


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
        assert FaultMatrix.load(path) == matrix

    def test_applied_faults_json(self, writer):
        with writer.stream_applied_faults() as stream:
            stream.write({"layer": 0, "original_value": np.float32(1.5), "bit_position": 30})
        data = list(iter_record_file(stream.path))
        assert data[0]["original_value"] == pytest.approx(1.5)


class TestClassificationCsv:
    def test_csv_columns(self, writer, sample_rows):
        stream = _stream_rows(writer, "corrupted", sample_rows)
        with open(stream.path, newline="") as handle:
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

    def test_fault_positions_embedded_as_json(self, writer, sample_rows):
        stream = _stream_rows(writer, "corrupted", sample_rows)
        rows = list(iter_record_file(stream.path))
        positions = json.loads(rows[0]["fault_positions"])
        assert positions[0]["bit_position"] == 30

    def test_empty_records_produce_empty_file(self, writer):
        stream = _stream_rows(writer, "golden", [])
        assert stream.path.exists()
        assert stream.path.read_text() == ""
        assert list(iter_record_file(stream.path)) == []

    def test_read_missing_tag_raises(self, writer):
        with pytest.raises(FileNotFoundError):
            next(iter_record_file(writer.output_dir / "unit_nothing_results.csv"))


class TestDetectionJson:
    def test_detection_json_round_trip(self, writer):
        record = DetectionRecord(
            image_id=0,
            file_name="img.png",
            boxes=[[0.0, 0.0, 5.0, 5.0]],
            scores=[0.9],
            labels=[2],
            nan_detected=False,
        )
        with writer.stream_detection(tag="corrupted") as stream:
            stream.write(record)
        loaded = list(iter_record_file(stream.path))
        assert loaded[0]["labels"] == [2]
        assert loaded[0]["model_tag"] == "corrupted"

    def test_ground_truth_json(self, writer):
        targets = [{"image_id": 0, "boxes": np.zeros((1, 4)), "labels": np.array([1])}]
        path = writer.write_ground_truth_json(targets)
        data = json.loads(path.read_text())
        assert data[0]["labels"] == [1]
        assert list(iter_record_file(path)) == data

    def test_kpi_summary_json(self, writer):
        path = writer.write_kpi_summary({"sde": np.float64(0.12), "nested": {"due": 0.01}})
        data = json.loads(path.read_text())
        assert data["sde"] == pytest.approx(0.12)
        assert data["nested"]["due"] == pytest.approx(0.01)

    def test_read_missing_detection_tag(self, writer):
        with pytest.raises(FileNotFoundError):
            next(iter_record_file(writer.output_dir / "unit_missing_results.json"))


class TestStreamingWriters:
    def test_streamed_csv_matches_the_dictwriter(self, writer, sample_rows):
        stream = _stream_rows(writer, "streamed", sample_rows)
        assert stream.num_records == len(sample_rows)
        assert stream.path.read_bytes() == _dictwriter_bytes(sample_rows)

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
        loaded = list(iter_record_file(stream.path))
        assert len(loaded) == 3
        assert loaded[0]["image_id"] == 0
        assert loaded == json.loads(stream.path.read_text())

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
    """Campaign tasks stream finished cell lists; the same rows keyed by their
    header through ``csv.DictWriter`` are the reference for their bytes."""

    @staticmethod
    def _rows():
        awkward = [{"layer_name": "a,b", "note": "say \"hi\"", "value": np.float32(0.5)}]
        return [
            _row(
                i, [4, 3, 2], [0.5, 0.25 + i / 7, 1e-12], positions=awkward if i else [],
                nan=bool(i % 2), inf=(i == 2), tag="resil",
                file_name=f"dir,with/comma_{i}.png",
            )
            for i in range(4)
        ]

    def test_streamed_cell_lists_match_the_dictwriter_bytes(self, writer):
        rows = self._rows()  # three classes: fewer than five rank columns
        cells = _stream_rows(writer, "cells", rows)
        header = cells.path.read_text().splitlines()[0]
        assert "top3_prob" in header and "top4_class" not in header
        assert cells.num_records == len(rows)
        assert cells.path.read_bytes() == _dictwriter_bytes(rows)
        assert list(iter_record_file(cells.path))[1]["fault_positions"] == json.dumps(
            [{"layer_name": "a,b", "note": "say \"hi\"", "value": 0.5}]
        )

    def test_zero_records_give_an_empty_file(self, writer):
        with writer.stream_classification(tag="none") as stream:
            pass
        assert stream.path.read_bytes() == b""

    def test_the_header_is_named_from_the_first_row(self, tmp_path):
        from repro.alficore.results import CsvRecordStream

        named = []

        def header(num_cells):
            named.append(num_cells)
            return [f"c{index}" for index in range(num_cells)]

        with CsvRecordStream(tmp_path / "rows.csv", header) as stream:
            stream.write([1, "x"])
            stream.write([2, "y"])
        assert named == [2]
        assert (tmp_path / "rows.csv").read_bytes() == b"c0,c1\r\n1,x\r\n2,y\r\n"

    def test_shard_merge_of_streamed_files_equals_one_stream(self, writer, tmp_path):
        from repro.alficore.results import merge_csv_files, merge_json_array_files

        rows = self._rows()
        faults = [json.loads(row[-1]) for row in rows] + [{"x": (1, np.int64(2))}]

        def stream(directory, rows, elements):
            shard = CampaignResultWriter(directory, campaign_name="unit")
            csv_stream = _stream_rows(shard, "m", rows)
            with shard.stream_applied_faults() as json_stream:
                for element in elements:
                    json_stream.write(element)
            return csv_stream.path, json_stream.path

        single_csv, single_json = stream(tmp_path / "single", rows, faults)
        parts = [
            stream(tmp_path / f"shard_{index}", part_rows, elements)
            for index, (part_rows, elements) in enumerate(
                [(rows[:1], faults[:2]), ([], []), (rows[1:], faults[2:])]
            )
        ]
        merged_csv = merge_csv_files([part[0] for part in parts], tmp_path / "merged.csv")
        merged_json = merge_json_array_files([part[1] for part in parts], tmp_path / "merged.json")
        assert merged_csv.read_bytes() == single_csv.read_bytes()
        assert merged_json.read_bytes() == single_json.read_bytes()
