"""Result persistence.

A PyTorchALFI run produces up to three sets of outputs (Section V-B):

a) **meta-files** — a ``scenario.yml`` holding every run-time parameter of
   the campaign plus pointers to the model and data loader used;
b) **fault files** — binary files with the pre-generated fault locations and,
   after the run, the applied bit-flip directions and original/corrupted
   values of the targeted neurons/weights (plus monitored NaN/Inf events);
c) **model outputs** — CSV files for classification models (top-5 classes
   and probabilities together with ground truth and fault positions) and
   JSON files for object detection models (predicted boxes, scores, classes
   per image), with the fault-free ("golden") outputs stored separately.

:class:`CampaignResultWriter` bundles these writers behind one object so the
high-level test classes only have to hand over records.

Each record file has one producer and one reader.  The ``stream_*`` methods
return incremental writers (:class:`CsvRecordStream` /
:class:`JsonArrayStream`) that append one record at a time as the campaign
produces it, so campaign memory stays bounded by the batch size instead of
the dataset size; :func:`merge_record_files` concatenates the streams of
campaign slices byte for byte.  :func:`iter_record_file` reads any record
file back, one record at a time.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Sequence

import numpy as np
import yaml

from repro.alficore.codec import _to_plain
from repro.alficore.faultmatrix import FaultMatrix
from repro.alficore.scenario import ScenarioConfig


def classification_fieldnames(num_cells: int) -> list[str]:
    """Header of a classification CSV whose rows hold ``num_cells`` cells."""
    names = ["image_id", "file_name", "ground_truth", "model_tag", "nan_detected", "inf_detected"]
    for rank in range(1, (num_cells - len(names) - 1) // 2 + 1):
        names += (f"top{rank}_class", f"top{rank}_prob")
    names.append("fault_positions")
    return names


def fault_positions_cell(fault_positions: list[dict]) -> str:
    """The ``fault_positions`` cell: the applied faults of the row as compact JSON."""
    return json.dumps(fault_positions, default=_json_default)


def classification_cells(
    image_id: int,
    file_name: str,
    ground_truth: int,
    model_tag: str,
    nan_detected: bool,
    inf_detected: bool,
    classes: Sequence,
    probabilities: Sequence,
    fault_positions: str,
) -> list:
    """Cells of one classification CSV row, in :func:`classification_fieldnames` order.

    The one place a row is laid out: the campaign tasks stream these lists
    through :meth:`CampaignResultWriter.stream_classification`.
    ``classes`` / ``probabilities`` are the top-k pair of the image (equal
    length, any int / float sequence), ``fault_positions`` the finished cell
    (:func:`fault_positions_cell`).
    """
    cells = [image_id, file_name, ground_truth, model_tag, int(nan_detected), int(inf_detected)]
    for cls, prob in zip(classes, probabilities):
        cells += (int(cls), float(prob))
    cells.append(fault_positions)
    return cells


@dataclass
class DetectionRecord:
    """Per-image detection results destined for the JSON output files."""

    image_id: int
    file_name: str
    boxes: list[list[float]]
    scores: list[float]
    labels: list[int]
    fault_positions: list[dict] = field(default_factory=list)
    nan_detected: bool = False
    inf_detected: bool = False
    model_tag: str = "corrupted"

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "image_id": self.image_id,
            "file_name": self.file_name,
            "boxes": self.boxes,
            "scores": self.scores,
            "labels": self.labels,
            "fault_positions": self.fault_positions,
            "nan_detected": self.nan_detected,
            "inf_detected": self.inf_detected,
            "model_tag": self.model_tag,
        }


def _json_default(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


#: The one csv writer that formats the rows of every :class:`CsvRecordStream`:
#: a ``csv.writer`` keeps a record buffer of tens of KiB, and a campaign group
#: keeps a stream per point and record kind open at once.
_ROW = io.StringIO()
_ROW_WRITER = csv.writer(_ROW)


def _csv_row(cells: Sequence) -> str:
    """``cells`` as one CSV line, terminator included."""
    _ROW.seek(0)
    _ROW.truncate()
    _ROW_WRITER.writerow(cells)
    return _ROW.getvalue()


class CsvRecordStream:
    """Incrementally write CSV rows (one record at a time).

    The header is written with the first row; closing without having written
    any row produces an empty file.

    Args:
        path: the CSV file.
        fieldnames: the function naming the columns of a row from its cell
            count (e.g. :func:`classification_fieldnames`).
    """

    def __init__(self, path: str | Path, fieldnames: Callable[[int], list[str]]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = None
        self._fieldnames = fieldnames
        self.num_records = 0

    def write(self, cells: list) -> None:
        """Append one finished row: its cells in column order."""
        if self._handle is None:
            self._handle = open(self.path, "w", newline="", encoding="utf-8")
            self._handle.write(_csv_row(self._fieldnames(len(cells))))
        self._handle.write(_csv_row(cells))
        self.num_records += 1

    def close(self) -> None:
        """Flush and close the file (writes an empty file if no records)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        elif self.num_records == 0:
            self.path.write_text("")

    def __enter__(self) -> "CsvRecordStream":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


class JsonArrayStream:
    """Incrementally write a JSON array (one element at a time)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = None
        self.num_records = 0

    def write(self, record: Any) -> None:
        """Append one element (anything with ``as_dict()``, or JSON-able)."""
        if hasattr(record, "as_dict"):
            record = record.as_dict()
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
            self._handle.write("[\n")
        else:
            self._handle.write(",\n")
        self._handle.write(dumps_indented(record))
        self.num_records += 1

    def close(self) -> None:
        """Terminate the array and close the file (``[]`` if no records)."""
        if self._handle is not None:
            self._handle.write("\n]")
            self._handle.close()
            self._handle = None
        elif self.num_records == 0:
            self.path.write_text("[]")

    def __enter__(self) -> "JsonArrayStream":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()


_MERGE_CHUNK_BYTES = 1 << 20


def _copy_bytes(src: IO[bytes], out: IO[bytes], remaining: int) -> None:
    while remaining > 0:
        chunk = src.read(min(_MERGE_CHUNK_BYTES, remaining))
        if not chunk:
            break
        out.write(chunk)
        remaining -= len(chunk)


def merge_csv_files(shard_paths: list[str | Path], out_path: str | Path) -> Path:
    """Concatenate shard CSVs written by :class:`CsvRecordStream`, in order.

    The header of the first non-empty shard is kept, subsequent headers are
    dropped, and empty shard files (no records) are skipped, so the merged
    file is byte-identical to one produced by a single stream writing the
    same records sequentially.  Shards are copied in bounded chunks — merge
    memory stays O(1), not O(campaign).
    """
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as out:
        wrote_any = False
        for shard_path in shard_paths:
            shard_path = Path(shard_path)
            if not shard_path.exists() or shard_path.stat().st_size == 0:
                continue
            with open(shard_path, "rb") as src:
                if wrote_any:
                    # Fixed field names: the header is exactly the first line.
                    src.readline()
                _copy_bytes(src, out, shard_path.stat().st_size)
            wrote_any = True
    return out_path


def merge_json_array_files(shard_paths: list[str | Path], out_path: str | Path) -> Path:
    """Merge shard JSON arrays written by :class:`JsonArrayStream`, in order.

    The merge is textual — element bodies are re-joined with the stream's own
    separators — so the result is byte-identical to a single stream having
    written all records sequentially.  Empty shard arrays are skipped and
    shards are copied in bounded chunks (O(1) merge memory).
    """
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "wb") as out:
        wrote_any = False
        for shard_path in shard_paths:
            shard_path = Path(shard_path)
            if not shard_path.exists():
                continue
            size = shard_path.stat().st_size
            if size <= 2:  # "" or "[]": no records
                continue
            with open(shard_path, "rb") as src:
                if src.read(2) != b"[\n":
                    raise ValueError(f"{shard_path} is not a JsonArrayStream output")
                src.seek(-2, 2)
                if src.read(2) != b"\n]":
                    raise ValueError(f"{shard_path} is not a JsonArrayStream output")
                src.seek(2)
                out.write(b",\n" if wrote_any else b"[\n")
                _copy_bytes(src, out, size - 4)
            wrote_any = True
        out.write(b"\n]" if wrote_any else b"[]")
    return out_path


def merge_record_files(slices: list[dict[str, str]], out_dir: str | Path) -> dict[str, str]:
    """Concatenate the record files of campaign slices, tag by tag, in slice order.

    ``slices`` are the slices' ``{tag: path}`` maps in campaign (step) order;
    every tag of the first slice that all slices have is merged into
    ``out_dir`` under the first slice's file name (CSV by
    :func:`merge_csv_files`, anything else by :func:`merge_json_array_files`),
    and the merged map keeps the first slice's tag order.  Each file is
    written as ``<name>.merging`` and then renamed over its target, so
    ``out_dir`` may be one of the slices' own directories.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    merged: dict[str, str] = {}
    for tag in slices[0]:
        if not all(tag in paths for paths in slices):
            continue
        first = Path(slices[0][tag])
        target = out / first.name
        scratch = target.with_name(target.name + ".merging")
        merge = merge_csv_files if first.suffix == ".csv" else merge_json_array_files
        merge([paths[tag] for paths in slices], scratch)
        os.replace(scratch, target)
        merged[tag] = str(target)
    return merged


def iter_record_file(path: str | Path) -> Iterator[Any]:
    """Lazily yield the records of a record file, one at a time.

    A ``.csv`` file (:class:`CsvRecordStream`) yields one dict per row, its
    values the stored strings; any other file is a JSON array
    (:class:`JsonArrayStream`, the ground-truth file) parsed incrementally,
    one element per record.  Memory stays bounded by one record plus a read
    chunk either way; an empty file yields nothing.
    """
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as handle:
            yield from csv.DictReader(handle)
    else:
        yield from _iter_json_array(path)


_JSON_CHUNK = 1 << 20


def _iter_json_array(path: Path) -> Iterator[Any]:
    """Incrementally yield the elements of a JSON array file.

    Parses with :meth:`json.JSONDecoder.raw_decode` over a sliding buffer, so
    memory stays bounded by the chunk size plus one element — a multi-GB
    detection record stream never has to fit in memory.  An empty file yields
    nothing; anything that is not a JSON array is an error.
    """
    decoder = json.JSONDecoder()
    with open(path, "r", encoding="utf-8") as handle:
        buffer = ""
        eof = False

        def ensure(position: int) -> int:
            """Grow the buffer until ``position`` is readable (or EOF)."""
            nonlocal buffer, eof
            while not eof and position >= len(buffer):
                chunk = handle.read(_JSON_CHUNK)
                if chunk:
                    buffer += chunk
                else:
                    eof = True
            return len(buffer)

        def skip_ws(position: int) -> int:
            while ensure(position) > position and buffer[position] in " \t\r\n":
                position += 1
            return position

        pos = skip_ws(0)
        if ensure(pos) <= pos:
            return  # empty file: no records
        if buffer[pos] != "[":
            raise ValueError(f"{path} is not a record array")
        pos += 1
        while True:
            pos = skip_ws(pos)
            if ensure(pos) <= pos:
                raise ValueError(f"{path}: unterminated record array")
            if buffer[pos] == "]":
                return
            if buffer[pos] == ",":
                pos += 1
                continue
            while True:
                try:
                    element, end = decoder.raw_decode(buffer, pos)
                except ValueError:
                    # An element that fails to parse may simply extend past the
                    # buffered chunk; read more and retry.  (On corrupt — not
                    # truncated — content this keeps buffering until EOF before
                    # erroring: incomplete and malformed input are
                    # indistinguishable until the file ends.)
                    if eof:
                        raise ValueError(
                            f"{path}: truncated or malformed record array"
                        ) from None
                    ensure(len(buffer) + 1)
                    continue
                if not eof and buffer.find(",", end) == -1 and buffer.find("]", end) == -1:
                    # A complete array element is always followed by "," or
                    # "]".  Neither is buffered yet, so the parse may have
                    # stopped mid-number at the chunk boundary (e.g. the "3"
                    # of "3.5"); extend the buffer and re-parse to be sure.
                    before = len(buffer)
                    ensure(before + 1)
                    if len(buffer) > before:
                        continue
                break
            yield element
            pos = end
            if pos >= _JSON_CHUNK:
                # Trim the consumed prefix once per chunk (not per element)
                # so the buffer stays chunk-sized without quadratic copying.
                buffer = buffer[pos:]
                pos = 0


class CampaignResultWriter:
    """Write the meta / fault / output files of one fault injection campaign.

    Args:
        output_dir: directory all files of the campaign are written into.
        campaign_name: prefix used for all file names.
    """

    def __init__(self, output_dir: str | Path, campaign_name: str = "campaign") -> None:
        self.output_dir = Path(output_dir)
        self.output_dir.mkdir(parents=True, exist_ok=True)
        self.campaign_name = campaign_name

    # ------------------------------------------------------------------ #
    # a) meta-files
    # ------------------------------------------------------------------ #
    def write_meta(self, scenario: ScenarioConfig, extra: dict | None = None) -> Path:
        """Write the ``scenario.yml`` meta file (all run-time parameters)."""
        path = self.output_dir / f"{self.campaign_name}_scenario.yml"
        document = {
            "scenario": scenario.as_dict(),
            "campaign_name": self.campaign_name,
        }
        if extra:
            document["run_info"] = _to_plain(extra)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# PyTorchALFI campaign meta file\n")
            yaml.safe_dump(document, handle, default_flow_style=False, sort_keys=True)
        return path

    # ------------------------------------------------------------------ #
    # b) fault files
    # ------------------------------------------------------------------ #
    def write_fault_matrix(self, matrix: FaultMatrix) -> Path:
        """Persist the pre-generated fault matrix (binary, reusable)."""
        path = self.output_dir / f"{self.campaign_name}_faults.npz"
        return matrix.save(path)

    # ------------------------------------------------------------------ #
    # c) model outputs
    # ------------------------------------------------------------------ #
    def write_ground_truth_json(self, targets: list[dict]) -> Path:
        """Write the detection ground-truth annotations (CoCo-style)."""
        path = self.output_dir / f"{self.campaign_name}_ground_truth.json"
        path.write_text(dumps_indented(targets), encoding="utf-8")
        return path

    def write_kpi_summary(self, kpis: dict, tag: str = "summary") -> Path:
        """Write the computed KPIs (SDE/DUE rates, accuracy, mAP...) as JSON."""
        path = self.output_dir / f"{self.campaign_name}_{tag}_kpis.json"
        path.write_text(dumps_indented(kpis), encoding="utf-8")
        return path

    # ------------------------------------------------------------------ #
    # streaming writers (campaign engine)
    # ------------------------------------------------------------------ #
    def stream_classification(self, tag: str = "corrupted") -> CsvRecordStream:
        """Return an incremental writer for per-inference classification rows."""
        return CsvRecordStream(
            self.output_dir / f"{self.campaign_name}_{tag}_results.csv",
            fieldnames=classification_fieldnames,
        )

    def stream_detection(self, tag: str = "corrupted") -> JsonArrayStream:
        """Return an incremental writer for per-image detection records."""
        return JsonArrayStream(self.output_dir / f"{self.campaign_name}_{tag}_results.json")

    def stream_applied_faults(self) -> JsonArrayStream:
        """Return an incremental writer for the applied-fault log."""
        return JsonArrayStream(self.output_dir / f"{self.campaign_name}_applied_faults.json")


class _UnsupportedKey(Exception):
    """A dict key :func:`dumps_indented` leaves to the stdlib encoder."""


def dumps_indented(value: Any) -> str:
    """``json.dumps(_to_plain(value), indent=2, default=_json_default)``, faster.

    ``indent=`` forces the stdlib onto its pure-Python generator encoder;
    this is one recursive walk that formats with the stdlib's own leaf
    encoders and converts what it meets on the way (numpy scalars and
    arrays, ``Path``, tuples) the way :func:`_to_plain` would have before.
    Byte-identical for every value; dicts with non-string keys go to the
    stdlib.
    """
    pieces: list[str] = []
    try:
        _emit_indented(value, "\n", pieces.append)
    except _UnsupportedKey:
        return json.dumps(_to_plain(value), indent=2, default=_json_default)
    return "".join(pieces)


_INFINITY = float("inf")


def _emit_indented(value: Any, newline: str, emit: Callable[[str], Any]) -> None:
    """Emit ``value`` as indent-2 JSON; ``newline`` is a line break plus the current indent."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            emit("NaN")
        elif value in (_INFINITY, -_INFINITY):
            emit("Infinity" if value > 0 else "-Infinity")
        else:
            emit(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            emit(separator)
            _emit_indented(item, inner, emit)
            separator = "," + inner
        emit(newline + "]")
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise _UnsupportedKey
            emit(separator + encode_basestring_ascii(key) + ": ")
            _emit_indented(item, inner, emit)
            separator = "," + inner
        emit(newline + "}")
    else:
        # numpy scalars and arrays, Path, anything else: what the stdlib
        # would ask its default= hook, which answers with plain Python.
        _emit_indented(_json_default(value), newline, emit)

