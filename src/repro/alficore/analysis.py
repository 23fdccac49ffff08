"""Post-processing of campaign result files.

Section V-F of the paper: the raw result files (classification CSV /
detection JSON plus the applied-fault records) are further processed to
quantify the vulnerability — bit-wise and layer-wise SDE information is
extracted from the stored outputs, flip directions are tallied, and runs of
different models or protection variants are compared.  This module provides
that post-processing stage for result directories written by
:class:`~repro.alficore.results.CampaignResultWriter` (and therefore by
:func:`repro.experiments.run`).  The files are read one record at a time
(:func:`~repro.alficore.results.iter_record_file`), so analysing a campaign
takes memory for its tallies, not for its records.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.alficore.results import iter_record_file


@dataclass
class CampaignAnalysis:
    """Aggregated vulnerability breakdown of one stored campaign.

    Attributes:
        campaign_name: result file prefix the analysis was read from.
        num_inferences: number of (golden, corrupted) inference pairs.
        sde_rate / due_rate / masked_rate: overall outcome rates.
        sde_by_bit: SDE+DUE rate per flipped bit position.
        sde_by_layer: SDE+DUE rate per injected layer index.
        flip_direction_counts: how many applied faults flipped 0->1 vs 1->0.
        corrupted_image_ids: ids of the inputs whose top-1 changed.
    """

    campaign_name: str
    num_inferences: int
    sde_rate: float
    due_rate: float
    masked_rate: float
    sde_by_bit: dict[int, float] = field(default_factory=dict)
    sde_by_layer: dict[int, float] = field(default_factory=dict)
    flip_direction_counts: dict[str, int] = field(default_factory=dict)
    corrupted_image_ids: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "campaign_name": self.campaign_name,
            "num_inferences": self.num_inferences,
            "sde_rate": self.sde_rate,
            "due_rate": self.due_rate,
            "masked_rate": self.masked_rate,
            "sde_by_bit": {str(k): v for k, v in self.sde_by_bit.items()},
            "sde_by_layer": {str(k): v for k, v in self.sde_by_layer.items()},
            "flip_direction_counts": dict(self.flip_direction_counts),
            "corrupted_image_ids": list(self.corrupted_image_ids),
        }


def _row_top1(row: dict) -> int:
    return int(row["top1_class"])


def _row_due(row: dict) -> bool:
    return bool(int(row["nan_detected"])) or bool(int(row["inf_detected"]))


_MISSING = object()


def _aligned(paths: list[Path], mismatch: str) -> Iterator[tuple]:
    """The records of ``paths`` side by side, one tuple per inference.

    Raises ``ValueError(mismatch)`` when one file ends before the others.
    """
    for records in zip_longest(*map(iter_record_file, paths), fillvalue=_MISSING):
        if any(record is _MISSING for record in records):
            raise ValueError(mismatch)
        yield records


def _tally(
    campaign_name: str, rows: Iterable[tuple[int, bool, bool, list[dict]]]
) -> CampaignAnalysis:
    """Aggregate ``(image_id, due, changed, fault_positions)`` per inference.

    A DUE outranks a changed output; every fault position of a non-masked
    inference counts as corrupted for its bit and its layer.
    """
    outcomes = []  # per inference: "masked" | "sde" | "due"
    per_bit: dict[int, list[bool]] = defaultdict(list)
    per_layer: dict[int, list[bool]] = defaultdict(list)
    flip_directions: dict[str, int] = defaultdict(int)
    corrupted_ids: list[int] = []

    for image_id, due, changed, positions in rows:
        outcome = "due" if due else "sde" if changed else "masked"
        outcomes.append(outcome)
        is_corrupted = outcome != "masked"
        if is_corrupted:
            corrupted_ids.append(image_id)
        for position in positions:
            if position.get("bit_position") is not None:
                per_bit[int(position["bit_position"])].append(is_corrupted)
            if position.get("layer") is not None:
                per_layer[int(position["layer"])].append(is_corrupted)
            if position.get("flip_direction"):
                flip_directions[position["flip_direction"]] += 1

    total = len(outcomes)
    if not total:
        raise ValueError(f"campaign {campaign_name!r} contains no result rows")
    return CampaignAnalysis(
        campaign_name=campaign_name,
        num_inferences=total,
        sde_rate=outcomes.count("sde") / total,
        due_rate=outcomes.count("due") / total,
        masked_rate=outcomes.count("masked") / total,
        sde_by_bit={bit: float(np.mean(flags)) for bit, flags in sorted(per_bit.items())},
        sde_by_layer={layer: float(np.mean(flags)) for layer, flags in sorted(per_layer.items())},
        flip_direction_counts=dict(flip_directions),
        corrupted_image_ids=corrupted_ids,
    )


def analyze_classification_campaign(
    output_dir: str | Path,
    campaign_name: str,
    corrupted_tag: str = "corrupted",
    golden_tag: str = "golden",
) -> CampaignAnalysis:
    """Analyse a stored classification campaign directory.

    Args:
        output_dir: directory the campaign was written into.
        campaign_name: the campaign (file prefix) to analyse.
        corrupted_tag: tag of the fault-injected result CSV.
        golden_tag: tag of the fault-free result CSV.

    Returns:
        A :class:`CampaignAnalysis` with overall rates and per-bit / per-layer
        breakdowns extracted from the stored fault positions.
    """
    directory = Path(output_dir)
    files = [
        directory / f"{campaign_name}_{tag}_results.csv" for tag in (golden_tag, corrupted_tag)
    ]
    mismatch = f"campaign {campaign_name!r}: golden and corrupted files hold different row counts"

    def rows() -> Iterator[tuple[int, bool, bool, list[dict]]]:
        for golden_row, corrupted_row in _aligned(files, mismatch):
            if golden_row["image_id"] != corrupted_row["image_id"]:
                raise ValueError("golden and corrupted rows are not aligned by image id")
            changed = _row_top1(golden_row) != _row_top1(corrupted_row)
            positions = json.loads(corrupted_row["fault_positions"])
            yield int(corrupted_row["image_id"]), _row_due(corrupted_row), changed, positions

    return _tally(campaign_name, rows())


def analyze_detection_campaign(
    output_dir: str | Path,
    campaign_name: str,
    corrupted_tag: str = "corrupted",
    golden_tag: str = "golden",
    iou_threshold: float = 0.5,
) -> CampaignAnalysis:
    """Analyse a stored object-detection campaign directory.

    The per-image corruption criterion matches IVMOD: an image counts as
    corrupted when the corrupted run lost true positives or gained false
    positives relative to the golden run of the same image (ground truth is
    read from the stored ground-truth JSON), and as DUE when NaN/Inf was
    recorded.
    """
    from repro.eval.detection import _image_rows, _tp_fp

    directory = Path(output_dir)
    files = [
        directory / f"{campaign_name}_{golden_tag}_results.json",
        directory / f"{campaign_name}_{corrupted_tag}_results.json",
        directory / f"{campaign_name}_ground_truth.json",
    ]
    mismatch = "corrupted / golden / ground-truth files are not aligned"
    thresholds = (iou_threshold,)

    def rows() -> Iterator[tuple[int, bool, bool, list[dict]]]:
        for golden_row, corrupted_row, target in _aligned(files, mismatch):
            due = bool(corrupted_row["nan_detected"]) or bool(corrupted_row["inf_detected"])
            golden_tp, golden_fp = _tp_fp(_image_rows(golden_row, target, thresholds))
            corrupted_tp, corrupted_fp = _tp_fp(_image_rows(corrupted_row, target, thresholds))
            changed = corrupted_tp < golden_tp or corrupted_fp > golden_fp
            positions = corrupted_row.get("fault_positions", [])
            yield int(corrupted_row["image_id"]), due, changed, positions

    return _tally(campaign_name, rows())


def compare_campaigns(analyses: list[CampaignAnalysis]) -> list[dict]:
    """Tabulate several analysed campaigns for side-by-side comparison.

    Typical use: compare the unprotected, Ranger and Clipper variants of the
    same model, or different models under the same fault file.
    """
    rows = []
    for analysis in analyses:
        rows.append(
            {
                "campaign": analysis.campaign_name,
                "inferences": analysis.num_inferences,
                "masked": analysis.masked_rate,
                "sde": analysis.sde_rate,
                "due": analysis.due_rate,
                "most vulnerable bit": max(analysis.sde_by_bit, key=analysis.sde_by_bit.get)
                if analysis.sde_by_bit
                else None,
                "most vulnerable layer": max(analysis.sde_by_layer, key=analysis.sde_by_layer.get)
                if analysis.sde_by_layer
                else None,
            }
        )
    return rows
