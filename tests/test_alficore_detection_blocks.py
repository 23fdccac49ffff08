"""Detector blocks: up to 16 images share one golden pass and one faulty suffix.

A detector's output is a list with one :class:`Detection` per image, which
the forward plan counts as batched: golden passes of 16 consecutive steps
run as one stacked pass whose list is cut back per step, and faulty suffixes
run stacked behind their faulted segments, joined by concatenation where the
fault sits in the last segment (RetinaNet's atomic tail).  The contract is
the naive path's: result bytes and every step's monitor result equal those
of ``prefix_reuse: false, golden_cache_mb: 0``, and a sharded run writes the
serial run's bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alficore import CampaignCore, DetectionTask
from repro.experiments import Experiment, run
from repro.models.detection import build_detector
from repro.models.detection.detectors import Detection
from repro.nn.forward_plan import ForwardPlan, batched
from tests.test_alficore_blocks import _result_bytes

IMAGES = 20


def _spec(model, target, out, scenario=None, naive=False, backend=None, params=None):
    builder = (
        Experiment.builder()
        .name(model)
        .task("detection")
        .model(model, num_classes=5, seed=1, **(params or {}))
        .dataset("synthetic-coco", num_samples=IMAGES, num_classes=5, seed=9)
        .scenario(
            **{
                "injection_target": target, "rnd_bit_range": (23, 30), "random_seed": 5,
                "model_name": model, "dataset_size": IMAGES, "num_runs": 1, **(scenario or {}),
            }
        )
        .output_dir(out)
    )
    if naive:
        builder.caching(prefix_reuse=False, golden_cache_mb=0)
    if backend is not None:
        builder.backend(**backend)
    return builder.build()


@pytest.fixture
def spied(monkeypatch):
    """What the blocked run did: its stacks, golden rows, checks and per-step monitor results."""
    log = {"stacks": [], "golden_rows": [], "checks": [], "monitor": []}
    resume_stack, run_recording = ForwardPlan.resume_stack, ForwardPlan.run_recording
    alone, consume = CampaignCore._alone, DetectionTask.consume

    def stacking(self, passes, regroup=None):
        results = resume_stack(self, passes, regroup)
        log["stacks"].append(
            [(stacked.start, at, self.num_segments) for stacked, (_, at) in zip(passes, results)]
        )
        return results

    def recording(self, x, *args, **kwargs):
        log["golden_rows"].append(len(x))
        return run_recording(self, x, *args, **kwargs)

    def checking(self, lane, item, kinds, golden):
        log["checks"].append(sorted(kinds))
        return alone(self, lane, item, kinds, golden)

    def consuming(self, ctx):
        log["monitor"].append(ctx.monitor.as_dict())
        return consume(self, ctx)

    monkeypatch.setattr(ForwardPlan, "resume_stack", stacking)
    monkeypatch.setattr(ForwardPlan, "run_recording", recording)
    monkeypatch.setattr(CampaignCore, "_alone", checking)
    monkeypatch.setattr(DetectionTask, "consume", consuming)
    return log


def _both(tmp_path, spied, model, target, scenario=None, params=None):
    """Run the naive and the default engine; assert equal bytes and monitor results."""
    naive = run(_spec(model, target, tmp_path / "naive", scenario, naive=True, params=params))
    expected = list(spied["monitor"])
    for key in spied:
        spied[key].clear()
    blocked = run(_spec(model, target, tmp_path / "blocked", scenario, params=params))
    assert _result_bytes(blocked) == _result_bytes(naive)
    assert spied["monitor"] == expected
    return blocked


def _due(monitor: list[dict]) -> list[bool]:
    return [result["nan_detected"] or result["inf_detected"] for result in monitor]


class TestDetectorPlans:
    def test_a_list_of_one_detection_per_row_holds_the_rows(self):
        detections = [Detection(), Detection()]
        assert batched(detections, 2) and not batched(detections, 3)
        assert batched(np.zeros((2, 4)), 2) and not batched(np.zeros(()), 1)
        # A list of arrays (a feature pyramid) holds whole-batch values.
        assert not batched([np.zeros((1, 4))], 1) and not batched((Detection(),), 1)

    @pytest.mark.parametrize(
        "model, params, stackable",
        [
            ("yolov3", {}, True),
            ("retinanet", {}, True),
            ("faster_rcnn", {}, False),
            # One proposal per image: a one-image trace sees its classifier
            # output one row, as many as the batch has.
            ("faster_rcnn", {"top_proposals": 1}, False),
        ],
    )
    def test_which_detectors_stack(self, model, params, stackable):
        detector = build_detector(model, seed=1, **params).eval()
        images = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
        plan = ForwardPlan.trace(detector, images)
        assert plan.valid and plan.stackable is stackable


class TestDetectorBlocksKeepTheNaiveBytes:
    def test_yolov3_weight_faults_share_one_suffix(self, tmp_path, spied):
        blocked = _both(tmp_path, spied, "yolov3", "weights")
        # The first step learns the plan; the next 16 share a golden pass
        # and, behind their faulted convolutions, one stacked suffix.
        assert spied["golden_rows"][:2] == [1, 16]
        assert max(len(call) for call in spied["stacks"]) == 16
        assert spied["checks"] == [["rows"]]
        assert blocked.core.lanes[0].verdicts == {"rows": True}

    def test_yolov3_rows_that_rejoin_run_on_or_turn_nan(self, tmp_path, spied):
        scenario = {"rnd_bit_range": (30, 30)}
        blocked = _both(tmp_path, spied, "yolov3", "neurons", scenario)
        assert spied["golden_rows"][:2] == [1, 16]
        stacked = [call for call in spied["stacks"] if len(call) > 1]
        rejoined = {at for call in stacked for _, at, _ in call}
        # Rows of one stack left it at two boundaries, and others ran to the end.
        assert None in rejoined and len(rejoined - {None}) >= 2
        # The block holds rows with a NaN/Inf and finite ones.
        due = _due(spied["monitor"])
        assert True in due[1:17] and False in due[1:17]
        assert blocked.core.rejoins == sum(
            at is not None for call in spied["stacks"] for _, at, _ in call
        )

    def test_retinanet_neuron_faults_inside_the_tail(self, tmp_path, spied):
        # Layers 3-6 are the class and box heads, which run inside the
        # atomic tail: every faulty pass joins the stack at the output.
        blocked = _both(tmp_path, spied, "retinanet", "neurons", {"layer_range": (3, 6)})
        at_the_end = [
            call for call in spied["stacks"] if len(call) > 1 and call[0][0] == call[0][2]
        ]
        assert at_the_end and max(len(call) for call in at_the_end) == 16
        assert blocked.core.lanes[0].verdicts == {"rows": True}

    @pytest.mark.parametrize("proposals", [16, 1])
    def test_faster_rcnn_runs_one_step_per_block(self, tmp_path, spied, proposals):
        # Its second stage classifies each image's proposals on their own:
        # the rows of those outputs are proposals, not images, so the plan
        # does not stack and a NaN raised there stays with its image, also
        # when each image has one proposal, as many rows as the traced batch.
        scenario = {"layer_range": (1, 3), "rnd_bit_range": (30, 30), "random_seed": 7}
        params = {"top_proposals": proposals}
        _both(tmp_path, spied, "faster_rcnn", "neurons", scenario, params)
        assert set(spied["golden_rows"]) == {1}
        assert max(len(call) for call in spied["stacks"]) == 1
        assert True in _due(spied["monitor"])

    @pytest.mark.parametrize("model", ["yolov3", "retinanet"])
    def test_sharded_equals_serial(self, tmp_path, model):
        # One worker keeps the shards in this process; cuts at steps 7 and 14.
        sharded = {"name": "sharded", "workers": 1, "num_shards": 3}
        serial = run(_spec(model, "weights", tmp_path / "serial"))
        shards = run(_spec(model, "weights", tmp_path / "sharded", backend=sharded))
        assert _result_bytes(shards) == _result_bytes(serial)
