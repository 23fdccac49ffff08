"""The step plan: which shortcuts a lane's step may take, decided in one place.

``CampaignCore._step_plan`` reads the group, the batch and the lane's state
(custom monitors, golden cache, the head fit's features, the verdicts of the
shortcuts' first uses) and returns a frozen :class:`StepPlan`.  This table
drives it over every combination of those conditions on lenet5, without
running a campaign.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.alficore import CampaignCore, ClassificationTask, default_scenario
from repro.alficore.campaign.core import StepPlan
from repro.alficore.goldencache import GoldenCache, head_features
from repro.alficore.monitoring import RangeMonitor
from repro.data import SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.pytorchfi.core import NeuronFaultGroup

IMAGES = 8
VERDICTS = (None, True, False)


@pytest.fixture(scope="module")
def dataset():
    return SyntheticClassificationDataset(num_samples=IMAGES, num_classes=10, noise=0.25, seed=7)


@pytest.fixture(scope="module")
def fitted(dataset):
    return fit_classifier_head(lenet5(num_classes=10, seed=1), dataset, 10)


@pytest.mark.parametrize("cached", [False, True], ids=["no_cache", "cache"])
@pytest.mark.parametrize("custom", [False, True], ids=["no_custom", "custom"])
@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize("target", ["weights", "neurons"])
def test_step_plan_decision_table(fitted, dataset, target, batch_size, custom, cached):
    scenario = default_scenario(
        injection_target=target, inj_policy="per_batch", batch_size=batch_size,
        rnd_bit_range=(23, 30), random_seed=13, num_runs=1, model_name="plan",
    )
    core = CampaignCore(
        fitted, dataset, ClassificationTask(), scenario=scenario,
        custom_monitors=[RangeMonitor(10.0)] if custom else None,
        golden_cache=GoldenCache() if cached else None,
    )
    lane = core.lanes[0]
    images = np.stack([dataset[index][0] for index in range(batch_size)])
    record = head_features(fitted)
    groups = core.wrapper.get_fault_group_iter(None, start=0, stop=1)
    try:
        group = next(groups)
        neuron = isinstance(group, NeuronFaultGroup)
        assert neuron == (target == "neurons")
        if neuron and batch_size > 1:
            assert len(group.rows(batch_size)) == 1
        for features, rows_verdict, seed_verdict in itertools.product(
            (record, None), VERDICTS, VERDICTS
        ):
            lane.features = features
            lane.verdicts = {
                kind: verdict
                for kind, verdict in (("rows", rows_verdict), ("seed", seed_verdict))
                if verdict is not None
            }
            step = core._step_plan(lane, core.points[0], group, images)
            assert isinstance(step, StepPlan)
            plan = lane.plan
            assert step.span is not None
            assert step.span == CampaignCore._faulted_span(plan, core.wrapper, group)

            rows_allowed = neuron and batch_size > 1 and not custom and rows_verdict is not False
            assert step.rows == (group.rows(batch_size) if rows_allowed else None)

            seed_allowed = (
                features is not None and not cached and not custom and seed_verdict is not False
            )
            if not seed_allowed:
                assert step.seed is None
                continue
            head_at, stacked = step.seed
            assert plan.segments[head_at] is fitted.classifier[-1]
            assert stacked.tobytes() == record.stacked(images).tobytes()
    finally:
        groups.close()
