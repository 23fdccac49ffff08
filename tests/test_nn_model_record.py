"""The model record: what the engine learned about one model object, kept for the next campaign.

A campaign looks its forward plan up in the record of the model object it
runs on (:mod:`repro.nn.record`) before tracing, and a fault injector looks
its layers' output shapes up before probing.  These tests pin when an entry
is reused (a second campaign on the same object, or a second run of one
core, unchanged), when it is not (any of the things the plan key covers
changed, also between two runs of one core), that a record never keeps its
model alive, that copies start empty, and that the shapes a head fit notes
are the ones a probe would find.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro import nn
from repro.alficore import CampaignCore, ClassificationTask, default_scenario
from repro.data import SyntheticClassificationDataset
from repro.experiments.registry import MODELS
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.nn.forward_plan import ForwardPlan
from repro.nn.record import model_record, output_shapes
from repro.pytorchfi.core import FaultInjection

SHAPE = (3, 8, 8)


def _dataset(seed: int = 0, image_size=SHAPE, num_samples: int = 4):
    return SyntheticClassificationDataset(
        num_samples=num_samples, num_classes=10, image_size=image_size, seed=seed
    )


def _net(seed: int = 0) -> nn.Sequential:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(4 * 8 * 8, 10, rng=rng),
    ).eval()


def _campaign(model, dataset=None, target="weights") -> CampaignCore:
    scenario = default_scenario(
        injection_target=target, rnd_bit_range=(23, 30), random_seed=5, num_runs=1,
        model_name="record",
    )
    core = CampaignCore(
        model, dataset if dataset is not None else _dataset(),
        ClassificationTask(collect_outputs=True), scenario=scenario, input_shape=SHAPE,
    )
    core.run()
    return core


@pytest.fixture
def traces(monkeypatch):
    """Count ``ForwardPlan.trace`` calls."""
    calls = []
    trace = ForwardPlan.trace.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args[0])
        return trace(cls, *args, **kwargs)

    monkeypatch.setattr(ForwardPlan, "trace", classmethod(counting))
    return calls


@pytest.fixture
def probes(monkeypatch):
    """Count the fault injector's probe passes."""
    calls = []
    probe = FaultInjection._probe

    def counting(self, shapes):
        calls.append(self.original_model)
        return probe(self, shapes)

    monkeypatch.setattr(FaultInjection, "_probe", counting)
    return calls


class TestPlanEntry:
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_two_campaigns_on_one_object_trace_once(self, traces, probes, target):
        model = _net()
        first = _campaign(model, target=target)
        second = _campaign(model, target="neurons" if target == "weights" else "weights")
        assert len(traces) == 1 and len(probes) == 1
        assert second.lanes[0].plan is first.lanes[0].plan is model_record(model).plan[1]
        assert second.lanes[0].resumable == first.lanes[0].resumable

    def test_repeated_runs_of_one_core_trace_once(self, traces):
        model = _net()
        core = _campaign(model)
        core.run()
        assert len(traces) == 1

    def _swap_submodule(self, model, dataset):
        model._modules["0"] = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        return dataset

    def _edit_running_mean(self, model, dataset):
        model[1]._buffers["running_mean"] += np.float32(0.5)
        return dataset

    def _another_first_image(self, model, dataset):
        return _dataset(seed=1)

    @pytest.mark.parametrize(
        "change", ["_swap_submodule", "_edit_running_mean", "_another_first_image"]
    )
    def test_a_changed_model_or_input_traces_again(self, traces, change):
        model, dataset = _net(), _dataset()
        first = _campaign(model, dataset)
        dataset = getattr(self, change)(model, dataset)
        second = _campaign(model, dataset)
        assert len(traces) == 2
        assert second.lanes[0].plan is not first.lanes[0].plan
        assert model_record(model).plan[1] is second.lanes[0].plan

    def test_a_model_changed_between_runs_of_one_core_is_planned_again(self, traces):
        model = _net()
        core = _campaign(model)
        model._modules["0"] = nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(7))
        core.task.reset()
        core.run()
        assert len(traces) == 2
        assert core.lanes[0].plan.segments[0] is model[0]
        fresh = _campaign(model).task.state
        for name in ("golden_logits", "corrupted_logits"):
            assert [row.tobytes() for row in getattr(core.task.state, name)] == [
                row.tobytes() for row in getattr(fresh, name)
            ], name

    def test_a_campaign_traces_once_and_replays_once(self, monkeypatch):
        traces, replays, tracing = [], [], []
        trace, resume = ForwardPlan.trace.__func__, ForwardPlan.resume

        def spy_trace(cls, *args, **kwargs):
            traces.append(kwargs)
            tracing.append(True)
            try:
                return trace(cls, *args, **kwargs)
            finally:
                tracing.pop()

        def spy_resume(self, start, *args, **kwargs):
            if tracing:
                replays.append(start)
            return resume(self, start, *args, **kwargs)

        monkeypatch.setattr(ForwardPlan, "trace", classmethod(spy_trace))
        monkeypatch.setattr(ForwardPlan, "resume", spy_resume)
        core = _campaign(_net())
        assert traces == [{}] and replays == [0]
        assert core.lanes[0].plan.executor_name == "module"


class TestLifetime:
    def test_the_model_is_freed_with_its_record_filled(self):
        dataset = SyntheticClassificationDataset(num_samples=4, num_classes=10, seed=3)
        model = fit_classifier_head(lenet5(num_classes=10, seed=0), dataset, 10)
        core = CampaignCore(
            model, dataset, ClassificationTask(),
            scenario=default_scenario(rnd_bit_range=(23, 30), num_runs=1, model_name="free"),
        )
        core.run()
        record = model_record(model)
        assert record.plan is not None and record.shapes and record.head_features is not None
        alive = weakref.ref(model)
        plan = record.plan[1]
        del model, core
        gc.collect()
        assert alive() is None
        assert plan.model is None

    @pytest.mark.parametrize("copy", ["clone", "pickle"])
    def test_copies_start_empty(self, copy):
        model = _net()
        _campaign(model)
        assert model_record(model).plan is not None and model_record(model).shapes
        twin = model.clone() if copy == "clone" else pickle.loads(pickle.dumps(model))
        record = model_record(twin)
        assert (record.plan, record.shapes, record.head_features) == (None, {}, None)


# Registry classifiers with a head to fit (squeezenet's is a convolution).
FITTED = sorted(
    name
    for name in MODELS.names()
    if MODELS.metadata(name)["kind"] == "classifier"
    and any(isinstance(module, nn.Linear) for module in MODELS.get(name)(seed=0).modules())
)


@pytest.mark.parametrize("name", FITTED)
def test_the_head_fits_shapes_are_the_probes(name, probes):
    dataset = SyntheticClassificationDataset(num_samples=16, num_classes=10, seed=2)
    model = fit_classifier_head(MODELS.get(name)(num_classes=10, seed=0), dataset, 10)
    fitted = dict(output_shapes(model, 16, (3, 32, 32)))
    injector = FaultInjection(model, batch_size=16, input_shape=(3, 32, 32))
    assert not probes  # every injectable layer had an entry
    model_record(model).shapes.clear()
    probed = FaultInjection(model, batch_size=16, input_shape=(3, 32, 32))
    assert len(probes) == 1
    names = [info.name for info in probed.layers]
    assert [info.output_shape for info in injector.layers] == [fitted[n] for n in names]
    assert [info.output_shape for info in probed.layers] == [fitted[n] for n in names]
    assert all(shape is not None for shape in (fitted[n] for n in names))
