"""One identity per lane: a golden pass is reused only where it was read.

A lane's golden-cache keys hold its model's identity
(``digests.model_fingerprint``: parameters, buffers, module types and plain
attributes), a digest of its custom monitors and the kernel generation; the
plan key and the head features are checked against the same identity.  A
change to any of them between two runs must miss, and a model or monitor the
identity cannot read runs without cache, seeding or recorded plan.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.alficore import GoldenCache, default_scenario
from repro.alficore.campaign import CampaignCore, ClassificationTask
from repro.alficore.goldencache import head_features
from repro.alficore.monitoring import RangeMonitor
from repro.data import SyntheticClassificationDataset
from repro.experiments import Artifacts, CampaignStore, Experiment, SweepError, run, run_sweep
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.record import model_record

IMAGES = 4


class Gain(Module):
    """Multiplies by ``gain``, which its ``repr`` does not print."""

    def __init__(self, gain=1.0):
        super().__init__()
        self.gain = gain

    def forward(self, x):
        return x * np.float32(self.gain)


def _model():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, rng=rng), nn.BatchNorm2d(4), nn.ReLU(), Gain(), nn.Flatten(),
        nn.Linear(4 * 6 * 6, 10, rng=rng),
    ).eval()


DATASET = SyntheticClassificationDataset(
    num_samples=IMAGES, num_classes=10, image_size=(3, 8, 8), seed=4
)
SCENARIO = default_scenario(
    injection_target="weights", rnd_bit_range=(23, 30), random_seed=28, num_runs=2,
    model_name="identity",
)


class _Events(ClassificationTask):
    """Buffers the logits and keeps every step's custom monitor events."""

    def __init__(self):
        super().__init__(collect_outputs=True)
        self.events = []

    def consume(self, ctx):
        super().consume(ctx)
        self.events.append(ctx.monitor.custom_events)

    def reset(self):
        super().reset()
        self.events = []


def _core(model, cache, bound):
    return CampaignCore(
        model, DATASET, _Events(), scenario=SCENARIO, input_shape=(3, 8, 8),
        custom_monitors=[RangeMonitor(bound)], golden_cache=cache,
    )


def _outcome(core):
    state = core.task.state
    logits = [
        [row.tobytes() for row in getattr(state, side)]
        for side in ("golden_logits", "corrupted_logits")
    ]
    return logits, core.task.events


def _change_parameter(model, core, draw):
    weight = model[0].weight.data.reshape(-1)
    weight[draw(st.integers(0, weight.size - 1))] += 0.5


def _change_buffer(model, core, draw):
    model[1].running_var[draw(st.integers(0, 3))] *= 2.0


def _change_attribute(model, core, draw):
    model[3].gain = draw(st.sampled_from([0.5, 2.0, -1.0]))


def _swap_module(model, core, draw):
    model._modules["2"] = draw(st.sampled_from([nn.Tanh(), nn.Sigmoid(), nn.LeakyReLU(0.2)]))


def _change_monitor(model, core, draw):
    core.custom_monitors[0].bound = draw(st.sampled_from([0.5, 3.0]))


def _bump_kernels(model, core, draw):
    F.KERNEL_GENERATION += 1


CHANGES = [
    _change_parameter, _change_buffer, _change_attribute, _swap_module, _change_monitor,
    _bump_kernels,
]


@settings(max_examples=18, deadline=None)
@given(change=st.sampled_from(CHANGES), data=st.data())
def test_a_change_between_runs_of_a_cached_core_misses(change, data):
    """One thing changes between two runs of one cached core: every key misses.

    Each drawn change would be served a stale golden pass by some earlier key
    (weights only, or weights plus ``repr``, or no monitors); the second run
    must equal a fresh core's, logits and monitor events alike.
    """
    generation = F.KERNEL_GENERATION
    try:
        model, cache = _model(), GoldenCache()
        cached = _core(model, cache, 10.0)
        cached.run()
        assert (cache.misses, cache.hits) == (IMAGES, IMAGES)
        change(model, cached, data.draw)
        cached.task.reset()
        misses = cache.misses
        cached.run()
        assert cache.misses - misses == IMAGES
        fresh = _core(model, GoldenCache(), cached.custom_monitors[0].bound)
        fresh.run()
        assert _outcome(cached) == _outcome(fresh)
    finally:
        F.KERNEL_GENERATION = generation


def test_an_unchanged_core_hits_on_its_second_run():
    model, cache = _model(), GoldenCache()
    core = _core(model, cache, 10.0)
    core.run()
    core.run()
    assert (cache.misses, cache.hits) == (IMAGES, 3 * IMAGES)


def test_a_lane_without_identity_runs_uncached_and_warns():
    model, reference = _model(), _model()
    model[3].scale_of = lambda x: x  # a closure the identity cannot read
    cache = GoldenCache()
    core = _core(model, cache, 10.0)
    with pytest.warns(RuntimeWarning, match=r"no identity \(3\.scale_of: a function"):
        core.run()
    lane = core.lanes[0]
    assert lane.fingerprint is None and lane.cache is None
    assert cache.stats()["entries"] == 0 and (cache.hits, cache.misses) == (0, 0)
    assert lane.plan is not None and model_record(model).plan is None
    plain = _core(reference, None, 10.0)
    plain.run()
    assert _outcome(core) == _outcome(plain)


def test_a_sweep_names_its_points_by_the_identity():
    model = _model()
    model[3].scale_of = lambda x: x
    spec = (
        Experiment.builder()
        .name("refused")
        .model("lenet5", num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=IMAGES, num_classes=10, seed=3)
        .scenario(injection_target="weights", model_name="refused", dataset_size=IMAGES)
        .sweep(axes={"scenario.rnd_bit_range": [[23, 26], [27, 30]]})
        .build()
    )
    with pytest.raises(SweepError, match=r"model's identity: 3\.scale_of: a function"):
        run_sweep(spec, Artifacts(model=model, dataset=DATASET))


def test_a_head_fit_keeps_no_features_without_identity():
    dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, seed=3)
    model = lenet5(num_classes=10, seed=0)
    model.scale_of = lambda x: x
    assert fit_classifier_head(model, dataset, 10) is model
    assert head_features(model) is None


def _detection_sweep(output_dir):
    return (
        Experiment.builder()
        .name("threshold")
        .task("detection")
        .model("yolov3", num_classes=5, seed=1)
        .dataset("synthetic-coco", num_samples=8, num_classes=5, seed=9)
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=77,
            model_name="yolov3", dataset_size=8,
        )
        .caching(golden_cache_mb=64)
        .sweep(axes={"model.params.score_threshold": [0.3, 0.05]})
        .output_dir(output_dir)
        .build()
    )


def test_a_sweep_over_a_model_setting_serves_no_other_points_golden_pass(tmp_path):
    """The points share one golden cache; ``score_threshold`` is in the key."""
    result = run_sweep(_detection_sweep(tmp_path / "sweep"), store=CampaignStore(tmp_path / "s"))
    assert result.executed == 2
    # A model setting is no fault field: each point is a group of its own,
    # and neither finds the other's golden passes.
    stats = result.golden_cache_stats
    assert (stats["hits"], stats["misses"]) == (0, 16)
    golden = set()
    for outcome in result.outcomes:
        spec = outcome.point.spec.copy()
        spec.output_dir = tmp_path / outcome.run_id
        alone = run(spec)
        stored = outcome.stored.output_files
        assert sorted(alone.output_files) == sorted(stored)
        for tag, path in alone.output_files.items():
            assert Path(path).read_bytes() == Path(stored[tag]).read_bytes(), tag
        golden.add(Path(stored["golden_json"]).read_bytes())
    assert len(golden) == 2


def _lenet_spec(output_dir, **caching):
    return (
        Experiment.builder()
        .name("rerun")
        .task("classification")
        .model("lenet5", num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=8, num_classes=10, noise=0.25, seed=3)
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=50,
            model_name="lenet5", dataset_size=8, num_runs=3,
        )
        .backend("sharded", 1, 2)
        .caching(**caching)
        .output_dir(output_dir)
        .build()
    )


def test_a_sharded_rerun_under_a_monitor_misses_the_unmonitored_spill(tmp_path, monkeypatch):
    """``<output>/golden_cache`` outlives a run; its ``clean`` flags name no monitor."""
    events = []
    consume = ClassificationTask.consume

    def recording(self, ctx):
        events.append((ctx.step, ctx.monitor.custom_events))
        consume(self, ctx)

    monkeypatch.setattr(ClassificationTask, "consume", recording)
    out = tmp_path / "out"
    run(_lenet_spec(out, golden_cache_mb=64))
    assert any((out / "golden_cache").iterdir())
    monitored = Artifacts(custom_monitors=[RangeMonitor(10.0)])

    def monitored_run(output_dir, **caching):
        events.clear()
        result = run(_lenet_spec(output_dir, **caching), monitored)
        files = {
            tag: Path(path).read_bytes()
            for tag, path in result.output_files.items()
            if tag != "meta"
        }
        return sorted(events, key=lambda item: item[0]), files

    rerun = monitored_run(out, golden_cache_mb=64)
    reference = monitored_run(tmp_path / "reference", prefix_reuse=False)
    assert len(reference[0]) == 24 and any(found for _, found in reference[0])
    assert rerun == reference
