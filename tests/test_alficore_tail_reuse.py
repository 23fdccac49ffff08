"""Tail reuse and the once-per-image golden half of the records.

A faulty pass that reproduces a golden boundary byte for byte ends there and
takes the golden output — at a cached boundary, or without a cache at the one
boundary the golden pass of its own step checkpointed behind the fault — as
long as the golden pass raised no monitor event; behind one that did, the
lane runs the plain full forward.  The contract
under test: every result file, the KPI file and the task state equal the
``caching.prefix_reuse: false`` reference run, while rejoined passes execute
fewer segments.
"""

import dataclasses
import functools
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro import nn
from repro.alficore import GoldenCache
from repro.alficore.campaign import CampaignCore, CampaignTask, ClassificationTask, StepContext
from repro.alficore.goldencache import GoldenCacheEntry
from repro.alficore.monitoring import MonitorResult, RangeMonitor
from repro.data.wrapper import ImageRecord
from repro.experiments import Experiment, run
from repro.experiments.runner import Artifacts
from repro.nn.forward_plan import ForwardPlan, StackedPass

IMAGES = 6


def _spec(model, target, output_dir, scenario=None, protection=None, **caching):
    builder = (
        Experiment.builder()
        .name(model)
        .task("classification")
        .model(model, num_classes=10, seed=0)
        .dataset(
            "synthetic-classification", num_samples=IMAGES, num_classes=10, noise=0.25, seed=3
        )
        .scenario(
            **{
                "injection_target": target, "rnd_bit_range": (23, 30), "random_seed": 50,
                "model_name": model, "dataset_size": IMAGES, "num_runs": 3, **(scenario or {}),
            }
        )
        .caching(**caching)
        .output_dir(output_dir)
    )
    if protection is not None:
        builder.protection(protection)
    return builder.build()


def _canonical(value):
    """Arrays by dtype, shape and bytes; containers element-wise (a pickle
    would also record which logits rows share one cached golden array)."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def _result_bytes(result):
    """Every result file except the meta file (it records the caching knobs),
    plus the task state, bytes and all."""
    files = {
        tag: Path(path).read_bytes()
        for tag, path in result.output_files.items()
        if tag != "meta"
    }
    assert {"golden_csv", "corrupted_csv", "applied_faults", "kpis"} <= set(files)
    state = result.state
    files["state"] = repr(
        {field.name: _canonical(getattr(state, field.name)) for field in dataclasses.fields(state)}
    )
    return files


class Resume(NamedTuple):
    plan: ForwardPlan
    #: the first faulted segment of the step's group (0: the pass started at
    #: the input batch)
    first: int
    start: int
    rejoined_at: int | None
    executed: list
    golden: object


def _while_alone(monkeypatch) -> list:
    """A list that is non-empty while :meth:`CampaignCore._alone` runs: a step
    run again alone, without a shortcut, to check the shortcut's first use."""
    running = []
    alone = CampaignCore._alone

    def spy(self, *args):
        running.append(None)
        try:
            return alone(self, *args)
        finally:
            running.pop()

    monkeypatch.setattr(CampaignCore, "_alone", spy)
    return running


@pytest.fixture
def resumes(monkeypatch):
    """Every pass of a campaign's ``resume_stack`` calls: where its faulted
    segments started, where it joined the stack, where it rejoined, and the
    segments its stack executed while it was in it.  The passes of a step run
    again alone to check a shortcut's first use are left out: the step's
    pass in its block is logged."""
    log = []
    original = ForwardPlan.resume_stack
    # The span of the step each golden pass of the running block belongs to.
    spans: dict[int, tuple[int, int]] = {}
    faulty_block = CampaignCore._faulty_block
    checking = _while_alone(monkeypatch)

    def block(self, lane, todo, *args):
        spans.clear()
        spans.update((id(item.entry), item.plan.span) for item in todo)
        return faulty_block(self, lane, todo, *args)

    def spy(self, passes, regroup=None):
        executed = []
        run_segment = self._executor.run_segment

        def counting(index, value):
            executed.append(index)
            return run_segment(index, value)

        self._executor.run_segment = counting
        try:
            results = original(self, passes, regroup)
        finally:
            del self._executor.run_segment
        stops = [self.num_segments if at is None else at for _, at in results]
        # The stack runs a segment once, and only while a pass is in it.
        assert executed == [
            index
            for index in range(min(stacked.start for stacked in passes), max(stops))
            if any(stacked.start <= index < stop for stacked, stop in zip(passes, stops))
        ]
        for stacked, (_, at), stop in zip(passes, results, stops):
            ran = [index for index in executed if stacked.start <= index < stop]
            if not checking:
                first = spans[id(stacked.golden)][0]
                log.append(Resume(self, first, stacked.start, at, ran, stacked.golden))
        return results

    monkeypatch.setattr(CampaignCore, "_faulty_block", block)
    monkeypatch.setattr(ForwardPlan, "resume_stack", spy)
    return log


@pytest.fixture
def monitor_results(monkeypatch):
    """The monitor result every step hands to the task."""
    seen = []
    consume = ClassificationTask.consume

    def recording(self, ctx):
        seen.append(ctx.monitor.as_dict())
        return consume(self, ctx)

    monkeypatch.setattr(ClassificationTask, "consume", recording)
    return seen


def _assert_segments_match_rejoins(resumes):
    for resume in resumes:
        stop = resume.plan.num_segments if resume.rejoined_at is None else resume.rejoined_at
        assert resume.executed == list(range(resume.start, stop))


@pytest.fixture
def lane_steps(monkeypatch, resumes):
    """Per step of the model under test: ``(golden entry's clean, planned passes)``."""
    steps = []
    faulty_block = CampaignCore._faulty_block

    def recording(self, lane, todo, *args):
        before = len(resumes)
        result = faulty_block(self, lane, todo, *args)
        if lane is self.lanes[0]:
            block = resumes[before:]
            steps.extend(
                (item.entry.clean, sum(resume.golden is item.entry for resume in block))
                for item in todo
            )
        return result

    monkeypatch.setattr(CampaignCore, "_faulty_block", recording)
    return steps


# Some fault-free lenet5 activations exceed 10 and some do not, so a campaign
# under this monitor mixes clean and non-clean golden passes.
MIXED = Artifacts(custom_monitors=[RangeMonitor(bound=10.0)])


def _behind_first_layer(result) -> int:
    """The boundary a pass of a first-layer fault group joins its stack at."""
    plan = result.core.lanes[0].plan
    return plan.last_segment_for(result.core.wrapper.fault_injection.layers[0].name) + 1


def _assert_planned_exactly_behind_clean_golden_passes(lane_steps, resumes):
    cleans = [clean for clean, _ in lane_steps]
    assert True in cleans and False in cleans
    assert [planned for _, planned in lane_steps] == [int(clean) for clean in cleans]
    assert any(resume.rejoined_at is not None for resume in resumes)
    _assert_segments_match_rejoins(resumes)


class TestCampaignsEqualTheReferencePath:
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    @pytest.mark.parametrize("model", ["lenet5", "alexnet", "vgg16"])
    def test_three_epoch_campaign(self, tmp_path, resumes, model, target):
        reference = run(_spec(model, target, tmp_path / "ref", prefix_reuse=False))
        assert resumes == []  # the reference path builds no plan
        reused = run(_spec(model, target, tmp_path / "tail", golden_cache_mb=64))
        assert _result_bytes(reused) == _result_bytes(reference)

        rejoined = [resume for resume in resumes if resume.rejoined_at is not None]
        assert rejoined, "no faulty pass rejoined its golden pass: the test has no teeth"
        assert len(rejoined) == reused.core.golden_cache.stats()["rejoins"]
        _assert_segments_match_rejoins(resumes)
        for resume in rejoined:
            assert len(resume.executed) < resume.plan.num_segments - resume.start

    def test_alexnet_rejoins_to_the_bitwise_equal(self, tmp_path):
        reference = run(_spec("alexnet", "weights", tmp_path / "ref", prefix_reuse=False))
        reused = run(_spec("alexnet", "weights", tmp_path / "tail", golden_cache_mb=64))
        assert reused.core.lanes[0].plan.executor_name == "module"
        assert _result_bytes(reused) == _result_bytes(reference)
        assert reused.core.golden_cache.rejoins > 0

    @pytest.mark.parametrize("target, seed", [("weights", 53), ("neurons", 55)])
    def test_rejoin_waits_for_the_last_faulted_segment(self, tmp_path, monkeypatch, target, seed):
        several = {"max_faults_per_image": 3, "random_seed": seed}
        reference = run(_spec("lenet5", target, tmp_path / "ref", several, prefix_reuse=False))
        reused = run(_spec("lenet5", target, tmp_path / "tail", several, golden_cache_mb=64))
        assert _result_bytes(reused) == _result_bytes(reference)

        # The seeds have teeth: comparing behind the *first* faulted segment
        # ends passes whose later faults have yet to fire.
        original = CampaignCore._faulted_span

        def eager(*args):
            span = original(*args)
            return span and (span[0], span[0])

        monkeypatch.setattr(CampaignCore, "_faulted_span", staticmethod(eager))
        broken = run(_spec("lenet5", target, tmp_path / "eager", several, golden_cache_mb=64))
        assert broken.core.golden_cache.rejoins > reused.core.golden_cache.rejoins
        assert _result_bytes(broken) != _result_bytes(reference)

    def test_only_clean_golden_passes_are_skipped_behind(
        self, tmp_path, resumes, monitor_results, lane_steps
    ):
        reference = run(_spec("lenet5", "weights", tmp_path / "ref", prefix_reuse=False), MIXED)
        expected, monitor_results[:], lane_steps[:] = list(monitor_results), [], []
        reused = run(_spec("lenet5", "weights", tmp_path / "tail", golden_cache_mb=64), MIXED)
        assert monitor_results == expected
        assert _result_bytes(reused) == _result_bytes(reference)
        _assert_planned_exactly_behind_clean_golden_passes(lane_steps, resumes)

    def test_resil_lane_with_a_hardened_model(self, tmp_path, resumes):
        reference = run(
            _spec("lenet5", "weights", tmp_path / "ref", protection="ranger", prefix_reuse=False)
        )
        reused = run(
            _spec("lenet5", "weights", tmp_path / "tail", protection="ranger", golden_cache_mb=64)
        )
        files = _result_bytes(reused)
        assert "resil_csv" in files and files == _result_bytes(reference)
        lanes = {
            resume.plan.model is reused.core.resil_model
            for resume in resumes
            if resume.rejoined_at is not None
        }
        assert lanes == {False, True}  # both lanes rejoined at least once
        _assert_segments_match_rejoins(resumes)


ONE_EPOCH = {"num_runs": 1}
BATCHED = {"num_runs": 1, "batch_size": 4, "inj_policy": "per_batch"}  # 6 images: 4 + 2
FIRST_LAYER = {"layer_range": (0, 0)}


class TestCacheLessCampaigns:
    """One epoch, no store: no golden cache exists, and the golden pass of
    each step checkpoints the one boundary its faulty pass may rejoin at."""

    # Seeds picked so that every campaign masks at least one fault group.
    @pytest.mark.parametrize("model, target, batch_size, first_layer, seed", [
        ("lenet5", "weights", 1, False, 50),
        ("lenet5", "weights", 4, False, 52),
        ("lenet5", "neurons", 1, False, 50),
        ("lenet5", "neurons", 4, False, 52),
        ("lenet5", "neurons", 1, True, 53),
        ("lenet5", "neurons", 4, True, 52),
        ("alexnet", "weights", 1, False, 53),
        ("alexnet", "weights", 4, False, 50),
        ("alexnet", "neurons", 1, False, 51),
        ("alexnet", "neurons", 4, False, 51),
        ("alexnet", "neurons", 1, True, 52),
        ("alexnet", "neurons", 4, True, 50),
        ("resnet18", "weights", 1, False, 50),
        ("resnet18", "weights", 4, False, 54),
        ("resnet18", "neurons", 1, False, 53),
        ("resnet18", "neurons", 4, False, 53),
        ("resnet18", "neurons", 1, True, 52),
        ("resnet18", "neurons", 4, True, 50),
    ])
    def test_single_epoch_campaign(
        self, tmp_path, monkeypatch, resumes, model, target, batch_size, first_layer, seed
    ):
        scenario = {**(ONE_EPOCH if batch_size == 1 else BATCHED), "random_seed": seed}
        if first_layer:
            scenario.update(FIRST_LAYER)
        reference = run(_spec(model, target, tmp_path / "ref", scenario, prefix_reuse=False))
        assert resumes == []

        inferred = []
        infer = CampaignTask.infer
        checking = _while_alone(monkeypatch)

        def recording(self, model, images, batch):
            if not checking:
                inferred.append(model)
            return infer(self, model, images, batch)

        monkeypatch.setattr(CampaignTask, "infer", recording)
        reused = run(_spec(model, target, tmp_path / "tail", scenario))
        assert reused.core.golden_cache is None
        assert _result_bytes(reused) == _result_bytes(reference)

        steps = -(-IMAGES // batch_size)
        assert len(resumes) == steps  # every faulty pass went through the plan
        rejoined = [resume for resume in resumes if resume.rejoined_at is not None]
        assert rejoined and len(rejoined) == reused.core.rejoins
        _assert_segments_match_rejoins(resumes)
        # A pass from the input batch is the task's to run, once each; the
        # golden passes and the mid-network resumes never reach ``infer``.
        from_input = [resume for resume in resumes if resume.first == 0]
        assert len(inferred) == len(from_input)
        assert all(isinstance(resume, functools.partial) for resume in inferred)
        if first_layer:
            assert len(from_input) == steps
            assert any(resume.rejoined_at is not None for resume in from_input)

    def test_alexnet_neuron_passes_rejoin_at_a_checkpoint(self, tmp_path):
        scenario = {**BATCHED, **FIRST_LAYER}
        reference = run(_spec("alexnet", "neurons", tmp_path / "ref", scenario, prefix_reuse=False))
        reused = run(_spec("alexnet", "neurons", tmp_path / "tail", scenario))
        assert reused.core.lanes[0].plan.executor_name == "module"
        assert _result_bytes(reused) == _result_bytes(reference)
        assert reused.core.rejoins > 0

    def test_first_layer_weight_fault_runs_from_the_input_to_the_end(self, tmp_path, resumes):
        # An exponent flip in a first-layer kernel moves a whole channel:
        # nothing to rejoin, and nothing lost by looking for it.
        scenario = {**ONE_EPOCH, **FIRST_LAYER}
        reference = run(_spec("lenet5", "weights", tmp_path / "ref", scenario, prefix_reuse=False))
        reused = run(_spec("lenet5", "weights", tmp_path / "tail", scenario))
        assert _result_bytes(reused) == _result_bytes(reference)
        assert [(resume.first, resume.rejoined_at) for resume in resumes] == [(0, None)] * IMAGES
        assert {resume.start for resume in resumes} == {_behind_first_layer(reused)}
        assert reused.core.rejoins == 0
        _assert_segments_match_rejoins(resumes)

    def test_only_clean_golden_passes_of_first_layer_groups_are_skipped_behind(
        self, tmp_path, resumes, monitor_results, lane_steps
    ):
        scenario = {**ONE_EPOCH, **FIRST_LAYER, "random_seed": 53}
        reference = run(
            _spec("lenet5", "neurons", tmp_path / "ref", scenario, prefix_reuse=False), MIXED
        )
        expected, monitor_results[:], lane_steps[:] = list(monitor_results), [], []
        reused = run(_spec("lenet5", "neurons", tmp_path / "tail", scenario), MIXED)
        assert monitor_results == expected
        assert _result_bytes(reused) == _result_bytes(reference)
        assert [resume.first for resume in resumes] == [0] * len(resumes)
        assert {resume.start for resume in resumes} == {_behind_first_layer(reused)}
        _assert_planned_exactly_behind_clean_golden_passes(lane_steps, resumes)

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_resil_lane_with_a_hardened_model(self, tmp_path, resumes, target):
        reference = run(_spec(
            "lenet5", target, tmp_path / "ref", ONE_EPOCH, protection="ranger", prefix_reuse=False
        ))
        reused = run(_spec("lenet5", target, tmp_path / "tail", ONE_EPOCH, protection="ranger"))
        files = _result_bytes(reused)
        assert "resil_csv" in files and files == _result_bytes(reference)
        rejoined = [resume for resume in resumes if resume.rejoined_at is not None]
        assert len(rejoined) == reused.core.rejoins
        assert len({id(resume.plan) for resume in rejoined}) == 2  # both lanes
        if target == "neurons":
            assert len({id(resume.plan) for resume in rejoined if resume.first == 0}) == 2
        _assert_segments_match_rejoins(resumes)

    def test_shards_of_a_detection_campaign(self, tmp_path, resumes):
        # Shards never see a cache.  One worker keeps them in this process,
        # where the spy can see them.
        from tests.test_alficore_prefix_reuse import _detection_spec, _file_bytes

        serial = {"name": "serial", "workers": 1}
        sharded = {"name": "sharded", "workers": 1, "num_shards": 2}
        reference = run(_detection_spec(
            "yolov3", "neurons", serial, tmp_path / "ref", ONE_EPOCH, prefix_reuse=False
        ))
        reused = run(_detection_spec("yolov3", "neurons", sharded, tmp_path / "tail", ONE_EPOCH))
        assert _file_bytes(reused) == _file_bytes(reference)
        assert len(resumes) == reused.state.inferences == 6
        rejoined = [resume for resume in resumes if resume.rejoined_at is not None]
        assert {resume.first == 0 for resume in rejoined} == {False, True}
        _assert_segments_match_rejoins(resumes)

    def test_rejoin_is_tested_behind_the_last_faulted_segment(self, tmp_path, monkeypatch):
        scenario = {**ONE_EPOCH, "random_seed": 50}
        reference = run(_spec("lenet5", "weights", tmp_path / "ref", scenario, prefix_reuse=False))
        reused = run(_spec("lenet5", "weights", tmp_path / "tail", scenario))
        assert _result_bytes(reused) == _result_bytes(reference)

        # Teeth: the last faulted segment's *input* is a golden boundary too,
        # and every pass equals it -- the fault has yet to fire.
        original = CampaignCore._faulted_span

        def early(*args):
            span = original(*args)
            return span and (span[0], span[1] - 1)

        monkeypatch.setattr(CampaignCore, "_faulted_span", staticmethod(early))
        broken = run(_spec("lenet5", "weights", tmp_path / "early", scenario))
        assert broken.core.rejoins == IMAGES > reused.core.rejoins
        assert _result_bytes(broken) != _result_bytes(reference)


class TestCacheEntryStates:
    """Entries that hold fewer boundaries than the plan offers, entries that
    come back from a spill file, and entries that are gone."""

    def test_entry_recorded_under_narrower_layer_types_and_loaded_from_spill(self, tmp_path):
        cache = GoldenCache(spill_dir=tmp_path / "spill")
        shared = Artifacts(golden_cache=cache)
        # Entries recorded by a campaign over the linear layers only ...
        run(_spec("lenet5", "weights", tmp_path / "narrow", {"layer_types": ["fcc"]}), shared)
        recorded = {frozenset(entry.boundaries) for entry in cache._entries.values()}
        assert len(recorded) == 1
        narrow_rejoins = cache.rejoins
        # ... serve one that faults the second conv layer: the rejoin can only
        # be tested at the linear layers' boundaries (and the resumed-at one).
        conv = {"layer_range": (1, 1), "random_seed": 51}
        reference = run(_spec("lenet5", "weights", tmp_path / "ref", conv, prefix_reuse=False))
        reused = run(_spec("lenet5", "weights", tmp_path / "tail", conv), shared)
        assert _result_bytes(reused) == _result_bytes(reference)
        wanted = {frozenset(entry.boundaries) for entry in cache._entries.values()}
        assert len(wanted) == 1 and next(iter(recorded)) < next(iter(wanted))
        conv_rejoins = cache.rejoins - narrow_rejoins
        assert conv_rejoins > 0

        # A fresh process sees the same entries through the spill directory;
        # what the first campaign derived from them was never written.
        reloaded = GoldenCache(spill_dir=tmp_path / "spill")
        again = run(
            _spec("lenet5", "weights", tmp_path / "spilled", conv),
            Artifacts(golden_cache=reloaded),
        )
        assert _result_bytes(again) == _result_bytes(reference)
        assert reloaded.spill_loads == IMAGES and reloaded.misses == 0
        assert reloaded.rejoins == conv_rejoins
        assert "derived" not in next(iter(cache._entries.values())).as_state()

    def test_a_handed_in_cache_is_refused_with_custom_monitors(self, tmp_path):
        # Filled without custom monitors, every entry reads clean; under
        # RangeMonitor(10.0) some of those golden passes would not be.
        cache = GoldenCache()
        run(_spec("lenet5", "weights", tmp_path / "plain"), Artifacts(golden_cache=cache))
        before = cache.stats()
        assert before["entries"] == IMAGES
        monitored = Artifacts(golden_cache=cache, custom_monitors=MIXED.custom_monitors)
        with pytest.raises(ValueError, match="golden_cache cannot be combined with custom_monitors"):
            run(_spec("lenet5", "weights", tmp_path / "monitored"), monitored)
        assert cache.stats() == before

    def test_evicted_entry_takes_its_memo_with_it(self):
        cache = GoldenCache(byte_budget=1)
        output = np.zeros((1, 10), dtype=np.float32)
        first = cache.put(("a",), output)
        first.derived["memo"] = object()
        cache.put(("b",), output)  # over budget: the older entry goes
        assert cache.get(("a",)) is None and cache.evictions == 1
        assert cache.put(("a",), output).derived == {}

    def test_golden_half_is_rebuilt_when_label_or_file_name_differ(self):
        output = np.arange(10, dtype=np.float32)[None]

        def half(derived, label, file_name):
            record = ImageRecord(
                image=np.zeros((3, 4, 4), np.float32), image_id=7, file_name=file_name,
                height=4, width=4, target=label,
            )
            ctx = StepContext(
                batch=[record], epoch=0, step=0, group_index=0, golden=output,
                corrupted=output, applied=[], monitor=MonitorResult(),
                collect_applied=False, golden_derived=derived,
            )
            return ClassificationTask._golden_half(ctx, output)

        derived: dict = {}
        first = half(derived, 9, "a.png")
        assert half(derived, 9, "a.png") is first
        labels, classes, _, top1_hits, top5_hits, rows = first
        assert (labels, classes[0][0], top1_hits, top5_hits) == ([9], 9, [1], [1])
        relabelled = half(derived, 0, "a.png")
        assert relabelled is not first and relabelled[3:5] == ([0], [0])
        renamed = half(derived, 9, "b.png")
        assert renamed[5][0][1] == "b.png" and rows[0][1] == "a.png"
        assert len(derived) == 3
        # Without a golden pass to pin it to, nothing is kept.
        assert half(None, 9, "a.png") is not first


class _ListNeck(nn.Module):
    """Hands its activation on inside a list, like a detector's feature pyramid."""

    def forward(self, x):
        return [x]


class _ListHead(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.linear = nn.Linear(8, 4, rng=rng)

    def forward(self, features):
        return self.linear(features[0])


class _ListNet(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.body = nn.Linear(6, 8, rng=rng)
        self.neck = _ListNeck()
        self.head = _ListHead(rng)

    def forward(self, x):
        return self.head(self.neck(self.body(x)))


class TestResumeAgainstAGoldenPass:
    @staticmethod
    def _recorded(model, x):
        plan = ForwardPlan.trace(model, x[:1])
        assert plan.valid
        output, boundaries = plan.run_recording(x, "all")
        return plan, GoldenCacheEntry(output, boundaries)

    def test_boundaries_that_are_not_arrays_never_rejoin(self):
        x = np.random.default_rng(1).standard_normal((2, 6)).astype(np.float32)
        plan, golden = self._recorded(_ListNet().eval(), x)
        assert plan.segment_names == ["body", "neck", "head"]
        assert isinstance(golden.boundaries[2], list)  # the head's input
        assert not plan.stackable
        ((output, rejoined_at),) = plan.resume_stack([StackedPass(2, golden.boundaries[2], golden)])
        assert rejoined_at is None
        assert output is not golden.output and output.tobytes() == golden.output.tobytes()

    def test_byte_comparison_is_nan_and_signed_zero_exact(self):
        from repro.models import lenet5
        from repro.nn.forward_plan import _bitwise_equal

        nan = np.array([1.0, np.nan, 0.0], dtype=np.float32)
        assert _bitwise_equal(nan, nan.copy()) and not (nan == nan.copy()).all()
        assert not _bitwise_equal(nan, np.array([1.0, np.nan, -0.0], dtype=np.float32))
        assert not _bitwise_equal(nan, nan.astype(np.float64))
        assert not _bitwise_equal(nan, nan.reshape(1, 3))
        payload = nan.copy()
        payload.view(np.uint32)[1] ^= 1  # still a NaN, another one
        assert np.isnan(payload[1]) and not _bitwise_equal(nan, payload)
        # Memory layout is not content, and no element size is left out.
        wide = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert _bitwise_equal(wide[:, ::2], wide[:, ::2].copy())
        assert _bitwise_equal(wide.T, np.ascontiguousarray(wide.T))
        for dtype in (np.bool_, np.float16, np.int64, np.complex128):
            values = np.array([0, 1, 1], dtype=dtype)
            assert _bitwise_equal(values, values.copy())
            assert not _bitwise_equal(values, values[::-1])
        assert _bitwise_equal(np.float32(-0.0)[...], np.float32(-0.0)[...])
        assert not _bitwise_equal(np.float32(-0.0)[...], np.float32(0.0)[...])

        x = np.random.default_rng(2).standard_normal((1, 3, 32, 32)).astype(np.float32)
        plan, golden = self._recorded(lenet5(seed=0).eval(), x)
        start, later = sorted(golden.boundaries)[:2]
        # An unfaulted suffix reproduces the very next checkpoint ...
        behind = plan.run_range(start, start + 1, golden.boundaries[start])
        unfaulted = StackedPass(start + 1, behind, golden)
        ((output, rejoined_at),) = plan.resume_stack([unfaulted])
        assert output is golden.output and rejoined_at == later
        # ... but not one that equals it only numerically.
        signed = golden.boundaries[later].copy()
        zeros = np.flatnonzero(signed == 0)
        assert zeros.size  # a ReLU output
        signed.reshape(-1)[zeros[0]] = -0.0
        assert np.array_equal(signed, golden.boundaries[later])
        golden.boundaries[later] = signed
        ((_, rejoined_at),) = plan.resume_stack([unfaulted])
        assert rejoined_at is not None and rejoined_at > later
        # Boundaries before the one a pass joins at are not compared at all.
        output = plan.resume(start, golden.boundaries[start])
        joined = StackedPass(plan.num_segments, output, golden)
        ((_, rejoined_at),) = plan.resume_stack([joined])
        assert rejoined_at is None

    def test_a_module_shared_by_two_segments_counts_until_its_last_call(self):
        class Block(nn.Module):
            def __init__(self, inner):
                super().__init__()
                self.inner = inner

            def forward(self, x):
                return x + self.inner(x)

        class Twice(nn.Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(3)
                shared = nn.Linear(5, 5, rng=rng)
                self.first = Block(shared)
                self.middle = nn.Linear(5, 5, rng=rng)
                self.second = Block(shared)

            def forward(self, x):
                return self.second(self.middle(self.first(x)))

        x = np.random.default_rng(4).standard_normal((1, 5)).astype(np.float32)
        plan = ForwardPlan.trace(Twice().eval(), x)
        assert plan.valid and plan.segment_names == ["first", "middle", "second"]
        assert (plan.segment_for("first.inner"), plan.last_segment_for("first.inner")) == (0, 2)
        assert (plan.segment_for("middle"), plan.last_segment_for("middle")) == (1, 1)
        assert plan.last_segment_for("absent") is None
