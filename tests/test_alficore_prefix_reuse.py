"""Prefix-reuse faulty inference and the epoch-invariant golden cache.

The contract under test: suffix-only faulty forwards (and golden passes
served from the cache) are *bit-identical* to the plain full-forward path —
same stream-file bytes, same logits, same KPI summaries — for weight and
neuron error models, with and without a hardened resil lane, serial and
sharded.
"""


import numpy as np
import pytest

from benchmarks.conftest import run_campaign, run_streaming, streaming_kpis
from repro.alficore import (
    CampaignResultWriter,
    GoldenCache,
    apply_protection,
    collect_activation_bounds,
    default_scenario,
)
from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.models import lenet5, resnet18
from repro.models.detection import yolov3_tiny
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=4)
    model = fit_classifier_head(lenet5(seed=2), dataset, 10)
    return model, dataset


def _stream_bytes(output_files, tags):
    return {tag: open(output_files[tag], "rb").read() for tag in tags}


class TestSuffixOnlyBitExactness:
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_streams_byte_identical_to_full_forward(
        self, fitted_model_and_dataset, tmp_path, target
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=21,
            num_runs=2, model_name="reuse",
        )

        def run(sub, reuse):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="reuse")
            return run_streaming(model, dataset, scenario, writer=writer, prefix_reuse=reuse)

        full = run(f"{target}_full", False)
        reused = run(f"{target}_reuse", True)
        tags = ("golden_csv", "corrupted_csv", "applied_faults")
        assert _stream_bytes(full.output_files, tags) == _stream_bytes(reused.output_files, tags)
        assert streaming_kpis(full) == streaming_kpis(reused)

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_logits_bit_identical_per_error_model(self, fitted_model_and_dataset, target):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=22
        )

        def run(reuse):
            return run_campaign(
                "classification", model, dataset, scenario,
                model_name="bits", prefix_reuse=reuse, num_faults=2,
            )

        full, reused = run(False), run(True)
        for buffer in ("corrupted_logits", "golden_logits", "due_flags"):
            assert full.extras[buffer].tobytes() == reused.extras[buffer].tobytes()
        assert full.summary["corrupted"] == reused.summary["corrupted"]

    def test_residual_model_with_atomic_blocks(self, fitted_model_and_dataset):
        _, dataset = fitted_model_and_dataset
        model = fit_classifier_head(resnet18(num_classes=10, seed=3), dataset, 10)
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=23
        )
        full = run_streaming(model, dataset, scenario, prefix_reuse=False)
        reused = run_streaming(model, dataset, scenario, prefix_reuse=True)
        assert streaming_kpis(full) == streaming_kpis(reused)

    def test_weights_restored_bit_exactly_with_prefix_reuse(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=24, num_runs=2
        )
        run_streaming(model, dataset, scenario, prefix_reuse=True, golden_cache=GoldenCache())
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_resil_lane_bit_identical(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        bounds = collect_activation_bounds(model, [calibration])
        hardened = apply_protection(model, bounds, "ranger")
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(30, 30), random_seed=25
        )

        def run(sub, reuse, cache):
            return run_campaign(
                "classification", model, dataset, scenario,
                resil_model=hardened, model_name="resil", output_dir=tmp_path / sub,
                prefix_reuse=reuse, golden_cache=GoldenCache() if cache else None,
                num_faults=1, num_runs=2,
            )

        full = run("full", False, False)
        reused = run("reuse", True, True)
        assert "resil" in full.results and "resil" in reused.results
        for buffer in ("resil_logits", "corrupted_logits"):
            assert full.extras[buffer].tobytes() == reused.extras[buffer].tobytes()
        assert open(full.output_files["resil_csv"], "rb").read() == open(
            reused.output_files["resil_csv"], "rb").read()

    def test_registration_order_differs_from_execution_order(self):
        # Layer indices follow registration order; here the head is
        # registered before the body but executes last.  A group faulting
        # both layers must resume from the body's (earlier) segment, or the
        # patched body would never be re-executed.
        from repro import nn
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        class OutOfOrderNet(nn.Module):
            def __init__(self, seed=0):
                super().__init__()
                rng = np.random.default_rng(seed)
                self.head = nn.Linear(32, 10, rng=rng)  # registered first, runs last
                self.flatten = nn.Flatten()
                self.body = nn.Linear(3 * 32 * 32, 32, rng=rng)

            def forward(self, x):
                return self.head(self.body(self.flatten(x)))

        dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=9)
        model = OutOfOrderNet().eval()
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=34, num_runs=2
        )
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        images = np.stack([dataset[i][0] for i in range(2)])
        plan = core._plan_for(core.lanes[0], images)
        body_segment = plan.segment_for("body")
        head_segment = plan.segment_for("head")
        assert body_segment < head_segment  # execution order, not registration

        class FakeGroup:
            faulted_layers = [0, 1]  # head and body

        span = core._faulted_span(plan, core.wrapper, FakeGroup())
        assert span == (body_segment, head_segment)

        full = run_streaming(model, dataset, scenario, prefix_reuse=False)
        reused = run_streaming(model, dataset, scenario, prefix_reuse=True)
        assert streaming_kpis(full) == streaming_kpis(reused)

    def test_detection_campaign_unchanged_by_prefix_reuse(self, tmp_path):
        dataset = CocoLikeDetectionDataset(num_samples=4, num_classes=5, seed=6)
        model = yolov3_tiny(num_classes=5, seed=0).eval()
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=26
        )

        def run(sub, reuse):
            return run_campaign(
                "detection", model, dataset, scenario,
                model_name="det", output_dir=tmp_path / sub, prefix_reuse=reuse, num_faults=1,
            )

        full, reused = run("full", False), run("reuse", True)
        tags = ("golden_json", "corrupted_json", "applied_faults")
        assert _stream_bytes(full.output_files, tags) == _stream_bytes(reused.output_files, tags)
        assert full.summary["corrupted"] == reused.summary["corrupted"]


class TestDiscoveryFailuresAreLoud:
    """A plan that cannot be built costs speed and never bytes — and says so
    once per lane (a lane is one model object)."""

    @staticmethod
    def _stream_files(model, dataset, out, target="weights", **core):
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=52,
            inj_policy="per_batch", batch_size=4, num_runs=2, model_name="loud",
        )
        writer = CampaignResultWriter(out, campaign_name="loud")
        paths = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario, writer=writer, **core
        ).run()
        return _stream_bytes(paths, paths)

    @staticmethod
    def _runtime_warnings(caught):
        return [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_model_that_rejects_one_sample_runs_full_forwards_with_a_warning(
        self, fitted_model_and_dataset, tmp_path
    ):
        from repro import nn

        class NoSingles(nn.Module):
            def __init__(self, net):
                super().__init__()
                self.net = net

            def forward(self, x):
                if len(x) == 1:
                    raise ValueError("cannot run a batch of one")
                return self.net(x)

        fitted, _ = fitted_model_and_dataset
        dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=4)
        model = NoSingles(fitted).eval()
        reference = self._stream_files(model, dataset, tmp_path / "full", prefix_reuse=False)
        with pytest.warns(RuntimeWarning, match="no forward plan") as caught:
            files = self._stream_files(model, dataset, tmp_path / "reuse")
        assert files and files == reference
        (message,) = self._runtime_warnings(caught)
        assert "NoSingles" in message
        assert "cannot run a batch of one" in message

    @pytest.mark.parametrize("lanes", [1, 2])
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    @pytest.mark.parametrize("defect", ["differs", "raises"])
    def test_untrustworthy_replay_is_dropped_once_per_model(
        self, fitted_model_and_dataset, tmp_path, monkeypatch, defect, target, lanes
    ):
        """A plan whose replay of the traced sample does not give the traced
        output is never used or recorded: the lane runs full forwards, and the
        replay is tried once per model, not once per step."""
        from repro.nn import ir
        from repro.nn.record import model_record

        fitted, dataset = fitted_model_and_dataset
        # Fresh objects: a model with a recorded plan would not be traced again.
        models = [fitted.clone() for _ in range(lanes)]
        resil = {"resil_model": models[1]} if lanes == 2 else {}
        reference = self._stream_files(
            models[0], dataset, tmp_path / "full", target, prefix_reuse=False, **resil
        )
        module_segment = ir.ModuleExecutor.run_segment
        replays = []

        def untrustworthy(executor, index, value):
            if index == 0:
                replays.append(executor.plan.model)
            if defect == "raises":
                return 1 // 0
            return module_segment(executor, index, value) + np.float32(index == 0)

        monkeypatch.setattr(ir.ModuleExecutor, "run_segment", untrustworthy)
        files = self._stream_files(models[0], dataset, tmp_path / "reuse", target, **resil)
        assert files and files == reference
        assert len(replays) == lanes and {id(m) for m in replays} == {id(m) for m in models}
        assert all(model_record(model).plan is None for model in models)


class TestForwardBudget:
    """Plan discovery probes with one sample: the only campaign-sized
    forwards are the ones that produce a record (and the wrapper's shape
    probe), stacked into blocks of up to 16 rows."""

    @pytest.mark.parametrize("images", [16, 17, 19])  # last batch: full, 1, 3
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_discovery_runs_one_sample_and_lanes_run_once(
        self, tmp_path, monkeypatch, target, images
    ):
        from repro.experiments import Experiment, run
        from repro.models.classification import ResNet
        from repro.nn.forward_plan import ForwardPlan

        batch_size = 8
        tracing = []  # non-empty while a ForwardPlan.trace is on the stack
        traced, probing, passes, roots = [], [], [], []
        rejoins = []  # per resume_stack call: where each of its passes rejoined

        def spy(owner, name, size_of):
            original = getattr(owner, name)

            def wrapped(self, *args, **kwargs):
                (probing if tracing else passes).append((name, size_of(*args)))
                if owner is ResNet:
                    roots.append(self)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        original_trace = ForwardPlan.trace.__func__

        def trace(cls, model, example_input, executor="module"):
            traced.append(example_input.shape[0])
            tracing.append(model)
            try:
                return original_trace(cls, model, example_input, executor=executor)
            finally:
                tracing.pop()

        def spec(sub, **caching):
            return (
                Experiment.builder()
                .name("budget")
                .model("resnet18", num_classes=10, seed=3)
                .dataset("synthetic-classification", num_samples=images, num_classes=10, seed=5)
                .scenario(
                    injection_target=target, rnd_bit_range=(23, 30), random_seed=51,
                    inj_policy="per_batch", batch_size=batch_size, model_name="budget",
                )
                .options(fit_head=False)  # the head fit runs its own forwards
                .caching(**caching)
                .output_dir(tmp_path / sub)
                .build()
            )

        full = run(spec("full", prefix_reuse=False))
        monkeypatch.setattr(ForwardPlan, "trace", classmethod(trace))
        # Root calls of the lane's one model object (golden and faulty pass,
        # weights and neurons) and the plan's own full-batch entry points:
        # every way a whole batch gets forwarded.
        spy(ResNet, "__call__", lambda x: x.shape[0])
        spy(ForwardPlan, "run_recording", lambda x, *rest: x.shape[0])
        spy(ForwardPlan, "resume", lambda start, activation: activation.shape[0])
        resume_stack = ForwardPlan.resume_stack

        def stacked(self, stacked_passes, regroup=None):
            passes.append(("resume_stack", sum(len(p.activation) for p in stacked_passes)))
            results = resume_stack(self, stacked_passes, regroup)
            rejoins.append([at for _, at in results])
            return results

        monkeypatch.setattr(ForwardPlan, "resume_stack", stacked)
        reused = run(spec("reuse"))

        assert _file_bytes(full) == _file_bytes(reused)
        # One trace for the one lane — a neuron campaign hooks the model it
        # was given, so it has no second object to trace: a hooked forward
        # and its replay.
        assert traced == [1]
        assert probing == [("__call__", 1), ("resume", 1)]
        assert roots and all(model is reused.core.model for model in roots)
        steps = [min(batch_size, images - start) for start in range(0, images, batch_size)]
        # The first step learns the plan and runs alone; behind it, blocks of
        # 16 rows: two steps.
        blocks = [[0]] + [
            list(range(first, min(first + 2, len(steps)))) for first in range(1, len(steps), 2)
        ]
        fault_rows = reused.wrapper.get_fault_matrix().matrix[0]

        def faulty_rows(step):
            # A neuron group's faulty pass runs only its faulted row when the
            # batch has it and others.
            sparse = target == "neurons" and fault_rows[step] < steps[step] and steps[step] > 1
            return 1 if sparse else steps[step]

        # The shape probe, then per block: one golden pass over its rows and
        # one stack of its faulty suffixes (the segments of the faults ran per
        # step and are not spied).  The lane's first block of several steps
        # runs one step again alone, golden pass and faulty pass: the first
        # one that did not rejoin.  So does the lane's first sparse step: its
        # second pass runs the whole batch and shares its golden pass.
        expected = [("__call__", batch_size)]
        checked = False
        stacks = iter(rejoins)
        for block in blocks:
            expected.append(("run_recording", sum(steps[step] for step in block)))
            faulty = [faulty_rows(step) for step in block]
            expected.append(("resume_stack", sum(faulty)))
            at = next(stacks)
            if block == [0] and faulty[0] < steps[0]:
                expected.append(("resume_stack", steps[0]))
                next(stacks)
            if len(block) > 1 and not checked:
                checked = True
                chosen = next((index for index, where in enumerate(at) if where is None), 0)
                expected.append(("run_recording", steps[block[chosen]]))
                expected.append(("resume_stack", faulty[chosen]))
                next(stacks)
        assert next(stacks, None) is None
        # ``resume`` runs a stack's tail inside ``resume_stack`` only.
        assert [pass_ for pass_ in passes if pass_[0] != "resume"] == expected


def _detection_spec(detector, target, backend, output_dir, scenario=None, **caching):
    from repro.experiments import Experiment

    images = 6
    return (
        Experiment.builder()
        .name(detector)
        .task("detection")
        .model(detector, num_classes=5, seed=1)
        .dataset("synthetic-coco", num_samples=images, num_classes=5, seed=9)
        .scenario(
            **{
                "injection_target": target, "rnd_bit_range": (23, 30), "random_seed": 77,
                "model_name": detector, "dataset_size": images, "num_runs": 2,
                **(scenario or {}),
            }
        )
        .backend(**backend)
        .caching(**caching)
        .output_dir(output_dir)
        .build()
    )


def _file_bytes(result):
    return {tag: open(path, "rb").read() for tag, path in result.output_files.items()}


class TestDetectionCampaigns:
    """Detectors end in a post-processing module, so their plans are chains
    and the faulty pass resumes at the faulted layer — with the same bytes."""

    @pytest.mark.parametrize("backend", [
        {"name": "serial", "workers": 1},
        {"name": "sharded", "workers": 2, "num_shards": 2},
    ], ids=["serial", "sharded"])
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    @pytest.mark.parametrize("detector", ["yolov3", "retinanet", "faster_rcnn"])
    def test_files_byte_identical_with_and_without_prefix_reuse(
        self, tmp_path, monkeypatch, detector, target, backend
    ):
        from repro.experiments import run
        from repro.nn.forward_plan import ForwardPlan

        starts = []
        original = ForwardPlan.resume

        def counting(self, start, activation, **golden):
            starts.append(start)
            return original(self, start, activation, **golden)

        monkeypatch.setattr(ForwardPlan, "resume", counting)
        full = run(_detection_spec(detector, target, backend, tmp_path / "full", prefix_reuse=False))
        assert starts == []  # the reference path builds no plan
        reused = run(_detection_spec(detector, target, backend, tmp_path / "reuse"))
        assert _file_bytes(full) == _file_bytes(reused)
        assert full.summary["corrupted"] == reused.summary["corrupted"]
        if backend["name"] == "serial":
            # Suffix-only lanes really ran (workers count in their own process).
            assert any(start > 0 for start in starts)

    @pytest.mark.parametrize("backend", [
        {"name": "serial", "workers": 1},
        {"name": "sharded", "workers": 1, "num_shards": 2},
    ], ids=["serial", "sharded"])
    def test_batched_campaign_on_a_plan_probed_with_one_image(
        self, tmp_path, monkeypatch, backend
    ):
        # The plan is traced and validated on a one-image list of detections
        # and then runs batches of 4 and a last batch of 2.  One worker keeps
        # the shards in this process, where the spy can see them.
        from repro.experiments import run
        from repro.nn.forward_plan import ForwardPlan

        resumed = []
        original = ForwardPlan.resume

        def counting(self, start, activation, **golden):
            resumed.append((start, len(activation)))
            return original(self, start, activation, **golden)

        monkeypatch.setattr(ForwardPlan, "resume", counting)
        batched = {"batch_size": 4, "inj_policy": "per_batch"}
        full = run(_detection_spec(
            "yolov3", "weights", backend, tmp_path / "full", batched, prefix_reuse=False
        ))
        assert resumed == []
        reused = run(_detection_spec("yolov3", "weights", backend, tmp_path / "reuse", batched))
        assert _file_bytes(full) == _file_bytes(reused)
        suffixes = [batch for start, batch in resumed if start > 0]
        assert suffixes and set(suffixes) == {4, 2}
        # resume(0, x) is the trace's replay, and only ever sees one image.
        assert {batch for start, batch in resumed if start == 0} == {1}

    @pytest.mark.parametrize("detector", ["yolov3", "retinanet", "faster_rcnn"])
    def test_second_epoch_is_served_from_the_golden_cache(self, tmp_path, detector):
        from repro.experiments import run

        serial = {"name": "serial", "workers": 1}
        full = run(_detection_spec(detector, "weights", serial, tmp_path / "full", prefix_reuse=False))
        cached = run(_detection_spec(detector, "weights", serial, tmp_path / "on", golden_cache_mb=8))
        cache = cached.core.golden_cache
        images = cached.spec.dataset.params["num_samples"]
        assert (cache.misses, cache.hits) == (images, images)
        assert _file_bytes(full) == _file_bytes(cached)


    def test_each_lane_converts_and_scans_its_detections_once(self, tmp_path, monkeypatch):
        from repro.experiments import run
        from repro.models.detection.detectors import Detection

        calls = {"as_dict": 0, "has_nan": 0, "has_inf": 0}
        for name in calls:
            original = getattr(Detection, name)

            def counting(self, _name=name, _original=original):
                calls[_name] += 1
                return _original(self)

            monkeypatch.setattr(Detection, name, counting)
        serial = {"name": "serial", "workers": 1}
        # Mantissa flips: every output stays finite, so no image is rescanned.
        result = run(_detection_spec(
            "yolov3", "weights", serial, tmp_path / "out", {"rnd_bit_range": (0, 8)}
        ))
        inferences = result.state.inferences
        assert inferences == 12 and not any(result.state.due_flags)
        assert calls == {"as_dict": 2 * inferences, "has_nan": 0, "has_inf": 0}


class TestGoldenCache:
    def test_per_epoch_cache_on_vs_off_byte_identical_streams(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=27,
            inj_policy="per_epoch", batch_size=4, num_runs=3, model_name="cache",
        )

        def run(sub, cache):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="cache")
            return run_streaming(
                model, dataset, scenario, writer=writer, prefix_reuse=True, golden_cache=cache
            )

        cache = GoldenCache()
        cold = run("off", None)
        warm = run("on", cache)
        tags = ("golden_csv", "corrupted_csv", "applied_faults")
        assert _stream_bytes(cold.output_files, tags) == _stream_bytes(warm.output_files, tags)
        # Epochs 2 and 3 must be served from the epoch-invariant entries.
        assert cache.hits > 0
        stats = cache.stats()
        assert stats["entries"] > 0 and stats["nbytes"] > 0

    def test_peek_neither_counts_nor_reorders(self, tmp_path):
        spill = tmp_path / "spill"
        writer = GoldenCache(spill_dir=spill)
        for key in ("a", "b"):
            writer.put((key,), np.full(4, ord(key), dtype=np.float32))
        cache = GoldenCache(byte_budget=16, spill_dir=spill)  # holds one entry
        cache.put(("a",), writer.peek(("a",)).output)
        before = cache.stats()
        assert cache.peek(("a",)) is cache._entries[("a",)]
        # A spilled entry is read, not kept: the counted get loads it.
        assert cache.peek(("b",)).output.tobytes() == writer.peek(("b",)).output.tobytes()
        assert cache.peek(("c",)) is None
        assert cache.stats() == before and list(cache._entries) == [("a",)]
        assert cache.get(("b",)) is not None and list(cache._entries) == [("b",)]
        assert (cache.hits, cache.spill_loads) == (1, 1)

    def test_cache_reuse_across_campaigns_via_spillover(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=28, num_runs=2
        )
        spill = tmp_path / "spill"
        baseline = run_streaming(model, dataset, scenario, prefix_reuse=True)
        first = run_streaming(
            model, dataset, scenario, prefix_reuse=True,
            golden_cache=GoldenCache(spill_dir=spill),
        )
        # A fresh in-memory cache sharing the spill dir starts warm, as a
        # shard process reusing another shard's golden passes would.
        second_cache = GoldenCache(spill_dir=spill)
        second = run_streaming(
            model, dataset, scenario, prefix_reuse=True, golden_cache=second_cache
        )
        assert second_cache.hits > 0
        assert streaming_kpis(baseline) == streaming_kpis(first) == streaming_kpis(second)

    def test_stale_spillover_entries_never_match_changed_weights(
        self, fitted_model_and_dataset, tmp_path
    ):
        # Spillover directories outlive a campaign (e.g. reruns into the
        # same output dir): entries recorded for different weights must miss,
        # not be served as golden truth.
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=33, num_runs=2
        )
        spill = tmp_path / "spill"
        run_streaming(
            model, dataset, scenario, prefix_reuse=True,
            golden_cache=GoldenCache(spill_dir=spill),
        )

        mutated = model.clone()
        first_param = next(iter(mutated.parameters()))
        first_param.data[...] = first_param.data * 1.5
        baseline = run_streaming(mutated, dataset, scenario, prefix_reuse=False)
        stale_cache = GoldenCache(spill_dir=spill)
        reused = run_streaming(
            mutated, dataset, scenario, prefix_reuse=True, golden_cache=stale_cache
        )
        assert streaming_kpis(baseline) == streaming_kpis(reused)
        # The old entries were keyed under the old model identity.
        assert stale_cache.misses > 0

    def test_tiny_budget_evicts_but_stays_correct(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=29, num_runs=2
        )
        tiny = GoldenCache(byte_budget=1)  # evicts everything but the newest entry
        baseline = run_streaming(model, dataset, scenario, prefix_reuse=True)
        constrained = run_streaming(
            model, dataset, scenario, prefix_reuse=True, golden_cache=tiny
        )
        assert len(tiny) <= 2
        assert streaming_kpis(baseline) == streaming_kpis(constrained)

    def test_neuron_campaign_with_cache_matches_baseline(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=30, num_runs=2)
        baseline = run_streaming(model, dataset, scenario, prefix_reuse=False)
        cached = run_streaming(
            model, dataset, scenario, prefix_reuse=True, golden_cache=GoldenCache()
        )
        assert streaming_kpis(baseline) == streaming_kpis(cached)

    def test_stale_spillover_entries_never_match_changed_dataset(
        self, fitted_model_and_dataset, tmp_path
    ):
        # Same ids, same length, different pixels: the per-batch image
        # digest in the cache key must prevent stale spillover hits.
        model, _ = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=35, num_runs=2
        )
        spill = tmp_path / "spill"
        old_dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=11)
        run_streaming(
            model, old_dataset, scenario, prefix_reuse=True,
            golden_cache=GoldenCache(spill_dir=spill),
        )
        new_dataset = SyntheticClassificationDataset(num_samples=8, num_classes=10, noise=0.2, seed=12)
        baseline = run_streaming(model, new_dataset, scenario, prefix_reuse=False)
        reused = run_streaming(
            model, new_dataset, scenario, prefix_reuse=True,
            golden_cache=GoldenCache(spill_dir=spill),
        )
        assert streaming_kpis(baseline) == streaming_kpis(reused)

    def test_core_keeps_any_cache_it_is_given(self, fitted_model_and_dataset):
        # Whether a cache can hit is its owner's call: a sweep hands the same
        # in-memory cache to many single-epoch campaigns.
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=36, num_runs=1)
        shared = GoldenCache()
        for _ in range(2):
            core = CampaignCore(
                model, dataset, ClassificationTask(), scenario=scenario, golden_cache=shared
            )
            assert core.golden_cache is shared
            core.run()
        assert (shared.misses, shared.hits) == (len(dataset), len(dataset))

    def test_same_ids_and_bytes_under_another_shape_miss(self, tmp_path):
        # The key holds the batch's ids, a digest of its pixel bytes and its
        # shape: the same ids and bytes read as (3, 16, 64) images are
        # another input, in memory and in the spill directory.
        from repro.alficore.campaign import CampaignCore, ClassificationTask
        from repro.models import mlp

        class Reshaped(SyntheticClassificationDataset):
            def __getitem__(self, index):
                image, label = super().__getitem__(index)
                return image.reshape(3, 16, 64), label

        model = mlp(num_classes=10, seed=0).eval()
        scenario = default_scenario(injection_target="weights", random_seed=38, dataset_size=4)
        shared = GoldenCache(spill_dir=tmp_path / "spill")
        for dataset_cls in (SyntheticClassificationDataset, Reshaped):
            dataset = dataset_cls(num_samples=4, num_classes=10, noise=0.2, seed=5)
            CampaignCore(
                model, dataset, ClassificationTask(), scenario=scenario, golden_cache=shared
            ).run()
        assert (shared.misses, shared.hits, len(shared)) == (8, 0, 8)
        assert len(list((tmp_path / "spill").glob("golden_*.pkl"))) == 8

    @pytest.mark.parametrize("num_runs,built", [(1, False), (2, True)])
    def test_spec_run_builds_no_private_cache_for_a_single_epoch(self, num_runs, built):
        # A cache run(spec) builds is private to that campaign: with one
        # epoch it could never hit, so none is built.
        from repro.experiments import Experiment, run

        spec = (
            Experiment.builder()
            .name("private")
            .model("lenet5", num_classes=10, seed=0)
            .dataset("synthetic-classification", num_samples=4, num_classes=10, seed=1)
            .scenario(injection_target="weights", random_seed=37, num_runs=num_runs)
            .caching(golden_cache_mb=8)
            .build()
        )
        assert (run(spec).core.golden_cache is not None) is built

    def test_cache_rejects_invalid_budget(self):
        with pytest.raises(ValueError):
            GoldenCache(byte_budget=0)

    def test_detection_outputs_are_booked_at_their_array_sizes(self):
        from repro.alficore.goldencache import GoldenCacheEntry

        class Detections:
            boxes = np.zeros((7, 4), dtype=np.float32)
            scores = np.zeros(7, dtype=np.float32)
            labels = np.zeros(7, dtype=np.int64)

        entry = GoldenCacheEntry([Detections(), Detections()])
        assert entry.nbytes == 2 * (7 * 4 * 4 + 7 * 4 + 7 * 8)


def _injectable_segments(plan, wrapper):
    """Segments holding an injectable layer (boundary 0 is the input itself)."""
    segments = {plan.segment_for(layer.name) for layer in wrapper.fault_injection.layers}
    return segments - {0, None}


class TestCachedBoundaries:
    """A cached golden pass checkpoints exactly the boundaries a fault group
    can resume at; anything else falls back to a prefix pass."""

    @staticmethod
    def _core(model, dataset, cache, **scenario):
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), **scenario
        )
        return CampaignCore(
            model, dataset, ClassificationTask(collect_outputs=True), scenario=scenario,
            golden_cache=cache,
        )

    @pytest.mark.parametrize("name", ["lenet5", "alexnet", "vgg16"])
    def test_entries_hold_the_injectable_layer_segments(self, name):
        from repro.models import build_model

        dataset = SyntheticClassificationDataset(num_samples=2, num_classes=10, seed=7)
        model = build_model(name, num_classes=10, seed=0).eval()
        cache = GoldenCache()
        core = self._core(model, dataset, cache, random_seed=40)
        core.run()
        plan = core.lanes[0].plan
        expected = _injectable_segments(plan, core.wrapper)
        assert expected and expected < set(range(1, plan.num_segments))
        assert len(cache) == len(dataset)
        for entry in cache._entries.values():
            assert set(entry.boundaries) == expected

    def test_unrecorded_boundary_is_served_by_a_prefix_pass(
        self, fitted_model_and_dataset, monkeypatch
    ):
        from repro.nn.forward_plan import ForwardPlan

        model, dataset = fitted_model_and_dataset
        cache = GoldenCache()
        # Entries recorded by a campaign over the linear layers only ...
        narrow = self._core(model, dataset, cache, random_seed=41, layer_types=["fcc"])
        narrow.run()
        plan = narrow.lanes[0].plan
        recorded = _injectable_segments(plan, narrow.wrapper)
        assert all(set(entry.boundaries) == recorded for entry in cache._entries.values())

        prefix_stops = []
        original = ForwardPlan.run_prefix

        def counting(self, x, stop):
            prefix_stops.append(stop)
            return original(self, x, stop)

        monkeypatch.setattr(ForwardPlan, "run_prefix", counting)
        # ... serve one that faults the second conv layer: same keys, new boundary.
        conv = self._core(model, dataset, cache, random_seed=42, layer_range=(1, 1))
        conv.run()
        uncached = self._core(model, dataset, None, random_seed=42, layer_range=(1, 1))
        uncached.run()
        wanted = plan.segment_for(conv.wrapper.fault_injection.layers[1].name)
        assert wanted not in recorded
        assert cache.hits == len(dataset)
        assert prefix_stops == [wanted] * len(dataset)  # once per entry, no full pass
        for entry in cache._entries.values():
            assert set(entry.boundaries) == recorded | {wanted}
        assert [row.tobytes() for row in conv.task.state.corrupted_logits] == [
            row.tobytes() for row in uncached.task.state.corrupted_logits
        ]

    def test_resil_lane_records_the_resil_wrappers_segments(self, fitted_model_and_dataset):
        from repro.alficore.campaign import CampaignCore, ClassificationTask

        model, dataset = fitted_model_and_dataset
        calibration = np.stack([dataset[i][0] for i in range(len(dataset))])
        hardened = apply_protection(
            model, collect_activation_bounds(model, [calibration]), "ranger"
        )
        cache = GoldenCache()
        core = CampaignCore(
            model, dataset, ClassificationTask(), resil_model=hardened, golden_cache=cache,
            scenario=default_scenario(
                injection_target="weights", rnd_bit_range=(23, 30), random_seed=43
            ),
        )
        core.run()
        golden = _injectable_segments(core.lanes[0].plan, core.wrapper)
        resil = _injectable_segments(core.lanes[1].plan, core.resil_wrapper)
        assert golden != resil  # protection layers shift the hardened model's segments
        lanes = {"golden": golden, "resil": resil}
        assert {key[0] for key in cache._entries} == set(lanes)
        for key, entry in cache._entries.items():
            assert set(entry.boundaries) == lanes[key[0]]

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_multi_epoch_campaign_byte_identical_to_uncached(
        self, fitted_model_and_dataset, tmp_path, target
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=44,
            num_runs=3, model_name="epochs",
        )

        def run(sub, cache):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="epochs")
            return run_streaming(model, dataset, scenario, writer=writer, golden_cache=cache)

        cache = GoldenCache()
        uncached, cached = run("off", None), run("on", cache)
        tags = ("golden_csv", "corrupted_csv", "applied_faults")
        assert _stream_bytes(uncached.output_files, tags) == _stream_bytes(
            cached.output_files, tags
        )
        assert (cache.misses, cache.hits) == (len(dataset), 2 * len(dataset))
