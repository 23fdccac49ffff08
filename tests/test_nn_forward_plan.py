"""Forward-plan subsystem: linearisation, recording, bit-exact resume."""

import numpy as np
import pytest

from repro import nn
from repro.experiments.registry import MODELS
from repro.models import alexnet, lenet5, mlp, resnet18, vgg16
from repro.models.detection import build_detector
from repro.nn import ForwardPlan
from repro.nn.forward_plan import _bitwise_equal

# Segment count of every registered model's plan (batch 1, default sizes).
# A model that stops linearising collapses to 1 and loses prefix reuse, the
# golden cache and the IR executors without any result byte changing; this
# table is what makes that loud.  Detectors: backbone leaves + head + decode
# (yolov3), backbone leaves + one atomic tail (retinanet, faster_rcnn).
PLAN_SEGMENTS = {
    "alexnet": 22,
    "elemnet": 47,
    "faster_rcnn": 7,
    "lenet5": 12,
    "mlp": 6,
    "mobilenet": 42,
    "resnet18": 14,
    "resnet50": 22,
    "retinanet": 10,
    "squeezenet": 11,
    "vgg11": 28,
    "vgg16": 38,
    "yolov3": 17,
}

# The registered models whose plan does not stack (ForwardPlan.stackable).
# A model that stops stacking runs one step per block with every result byte
# the same, only slower; this set is what makes that loud.  faster_rcnn's
# second stage classifies each image's proposals on their own.
NOT_STACKABLE = {"faster_rcnn"}


def _input(batch=2, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, 3, 32, 32)).astype(np.float32)


@pytest.fixture(params=[mlp, lenet5, alexnet, vgg16, resnet18], ids=lambda f: f.__name__)
def model_and_plan(request):
    model = request.param(num_classes=10, seed=0).eval()
    x = _input()
    return model, ForwardPlan.trace(model, x), x


class TestLinearisation:
    def test_zoo_models_linearise_into_multiple_segments(self, model_and_plan):
        model, plan, _ = model_and_plan
        assert plan.valid
        assert plan.num_segments > 1
        # Every segment is a module of the model tree with a resolvable name.
        names = dict(model.named_modules())
        for segment, name in zip(plan.segments, plan.segment_names):
            assert names[name] is segment

    def test_residual_blocks_stay_atomic(self):
        model = resnet18(num_classes=10, seed=0).eval()
        plan = ForwardPlan.trace(model, _input())
        # Blocks branch internally (identity + conv path), so they must be
        # kept whole; the top-level stem/stage/pool/fc chain still flattens.
        assert "layer1.0" in plan.segment_names
        assert not any(name.startswith("layer1.0.") for name in plan.segment_names)

    def test_branchy_root_degenerates_to_single_segment(self):
        class Branchy(nn.Module):
            def __init__(self):
                super().__init__()
                self.a = nn.Linear(8, 8, rng=np.random.default_rng(0))
                self.b = nn.Linear(8, 8, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.a(x) + self.b(x)

        model = Branchy().eval()
        x = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert not plan.valid
        assert plan.num_segments == 1
        # Degenerate plans still execute correctly as a full forward.
        np.testing.assert_array_equal(plan.resume(0, x), model(x))

    def test_root_mutating_child_output_in_place_is_invalidated(self):
        # The object-identity chain holds (the root returns the child's own
        # array), but the root's in-place post-processing is not part of any
        # segment — the replay validation must reject the plan.
        class MutatingRoot(nn.Module):
            def __init__(self):
                super().__init__()
                self.body = nn.Linear(8, 8, rng=np.random.default_rng(0))

            def forward(self, x):
                y = self.body(x)
                y += 1.0  # in place: id(y) is preserved
                return y

        model = MutatingRoot().eval()
        x = np.random.default_rng(1).normal(size=(2, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert not plan.valid

    def test_list_output_with_root_post_processing_is_invalidated(self):
        # Same trap for detection-style list outputs: the root returns the
        # head's own list object (so the identity chain holds) but mutates
        # its contents in place.  Without the structural replay comparison
        # the plan would silently drop the root's work.
        class ListHead(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(8, 8, rng=np.random.default_rng(0))

            def forward(self, x):
                return [self.lin(x)]

        class ListMutatingRoot(nn.Module):
            def __init__(self):
                super().__init__()
                self.pre = nn.Linear(8, 8, rng=np.random.default_rng(1))
                self.head = ListHead()

            def forward(self, x):
                dets = self.head(self.pre(x))
                dets[0] *= 2.0
                return dets

        class ListChainRoot(ListMutatingRoot):
            def forward(self, x):
                return self.head(self.pre(x))

        x = np.random.default_rng(2).normal(size=(2, 8)).astype(np.float32)
        assert not ForwardPlan.trace(ListMutatingRoot().eval(), x).valid
        # A genuinely linear list-returning model stays valid: the replay
        # comparison recurses into the list's arrays instead of rejecting
        # non-ndarray outputs wholesale.
        clean = ForwardPlan.trace(ListChainRoot().eval(), x)
        assert clean.valid and clean.num_segments == 2

    def test_segment_for_maps_nested_modules_to_containing_segment(self):
        model = resnet18(num_classes=10, seed=0).eval()
        plan = ForwardPlan.trace(model, _input())
        block_index = plan.segment_names.index("layer2.1")
        assert plan.segment_for("layer2.1.conv2") == block_index
        assert plan.segment_for("layer2.1") == block_index
        assert plan.segment_for("not.a.module") is None

    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_every_registered_model_gets_a_full_plan(self, name):
        assert name in PLAN_SEGMENTS, f"model {name!r} has no row in PLAN_SEGMENTS"
        side = 64 if MODELS.metadata(name)["kind"] == "detector" else 32
        x = np.random.default_rng(0).normal(size=(1, 3, side, side)).astype(np.float32)
        plan = ForwardPlan.trace(MODELS.get(name)(seed=0).eval(), x)
        assert plan.valid, f"{name}: forward no longer linearises"
        assert plan.num_segments == PLAN_SEGMENTS[name], name
        assert plan.stackable is (name not in NOT_STACKABLE), name


class TestOneSampleTrace:
    """Campaigns trace with one sample and run the plan at the campaign's
    batch size; nothing at run time replays a full batch any more, so the
    batch-size independence of a plan is pinned here for every model."""

    @pytest.mark.parametrize("name", sorted(PLAN_SEGMENTS))
    def test_plan_of_one_sample_is_the_plan_of_the_batch(self, name):
        detector = MODELS.metadata(name)["kind"] == "detector"
        side = 64 if detector else 32
        # Random weights score low; a low threshold gives every image boxes.
        params = {"score_threshold": 0.05} if detector else {}
        model = MODELS.get(name)(seed=0, **params).eval()
        x = np.random.default_rng(0).normal(size=(16, 3, side, side)).astype(np.float32)
        # A full batch and a partial last batch, each against its own forward.
        expected = {batch: model(x[:batch]) for batch in (16, 5)}
        if detector:
            assert all(len(detection) for detection in expected[16])
        for executor in ("module", "interpreter", "fused"):
            probe = ForwardPlan.trace(model, x[:1], executor=executor)
            whole = ForwardPlan.trace(model, x, executor=executor)
            assert probe.valid and probe.executor_name == whole.executor_name == executor
            assert probe.segment_names == whole.segment_names
            assert probe._executed_in == whole._executed_in
            # 16 rows are also 16 proposals per image: the verdict must not
            # depend on the traced batch size.
            assert probe.stackable is whole.stackable is (name not in NOT_STACKABLE)
            for batch, full in expected.items():
                output, checkpoints = probe.run_recording(x[:batch], "all")
                assert _bitwise_equal(output, full), (executor, batch)
                assert _bitwise_equal(probe.resume(0, x[:batch]), full), (executor, batch)
                assert sorted(checkpoints) == list(range(1, probe.num_segments))
                for k, a_k in checkpoints.items():
                    assert _bitwise_equal(probe.resume(k, a_k), full), (executor, batch, k)


class _Late(nn.Module):
    def __init__(self, rng):
        super().__init__()
        self.shared = nn.Linear(8, 8, rng=rng)
        self.act = nn.ReLU()

    def forward(self, x):
        return self.act(self.shared(x))


class _Early(nn.Module):
    """Atomic block that also runs a layer registered under a later segment."""

    def __init__(self, shared, rng):
        super().__init__()
        self.own = nn.Linear(8, 8, rng=rng)
        object.__setattr__(self, "shared", shared)  # a reference, not a child

    def forward(self, x):
        return self.own(x) + self.shared(x)


class SharedLayerNet(nn.Module):
    """``late.shared`` is registered under segment 2 and first runs inside segment 0."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        late = _Late(rng)
        self.early = _Early(late.shared, rng)
        self.mid = nn.ReLU()
        self.late = late

    def forward(self, x):
        return self.late(self.mid(self.early(x)))


class TestTracedContainment:
    def test_module_maps_to_the_earliest_segment_that_executes_it(self):
        model = SharedLayerNet().eval()
        x = np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert plan.valid
        assert plan.segment_names == ["early", "mid", "late.shared", "late.act"]
        # Registered under segment 2, called inside the atomic segment 0.
        assert plan.segment_for("late.shared") == 0
        assert plan.segment_for("early.own") == 0
        assert plan.segment_for("late.act") == 3
        assert plan.segment_for("late") is None  # linearised away: never a segment

    def test_fault_in_a_shared_layer_reaches_every_use_under_prefix_reuse(self):
        model = SharedLayerNet().eval()
        x = np.random.default_rng(2).normal(size=(3, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        golden = model(x)
        boundaries = {k: plan.run_prefix(x, k) for k in range(plan.num_segments)}
        weight = model.late.shared.weight.data
        original = weight[0, 0]
        weight[0, 0] = original + 64.0
        try:
            faulty = model(x)
            start = plan.segment_for("late.shared")
            resumed = plan.resume(start, boundaries[start])
            # Resuming where the layer is *registered* skips its first use.
            stale = plan.resume(2, boundaries[2])
        finally:
            weight[0, 0] = original
        assert faulty.tobytes() != golden.tobytes()
        assert resumed.tobytes() == faulty.tobytes()
        assert stale.tobytes() != faulty.tobytes()


DETECTORS = ("yolov3", "retinanet", "faster_rcnn")


class TestDetectorPlans:
    def test_yolov3_chain_ends_in_head_and_decode(self):
        model = build_detector("yolov3", num_classes=5, seed=1).eval()
        x = np.random.default_rng(0).normal(size=(1, 3, 64, 64)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        assert plan.segment_names[:15] == [
            f"backbone.{block}.{leaf}" if block % 2 == 0 else f"backbone.{block}"
            for block in range(7)
            for leaf in (range(3) if block % 2 == 0 else range(1))
        ]
        assert plan.segment_names[15:] == ["head", "decode"]

    @pytest.mark.parametrize("name", ["retinanet", "faster_rcnn"])
    def test_heads_map_to_the_tail_segment_that_calls_them(self, name):
        model = build_detector(name, num_classes=5, seed=1).eval()
        x = np.random.default_rng(0).normal(size=(2, 3, 64, 64)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        tail = plan.num_segments - 1
        assert plan.segment_names[tail] == "tail"
        heads = [n for n, _ in model.named_modules() if n and not n.startswith("backbone")]
        assert len(heads) > 1
        assert {plan.segment_for(n) for n in heads} == {tail}

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("executor", ["module", "interpreter", "fused"])
    @pytest.mark.parametrize("name", DETECTORS)
    def test_resume_from_every_boundary_is_bit_exact(self, name, executor, batch):
        # Random weights score low; a low threshold gives every image boxes,
        # so the comparison below is never one of empty lists.
        model = build_detector(name, num_classes=5, seed=1, score_threshold=0.05).eval()
        x = np.random.default_rng(batch).normal(size=(batch, 3, 64, 64)).astype(np.float32)
        plan = ForwardPlan.trace(model, x, executor=executor)
        assert plan.valid and plan.executor_name == executor
        assert plan.num_segments == PLAN_SEGMENTS[name]
        full = model(x)
        assert all(len(detection) for detection in full)
        for k in range(plan.num_segments):
            resumed = plan.resume(k, plan.run_prefix(x, k))
            assert _bitwise_equal(resumed, full), f"resume at segment {k} diverged"


class TestResume:
    def test_resume_from_every_boundary_is_bit_exact(self, model_and_plan):
        model, plan, x = model_and_plan
        full = np.asarray(model(x))
        for k in range(plan.num_segments + 1):
            boundary = plan.run_prefix(x, k)
            resumed = np.asarray(plan.resume(k, boundary))
            assert resumed.tobytes() == full.tobytes(), f"resume at segment {k} diverged"

    def test_resume_with_partial_batch_shape(self, model_and_plan):
        model, plan, _ = model_and_plan
        x = _input(batch=1, seed=3)
        full = np.asarray(model(x))
        k = plan.num_segments // 2
        resumed = np.asarray(plan.resume(k, plan.run_prefix(x, k)))
        assert resumed.tobytes() == full.tobytes()

    def test_resume_index_bounds_checked(self, model_and_plan):
        _, plan, x = model_and_plan
        with pytest.raises(IndexError):
            plan.resume(plan.num_segments + 1, x)
        with pytest.raises(IndexError):
            plan.run_prefix(x, -1)


class TestRecording:
    def test_recording_checkpoints_match_prefix_runs(self):
        model = lenet5(seed=0).eval()
        x = _input(seed=4)
        plan = ForwardPlan.trace(model, x)
        output, checkpoints = plan.run_recording(x, "all")
        assert set(checkpoints) == set(range(1, plan.num_segments))
        np.testing.assert_array_equal(np.asarray(output), np.asarray(model(x)))
        for k, value in checkpoints.items():
            np.testing.assert_array_equal(np.asarray(value), np.asarray(plan.run_prefix(x, k)))

    def test_selected_boundaries_only(self):
        model = lenet5(seed=0).eval()
        x = _input(seed=5)
        plan = ForwardPlan.trace(model, x)
        _, checkpoints = plan.run_recording(x, [3])
        assert list(checkpoints) == [3]

    def test_recorded_checkpoints_are_owned_copies(self):
        model = mlp(seed=0).eval()
        x = _input(seed=7)
        plan = ForwardPlan.trace(model, x)
        _, first = plan.run_recording(x, "all")
        snapshot = {k: v.copy() for k, v in first.items()}
        plan.run_recording(x * -2.0, "all")
        for k in first:
            np.testing.assert_array_equal(first[k], snapshot[k])
