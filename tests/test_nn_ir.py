"""Segment IR: lowering, kernels, hook blocking, the three executors."""

import numpy as np
import pytest

from repro import nn
from repro.nn import ForwardPlan, functional as F
from repro.nn.ir import (
    ALIAS_KINDS,
    ELEMENTWISE_KINDS,
    InterpreterExecutor,
    ModuleExecutor,
    lower_segment,
    make_executor,
    module_blocked,
)


def _image(batch=2, channels=4, size=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, channels, size, size)).astype(np.float32)


class TestLowering:
    def test_conv2d_lowers_to_conv_plus_bias(self):
        conv = nn.Conv2d(4, 6, 3, padding=1, rng=np.random.default_rng(0))
        ops = lower_segment(conv, "conv")
        assert [op.kind for op in ops] == ["conv2d", "bias_add"]
        assert all(op.module is conv for op in ops)

    def test_biasless_conv2d_lowers_to_single_op(self):
        conv = nn.Conv2d(4, 6, 3, bias=False, rng=np.random.default_rng(0))
        assert [op.kind for op in lower_segment(conv, "conv")] == ["conv2d"]

    def test_linear_lowers_to_matmul_plus_bias(self):
        linear = nn.Linear(8, 3, rng=np.random.default_rng(0))
        assert [op.kind for op in lower_segment(linear, "fc")] == ["matmul", "bias_add"]

    def test_single_op_layers_lower_to_their_kind(self):
        cases = [
            (nn.ReLU(), "relu"),
            (nn.LeakyReLU(), "leaky_relu"),
            (nn.Sigmoid(), "sigmoid"),
            (nn.Tanh(), "tanh"),
            (nn.BatchNorm2d(4), "batchnorm2d"),
            (nn.Softmax(), "softmax"),
            (nn.MaxPool2d(2), "max_pool2d"),
            (nn.AvgPool2d(2), "avg_pool2d"),
            (nn.AdaptiveAvgPool2d(1), "adaptive_avg_pool2d"),
            (nn.Flatten(), "flatten"),
            (nn.Dropout(0.5), "dropout"),
            (nn.Identity(), "identity"),
        ]
        for module, kind in cases:
            ops = lower_segment(module, "m")
            assert [op.kind for op in ops] == [kind], kind

    def test_unknown_and_subclassed_modules_stay_opaque(self):
        class FancyReLU(nn.ReLU):
            def forward(self, x):
                return super().forward(x) + 1.0

        assert lower_segment(FancyReLU(), "m") is None
        assert lower_segment(nn.Sequential(nn.ReLU()), "m") is None

    def test_kind_sets_are_disjoint(self):
        assert not (ELEMENTWISE_KINDS & ALIAS_KINDS)


class TestKernels:
    """Split conv/linear kernels must be bit-identical to the module forward."""

    def test_conv2d_split_bias_matches_module(self):
        conv = nn.Conv2d(4, 6, 3, stride=2, padding=1, rng=np.random.default_rng(1))
        x = _image(seed=2)
        value = x
        for op in lower_segment(conv, "conv"):
            value = op.run(value)
        assert value.tobytes() == conv(x).tobytes()

    def test_grouped_conv2d_matches_module(self):
        conv = nn.Conv2d(4, 4, 3, padding=1, groups=4, rng=np.random.default_rng(3))
        x = _image(seed=4)
        value = x
        for op in lower_segment(conv, "dw"):
            value = op.run(value)
        assert value.tobytes() == conv(x).tobytes()

    def test_linear_split_bias_matches_module(self):
        linear = nn.Linear(16, 5, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(3, 16)).astype(np.float32)
        value = x
        for op in lower_segment(linear, "fc"):
            value = op.run(value)
        assert value.tobytes() == linear(x).tobytes()

    def test_single_op_kernels_match_module_forward(self):
        x = _image(seed=7)
        for module in (nn.ReLU(), nn.Tanh(), nn.BatchNorm2d(4), nn.MaxPool2d(2)):
            (op,) = lower_segment(module, "m")
            assert op.run(x).tobytes() == module(x).tobytes()

    def test_kernels_read_weights_live(self):
        # Campaigns corrupt weights in place between trace and execution;
        # the lowered kernel must observe the current bits, not a snapshot.
        conv = nn.Conv2d(4, 6, 3, rng=np.random.default_rng(8))
        ops = lower_segment(conv, "conv")
        x = _image(seed=9)
        before = ops[0].run(x).tobytes()
        conv.weight.data[0, 0, 0, 0] *= -3.0
        after = ops[0].run(x).tobytes()
        assert before != after
        restored = conv(x)
        value = x
        for op in ops:
            value = op.run(value)
        assert value.tobytes() == restored.tobytes()


class TestModuleBlocked:
    def test_plain_module_is_unblocked(self):
        assert not module_blocked(nn.ReLU())

    def test_pre_hook_blocks(self):
        relu = nn.ReLU()
        relu.register_forward_pre_hook(lambda m, args: None)
        assert module_blocked(relu)

    def test_forward_hook_blocks_by_default(self):
        relu = nn.ReLU()
        relu.register_forward_hook(lambda m, args, out: None)
        assert module_blocked(relu)

    def test_a_hook_that_calls_itself_transparent_still_blocks(self):
        relu = nn.ReLU()

        def hook(module, args, out):
            return None

        hook.plan_transparent = lambda: True
        relu.register_forward_hook(hook)
        assert module_blocked(relu)

    def test_monitor_hooks_block_even_while_disabled(self):
        from repro.alficore.monitoring import InferenceMonitor

        model = nn.Sequential(nn.Conv2d(3, 4, 3, rng=np.random.default_rng(0)), nn.ReLU()).eval()
        monitor = InferenceMonitor(model)
        monitor.attach()
        hooked = [m for m in model.modules() if m._forward_hooks]
        assert hooked, "monitor attached no hooks"
        monitor.enabled = False
        assert all(module_blocked(m) for m in hooked)


class TestMakeExecutor:
    def test_make_executor_binds_plan(self):
        from repro.nn.fuse import FusedExecutor

        model = nn.Sequential(nn.Linear(8, 8, rng=np.random.default_rng(0)), nn.ReLU()).eval()
        x = np.random.default_rng(1).normal(size=(2, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x)
        kinds = {
            "module": ModuleExecutor, "interpreter": InterpreterExecutor, "fused": FusedExecutor,
        }
        for name, kind in kinds.items():
            executor = make_executor(name, plan)
            assert isinstance(executor, kind) and executor.plan is plan

    def test_unknown_executor_raises(self):
        with pytest.raises(KeyError, match="unknown executor"):
            make_executor("nope", None)

    def test_unknown_executor_in_trace_falls_back_to_module(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(2)), nn.ReLU()).eval()
        x = np.random.default_rng(3).normal(size=(2, 4)).astype(np.float32)
        with pytest.warns(RuntimeWarning, match="executor 'nope' dropped"):
            plan = ForwardPlan.trace(model, x, executor="nope")
        assert plan.valid and plan.executor_name == "module"
        np.testing.assert_array_equal(plan.resume(0, x), model(x))


class TestInterpreterExecutor:
    def test_interpreter_matches_module_path_bitwise(self):
        from repro.models import lenet5

        model = lenet5(num_classes=10, seed=0).eval()
        x = _image(channels=3, size=32, seed=10)
        module_plan = ForwardPlan.trace(model, x)
        interp_plan = ForwardPlan.trace(model, x, executor="interpreter")
        assert interp_plan.executor_name == "interpreter"
        assert interp_plan.resume(0, x).tobytes() == module_plan.resume(0, x).tobytes()
        for k in range(len(module_plan.segments)):
            a_k = module_plan.run_prefix(x, k)
            assert interp_plan.resume(k, a_k).tobytes() == module_plan.resume(k, a_k).tobytes()

    def test_alloc_bytes_counts_per_op_outputs(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.Flatten(),
        ).eval()
        x = _image(channels=3, seed=11)
        plan = ForwardPlan.trace(model, x, executor="interpreter")
        executor = plan._executor
        executor.reset_stats()
        out = plan.resume(0, x)
        conv_out_bytes = 4 * 4 * x.shape[0] * x.shape[2] * x.shape[3]
        # conv2d + bias_add + relu each allocate one conv-shaped output;
        # flatten is an alias op and must not be counted.
        assert executor.alloc_bytes == 3 * conv_out_bytes
        assert out.nbytes == conv_out_bytes

    def test_blocked_segment_falls_back_to_module_call(self):
        model = nn.Sequential(
            nn.Linear(8, 8, rng=np.random.default_rng(4)), nn.ReLU()
        ).eval()
        x = np.random.default_rng(5).normal(size=(2, 8)).astype(np.float32)
        plan = ForwardPlan.trace(model, x, executor="interpreter")
        seen = []
        relu = model._modules["1"]
        hook = lambda m, args, out: seen.append(out.copy())  # noqa: E731
        handle = relu.register_forward_hook(hook)
        try:
            out = plan.resume(0, x)
        finally:
            handle.remove()
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0], out)
        assert out.tobytes() == model(x).tobytes()

    def test_functional_reductions_are_layout_canonical(self):
        # The bit-exactness contract across executors relies on reductions
        # giving the same bits for C-contiguous and strided inputs of equal
        # values (docs/ir.md); guard the canonicalisation in functional.py.
        rng = np.random.default_rng(12)
        base = rng.normal(size=(2, 6, 8, 8)).astype(np.float32)
        strided = np.asfortranarray(base)
        assert not strided.flags["C_CONTIGUOUS"]
        assert F.softmax(base, axis=1).tobytes() == F.softmax(strided, axis=1).tobytes()
        assert (
            F.adaptive_avg_pool2d(base, 1).tobytes()
            == F.adaptive_avg_pool2d(strided, 1).tobytes()
        )
        assert (
            F.max_pool2d(base, 2, 2, 0).tobytes() == F.max_pool2d(strided, 2, 2, 0).tobytes()
        )
