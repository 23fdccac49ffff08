"""Fused executor: program building, bit-exactness, the planned buffer arena."""

import numpy as np
import pytest

from repro import nn
from repro.models import MODEL_REGISTRY
from repro.nn import ForwardPlan
from repro.nn.fuse import (
    CallModuleNode,
    ChainNode,
    ConvActNode,
    FusedExecutor,
    SingleOpNode,
    SlotArena,
    build_program,
)
from repro.nn.ir import lower_segment


def _input(batch=2, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, 3, 32, 32)).astype(np.float32)


def _items(*modules):
    return [(m, lower_segment(m, f"m{i}")) for i, m in enumerate(modules)]


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestBuildProgram:
    def test_conv_bias_relu_fuses_into_one_node(self):
        conv = nn.Conv2d(3, 4, 3, rng=_rng(0))
        relu = nn.ReLU()
        nodes = build_program(_items(conv, relu))
        assert len(nodes) == 1
        (node,) = nodes
        assert isinstance(node, ConvActNode)
        assert node.with_bias
        assert [op.kind for op in node.act_ops] == ["relu"]
        assert node.is_last

    def test_biasless_conv_keeps_chain_attached(self):
        conv = nn.Conv2d(3, 4, 3, bias=False, rng=_rng(1))
        nodes = build_program(_items(conv, nn.BatchNorm2d(4), nn.ReLU()))
        assert len(nodes) == 1
        assert isinstance(nodes[0], ConvActNode)
        assert not nodes[0].with_bias
        assert [op.kind for op in nodes[0].act_ops] == ["batchnorm2d", "relu"]

    def test_elementwise_run_becomes_single_chain(self):
        nodes = build_program(_items(nn.BatchNorm2d(4), nn.ReLU(), nn.Tanh()))
        assert len(nodes) == 1
        assert isinstance(nodes[0], ChainNode)
        assert [op.kind for op in nodes[0].ops] == ["batchnorm2d", "relu", "tanh"]

    def test_pooling_breaks_chains(self):
        nodes = build_program(_items(nn.ReLU(), nn.MaxPool2d(2), nn.ReLU()))
        assert [type(n) for n in nodes] == [ChainNode, SingleOpNode, ChainNode]
        assert nodes[-1].is_last and not nodes[0].is_last

    def test_opaque_segment_becomes_call_module_node(self):
        class Residual(nn.Module):
            def __init__(self):
                super().__init__()
                self.fc = nn.Linear(8, 8, rng=_rng(2))

            def forward(self, x):
                return x + self.fc(x)

        block = Residual()
        nodes = build_program([(block, None)] + _items(nn.ReLU()))
        assert [type(n) for n in nodes] == [CallModuleNode, ChainNode]
        assert nodes[0].modules == [block]

    def test_module_boundaries_never_split_across_nodes(self):
        # Every module's ops land in exactly one node, so a hook-blocked
        # node can replay plain module calls bit-exactly.
        conv = nn.Conv2d(3, 4, 3, rng=_rng(3))
        modules = [conv, nn.ReLU(), nn.MaxPool2d(2), nn.Flatten()]
        nodes = build_program(_items(*modules))
        owners = [id(m) for node in nodes for m in node.modules]
        assert len(owners) == len(set(owners))
        assert set(owners) == {id(m) for m in modules}


class TestSlotArena:
    def test_views_reuse_backing_buffer(self):
        arena = SlotArena()
        a = arena.view(0, (2, 8))
        a.fill(7.0)
        b = arena.view(0, (4, 4))
        assert b.shape == (4, 4)
        assert b.tobytes() == a.tobytes()
        assert arena.nbytes == 64

    def test_buffers_grow_to_peak_only(self):
        arena = SlotArena()
        arena.view(0, (2, 2))
        assert arena.nbytes == 16
        arena.view(0, (8, 8))
        assert arena.nbytes == 256
        arena.view(0, (2, 2))
        assert arena.nbytes == 256
        arena.clear()
        assert arena.nbytes == 0

    def test_distinct_keys_get_distinct_buffers(self):
        arena = SlotArena()
        a = arena.view(0, (4,))
        b = arena.view(1, (4,))
        a.fill(1.0)
        b.fill(2.0)
        assert a.tobytes() != b.tobytes()


def _plans(model, x):
    interp = ForwardPlan.trace(model, x, executor="interpreter")
    fused = ForwardPlan.trace(model, x, executor="fused")
    assert interp.valid and interp.executor_name == "interpreter"
    assert fused.valid and fused.executor_name == "fused"
    return interp, fused


class TestOpPairFusion:
    """Per-op-pair units: each fused grouping is byte-identical to its modules."""

    @pytest.mark.parametrize(
        "tail",
        [
            [nn.ReLU()],
            [nn.Tanh()],
            [nn.Sigmoid()],
            [nn.LeakyReLU()],
            [nn.BatchNorm2d(4), nn.ReLU()],
            [nn.BatchNorm2d(4), nn.Tanh(), nn.ReLU()],
        ],
        ids=lambda tail: "+".join(type(m).__name__ for m in tail),
    )
    def test_conv_plus_tail_is_byte_identical(self, tail):
        model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1, rng=_rng(4)), *tail).eval()
        x = _input(seed=5)
        interp, fused = _plans(model, x)
        assert fused.resume(0, x).tobytes() == interp.resume(0, x).tobytes()

    @pytest.mark.parametrize(
        "pair",
        [
            [nn.ReLU(), nn.Tanh()],
            [nn.BatchNorm2d(3), nn.ReLU()],
            [nn.Sigmoid(), nn.ReLU()],
            [nn.LeakyReLU(), nn.BatchNorm2d(3)],
            [nn.Tanh(), nn.Tanh()],
        ],
        ids=lambda pair: "+".join(type(m).__name__ for m in pair),
    )
    def test_elementwise_pair_chain_is_byte_identical(self, pair):
        # A leading pool keeps the plan multi-segment and hands the chain an
        # externally-owned input (the stricter liveness case).
        model = nn.Sequential(nn.AvgPool2d(2), *pair).eval()
        x = _input(seed=6)
        interp, fused = _plans(model, x)
        assert fused.resume(0, x).tobytes() == interp.resume(0, x).tobytes()

    def test_linear_bias_relu_is_byte_identical(self):
        model = nn.Sequential(
            nn.Flatten(), nn.Linear(3 * 32 * 32, 16, rng=_rng(7)), nn.ReLU()
        ).eval()
        x = _input(seed=8)
        interp, fused = _plans(model, x)
        assert fused.resume(0, x).tobytes() == interp.resume(0, x).tobytes()


class TestZooByteEquality:
    """Property sweep: fused == interpreter == module on every example model."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_full_pass_and_every_suffix_entry(self, name):
        model = MODEL_REGISTRY[name](num_classes=10, seed=0).eval()
        x = _input(seed=9)
        module_plan = ForwardPlan.trace(model, x)
        interp, fused = _plans(model, x)
        expected = module_plan.resume(0, x)
        assert interp.resume(0, x).tobytes() == expected.tobytes()
        assert fused.resume(0, x).tobytes() == expected.tobytes()
        # Every resume(k, a_k) suffix entry point a campaign can hit.
        for k in range(len(module_plan.segments)):
            a_k = module_plan.run_prefix(x, k)
            want = module_plan.resume(k, a_k).tobytes()
            assert interp.resume(k, a_k).tobytes() == want, f"{name} interpreter k={k}"
            assert fused.resume(k, a_k).tobytes() == want, f"{name} fused k={k}"

    @pytest.mark.parametrize("name", ["lenet5", "elemnet"])
    def test_partial_batch_resume_matches(self, name):
        model = MODEL_REGISTRY[name](num_classes=10, seed=0).eval()
        x = _input(batch=4, seed=10)
        module_plan = ForwardPlan.trace(model, x)
        _, fused = _plans(model, x)
        sub = _input(batch=2, seed=11)
        assert fused.resume(0, sub).tobytes() == module_plan.resume(0, sub).tobytes()


class TestRangeHops:
    """A suffix that rejoins the golden pass runs the plan in hops
    ``[start, boundary)``: the fused executor compiles one program per hop,
    and every hop's output must outlive the hops run after it."""

    @pytest.mark.parametrize("executor", ["module", "interpreter", "fused"])
    @pytest.mark.parametrize("name", ["lenet5", "alexnet"])
    def test_hop_outputs_outlive_later_hops(self, name, executor):
        model = MODEL_REGISTRY[name](num_classes=10, seed=0).eval()
        x = _input(seed=12)
        module_plan = ForwardPlan.trace(model, x)
        plan = ForwardPlan.trace(model, x, executor=executor)
        assert plan.valid and plan.executor_name == executor
        stop = plan.num_segments
        golden = [module_plan.run_prefix(x, k) for k in range(stop + 1)]
        want = [a.tobytes() for a in golden]
        for width in (1, 2):
            kept = []
            value = x
            for start in range(0, stop, width):
                end = min(start + width, stop)
                value = plan.run_range(start, end, value)
                kept.append((end, value))
            for end, value in kept:
                assert value.tobytes() == want[end], f"{name} {executor} hop to {end}"
        # Entering at a golden checkpoint leaves the checkpoint as it was.
        for start in range(stop):
            assert plan.resume(start, golden[start]).tobytes() == want[stop]
        assert [a.tobytes() for a in golden] == want


class TestBufferPlan:
    def test_fused_footprint_is_peak_not_sum(self):
        from repro.models import elemnet

        model = elemnet(num_classes=10, seed=0).eval()
        x = _input(seed=12)
        interp, fused = _plans(model, x)
        interp_exec, fused_exec = interp._executor, fused._executor
        fused.resume(0, x)  # warm: compile program, grow arena to peak
        interp_exec.reset_stats()
        fused_exec.reset_stats()
        interp.resume(0, x)
        fused.resume(0, x)
        o_sum = interp_exec.alloc_bytes
        planned = fused_exec.alloc_bytes + fused_exec.arena.nbytes
        assert o_sum > 0 and planned > 0
        # O(peak) vs O(sum): the towers' per-op allocations all collapse
        # into arena slots, so the planned footprint must be a small
        # fraction of the interpreter's per-pass total.
        assert planned < o_sum / 3, (planned, o_sum)
        # Steady state: repeated passes allocate no new arena memory.
        arena_bytes = fused_exec.arena.nbytes
        fused.resume(0, x)
        assert fused_exec.arena.nbytes == arena_bytes

    def test_external_input_never_written_in_place(self):
        # resume() inputs can be golden-cache boundary activations; the
        # fused chain must write into its own buffer, never the caller's.
        model = nn.Sequential(nn.BatchNorm2d(3), nn.ReLU(), nn.Tanh()).eval()
        x = _input(seed=13)
        _, fused = _plans(model, x)
        snapshot = x.tobytes()
        out = fused.resume(0, x)
        assert x.tobytes() == snapshot
        assert out is not x

    def test_returned_values_escape_the_arena(self):
        # Two consecutive runs must not alias each other's outputs.
        model = nn.Sequential(nn.AvgPool2d(2), nn.ReLU(), nn.Tanh()).eval()
        x = _input(seed=14)
        _, fused = _plans(model, x)
        first = fused.resume(0, x)
        first_bytes = first.tobytes()
        second = fused.resume(0, _input(seed=15))
        assert second is not first
        assert first.tobytes() == first_bytes  # run 2 did not clobber run 1

    def test_suffix_programs_are_cached_per_range(self):
        model = nn.Sequential(nn.AvgPool2d(2), nn.ReLU(), nn.Tanh()).eval()
        x = _input(seed=16)
        _, fused = _plans(model, x)
        executor = fused._executor
        assert isinstance(executor, FusedExecutor)
        fused.resume(0, x)
        a1 = fused.run_prefix(x, 1)
        fused.resume(1, a1)
        fused.resume(1, a1)
        assert set(executor._programs) >= {(0, 3), (1, 3)}


class TestHookFallback:
    def test_blocked_node_falls_back_and_hooks_fire(self):
        conv = nn.Conv2d(3, 4, 3, rng=_rng(17))
        relu = nn.ReLU()
        model = nn.Sequential(conv, relu, nn.Flatten()).eval()
        x = _input(seed=18)
        interp, fused = _plans(model, x)
        seen = []
        handle = relu.register_forward_hook(lambda m, args, out: seen.append(out.copy()))
        try:
            out = fused.resume(0, x)
        finally:
            handle.remove()
        # The conv+relu node is blocked: it replays module calls, the hook
        # fires once, and the output is still exact.
        assert len(seen) == 1
        assert out.tobytes() == interp.resume(0, x).tobytes()

    def test_injected_weight_faults_are_observed(self):
        # Weight corruption between trace and execution must flow through
        # the fused kernels (they read module parameters live).
        model = nn.Sequential(nn.Conv2d(3, 4, 3, rng=_rng(19)), nn.ReLU()).eval()
        x = _input(seed=20)
        interp, fused = _plans(model, x)
        golden = fused.resume(0, x).tobytes()
        conv = model._modules["0"]
        original = conv.weight.data[0, 0, 0, 0]
        conv.weight.data[0, 0, 0, 0] = np.float32(1e6)
        try:
            faulty_fused = fused.resume(0, x).tobytes()
            faulty_interp = interp.resume(0, x).tobytes()
        finally:
            conv.weight.data[0, 0, 0, 0] = original
        assert faulty_fused != golden
        assert faulty_fused == faulty_interp
        assert fused.resume(0, x).tobytes() == golden
