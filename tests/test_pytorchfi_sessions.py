"""Unit tests for the clone-free injection sessions (campaign engine core)."""

import numpy as np
import pytest

from repro.pytorchfi import FaultInjection
from repro.pytorchfi.core import NeuronFault, WeightFault
from repro.tensor.bitops import float_to_bits


def weight_bits(model) -> dict:
    """Raw bit patterns of every parameter (for bit-exact comparisons)."""
    return {name: float_to_bits(param.data).copy() for name, param in model.named_parameters()}


@pytest.fixture
def lenet_fi(lenet_model):
    return FaultInjection(lenet_model, batch_size=2, input_shape=(3, 32, 32))


def some_weight_faults(n=4, bit=30):
    return [
        WeightFault(layer=i % 2, out_channel=i, in_channel=i, depth=-1, height=0, width=0, value=bit)
        for i in range(n)
    ]


class TestWeightPatchSession:
    def test_patch_applies_and_restores_bit_exactly(self, lenet_model, lenet_fi):
        before = weight_bits(lenet_model)
        session = lenet_fi.weight_patch_session(some_weight_faults())
        with session:
            assert session.model is lenet_model
            patched = weight_bits(lenet_model)
            changed = sum(
                0 if np.array_equal(before[name], patched[name]) else 1 for name in before
            )
            assert changed >= 1
        after = weight_bits(lenet_model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_restore_is_bit_exact_for_nan_and_inf_corruptions(self, lenet_model, lenet_fi):
        """Exponent-field flips can produce NaN/Inf; the restore must still be exact."""
        before = weight_bits(lenet_model)
        faults = [
            WeightFault(layer=0, out_channel=0, in_channel=0, depth=-1, height=h, width=w, value=bit)
            for (h, w, bit) in ((0, 0, 30), (0, 1, 27), (1, 0, 23), (1, 1, 31))
        ]
        for _ in range(3):  # repeated groups on the same weights
            with lenet_fi.weight_patch_session(faults):
                pass
        after = weight_bits(lenet_model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_overlapping_faults_restore_first_original(self, lenet_model, lenet_fi):
        before = weight_bits(lenet_model)
        fault = WeightFault(layer=0, out_channel=0, in_channel=0, depth=-1, height=0, width=0, value=30)
        with lenet_fi.weight_patch_session([fault, fault, fault]):
            pass
        after = weight_bits(lenet_model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_outputs_match_legacy_clone_path(self, lenet_model, lenet_fi, small_images):
        faults = some_weight_faults()
        cloned = lenet_fi.declare_weight_fault_injection(faults)
        expected = cloned(small_images)
        with lenet_fi.weight_patch_session(faults) as session:
            actual = session.model(small_images)
        np.testing.assert_array_equal(expected, actual)

    def test_applied_log_is_per_group_not_shared(self, lenet_fi):
        with lenet_fi.weight_patch_session(some_weight_faults(3)) as session:
            pass
        assert len(session.applied_faults) == 3
        assert session.applied_faults[0].target == "weight"
        # The shared (legacy) log must not grow through sessions.
        assert lenet_fi.applied_faults == []

    def test_unknown_layer_rejected_eagerly(self, lenet_fi):
        bad = WeightFault(layer=99, out_channel=0, in_channel=0, depth=-1, height=0, width=0, value=1)
        with pytest.raises(IndexError):
            lenet_fi.weight_patch_session([bad])

    def test_nested_enter_rejected(self, lenet_fi):
        session = lenet_fi.weight_patch_session(some_weight_faults(1))
        with session:
            with pytest.raises(RuntimeError):
                session.__enter__()

    def test_restore_runs_on_exception(self, lenet_model, lenet_fi):
        before = weight_bits(lenet_model)
        with pytest.raises(RuntimeError):
            with lenet_fi.weight_patch_session(some_weight_faults()):
                raise RuntimeError("inference blew up")
        after = weight_bits(lenet_model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_session_is_reusable_sequentially(self, lenet_model, lenet_fi, small_images):
        session = lenet_fi.weight_patch_session(some_weight_faults(2))
        with session:
            first = session.model(small_images)
        with session:
            second = session.model(small_images)
        np.testing.assert_array_equal(first, second)


class TestNeuronInjectionSession:
    def neuron_faults(self, n=2, bit=30):
        return [
            NeuronFault(batch=0, layer=4, channel=i, depth=-1, height=-1, width=-1, value=bit)
            for i in range(n)
        ]

    def test_session_hooks_the_given_model_and_leaves_it_clean(
        self, lenet_model, lenet_fi, small_images
    ):
        golden = lenet_model(small_images)
        session = lenet_fi.neuron_injection_session()
        assert session.model is lenet_model
        with session.activate(self.neuron_faults()) as group_a:
            corrupted = group_a.model(small_images)
        with session.activate(self.neuron_faults()) as group_b:
            assert group_a.model is group_b.model is lenet_model
        assert corrupted.tobytes() != golden.tobytes()
        # Hooked but outside a group, and unhooked: the caller's model as it was.
        assert lenet_model(small_images).tobytes() == golden.tobytes()
        session.close()
        for module in lenet_model.modules():
            assert not module._forward_hooks and not module._forward_pre_hooks
        assert lenet_model(small_images).tobytes() == golden.tobytes()

    def test_outputs_match_legacy_clone_path(self, lenet_fi, small_images):
        faults = self.neuron_faults()
        legacy = lenet_fi.declare_neuron_fault_injection(faults)
        expected = legacy(small_images)
        session = lenet_fi.neuron_injection_session()
        with session.activate(faults) as group:
            actual = group.model(small_images)
        session.close()
        np.testing.assert_array_equal(expected, actual)

    def test_applied_log_is_per_group(self, lenet_fi, small_images):
        session = lenet_fi.neuron_injection_session()
        with session.activate(self.neuron_faults(2)) as first:
            first.model(small_images)
        with session.activate(self.neuron_faults(3)) as second:
            second.model(small_images)
        session.close()
        assert len(first.applied_faults) == 2
        assert len(second.applied_faults) == 3
        assert lenet_fi.applied_faults == []

    def test_model_is_clean_outside_group_context(self, lenet_model, lenet_fi, small_images):
        golden = lenet_model(small_images)
        session = lenet_fi.neuron_injection_session()
        with session.activate(self.neuron_faults()) as group:
            corrupted = group.model(small_images)
        clean = session.model(small_images)
        session.close()
        assert not np.array_equal(golden, corrupted)
        np.testing.assert_array_equal(golden, clean)

    def test_close_removes_hooks(self, lenet_fi, small_images):
        session = lenet_fi.neuron_injection_session()
        group = session.activate(self.neuron_faults())
        group.__enter__()  # leave faults active, then close the session
        session.close()
        session.model(small_images)
        assert group.applied_faults == []

    def test_invalid_fault_rejected_on_activate(self, lenet_fi):
        session = lenet_fi.neuron_injection_session()
        bad = NeuronFault(batch=0, layer=42, channel=0, depth=-1, height=-1, width=-1, value=1)
        with pytest.raises(IndexError):
            session.activate([bad]).__enter__()
        session.close()

    def test_session_context_manager_closes(self, lenet_fi, small_images):
        with lenet_fi.neuron_injection_session() as session:
            with session.activate(self.neuron_faults()) as group:
                group.model(small_images)
            assert len(group.applied_faults) == 2
        assert session._handles == []


class TestSessionRobustness:
    """Regressions from review: partial-failure restore, re-entry replay,
    side-effect-free profiling."""

    class _ExplodingModel:
        """Error model that raises after ``allow`` successful corruptions."""

        name = "exploding"

        def __init__(self, allow):
            self.allow = allow
            self.calls = 0

        def corrupt(self, original, rng):
            self.calls += 1
            if self.calls > self.allow:
                raise ValueError("boom")
            return -original, {"bit_position": None, "flip_direction": None}

    def test_partial_failure_in_enter_restores_applied_faults(self, lenet_model, lenet_fi):
        before = weight_bits(lenet_model)
        session = lenet_fi.weight_patch_session(
            some_weight_faults(3), error_model=self._ExplodingModel(allow=1)
        )
        with pytest.raises(ValueError, match="boom"):
            session.__enter__()
        assert not session.active
        after = weight_bits(lenet_model)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    class _StochasticModel:
        """Error model drawing a fresh corruption per call (never pinned)."""

        name = "stochastic"

        def corrupt(self, original, rng):
            return float(rng.uniform(-1, 1)), {"bit_position": None, "flip_direction": None}

    def test_reentry_replays_identical_corruptions(self, lenet_model, lenet_fi):
        """Per-epoch campaigns re-enter the same session per batch: every

        entry must patch the identical values the applied log records."""
        session = lenet_fi.weight_patch_session(
            some_weight_faults(2), error_model=self._StochasticModel(), rng=np.random.default_rng(0)
        )
        with session:
            first = [
                (name, param.data.copy()) for name, param in lenet_model.named_parameters()
            ]
            logged = [f.corrupted_value for f in session.applied_faults]
        with session:
            for (name, data) in first:
                np.testing.assert_array_equal(
                    data, dict(lenet_model.named_parameters())[name].data
                )
            assert [f.corrupted_value for f in session.applied_faults] == logged

    def test_profiling_does_not_fire_user_hooks(self, lenet_model):
        events = []
        lenet_model.get_submodule("features.0").register_forward_hook(
            lambda module, inputs, output: events.append("fired") or None
        )
        FaultInjection(lenet_model, input_shape=(3, 32, 32))
        assert events == []  # the profiling probe forward must stay invisible
        lenet_model(np.zeros((1, 3, 32, 32), dtype=np.float32))
        assert events == ["fired"]  # ...while real inference still sees the hook
