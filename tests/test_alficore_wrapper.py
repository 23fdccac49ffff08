"""Unit tests for the ptfiwrap wrapper (Listing 1 of the paper)."""

import numpy as np
import pytest

from repro.alficore import default_scenario, ptfiwrap
from repro.alficore.scenario import save_scenario
from repro.pytorchfi.errormodels import RandomValueErrorModel


class TestConstruction:
    def test_wrapper_profiles_model(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        assert wrapper.fault_injection.num_layers == 5

    def test_fault_matrix_pre_generated(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        matrix = wrapper.get_fault_matrix()
        assert matrix.num_faults == neuron_scenario.total_faults
        assert matrix.injection_target == "neurons"

    def test_scenario_loaded_from_config_dir(self, lenet_model, tmp_path):
        scenario = default_scenario(dataset_size=3, injection_target="weights", random_seed=11)
        save_scenario(scenario, tmp_path / "scenarios" / "default.yml")
        wrapper = ptfiwrap(lenet_model, config_dir=tmp_path)
        assert wrapper.get_scenario() == scenario

    def test_falls_back_to_builtin_defaults(self, lenet_model, tmp_path):
        wrapper = ptfiwrap(lenet_model, config_dir=tmp_path)  # no scenarios/ dir
        assert wrapper.get_scenario().dataset_size == 10


class TestScenarioMutation:
    def test_get_scenario_returns_copy(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        copy = wrapper.get_scenario()
        copy.dataset_size = 999
        assert wrapper.get_scenario().dataset_size == neuron_scenario.dataset_size

    def test_set_scenario_regenerates_faults(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        first = wrapper.get_fault_matrix()
        wrapper.set_scenario(neuron_scenario.copy(layer_range=(0, 0)))
        second = wrapper.get_fault_matrix()
        assert set(np.unique(second.matrix[1, :])) == {0.0}
        assert first != second

    def test_update_scenario_shorthand(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        wrapper.update_scenario(injection_target="weights")
        assert wrapper.get_fault_matrix().injection_target == "weights"

    def test_layer_sweep_pattern(self, lenet_model, neuron_scenario):
        """Iterating the start layer as in Section V-D regenerates matching faults."""
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        for layer in range(wrapper.fault_injection.num_layers):
            scenario = wrapper.get_scenario()
            scenario.layer_range = (layer, layer)
            wrapper.set_scenario(scenario)
            layers_hit = set(np.unique(wrapper.get_fault_matrix().matrix[1, :]))
            assert layers_hit == {float(layer)}


class TestFaultyModelIterator:
    def test_iterator_yields_num_fault_groups_models(self, lenet_model, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        models = list(wrapper.get_fimodel_iter())
        assert len(models) == wrapper.num_fault_groups() == neuron_scenario.total_faults

    def test_iterator_cycle_mode(self, lenet_model):
        scenario = default_scenario(dataset_size=2)
        wrapper = ptfiwrap(lenet_model, scenario=scenario)
        iterator = wrapper.get_fimodel_iter(cycle=True)
        models = [next(iterator) for _ in range(5)]
        assert len(models) == 5

    def test_reset_iterator(self, lenet_model):
        scenario = default_scenario(dataset_size=2)
        wrapper = ptfiwrap(lenet_model, scenario=scenario)
        iterator = wrapper.get_fimodel_iter()
        next(iterator)
        next(iterator)
        wrapper.reset_iterator()
        assert len(list(wrapper.get_fimodel_iter())) == 2

    def test_each_model_is_fresh_copy(self, lenet_model, small_images, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        iterator = wrapper.get_fimodel_iter()
        model_a = next(iterator)
        model_b = next(iterator)
        assert model_a is not model_b
        # Faults of model_a must not leak into model_b's weights beyond its own fault.
        state_a = model_a.state_dict()
        state_b = model_b.state_dict()
        differing = sum(
            0 if np.array_equal(state_a[key], state_b[key]) else 1 for key in state_a
        )
        assert differing <= 2

    def test_weight_faults_applied_to_corrupted_model(self, lenet_model, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        corrupted = next(wrapper.get_fimodel_iter())
        golden_state = lenet_model.state_dict()
        corrupted_state = corrupted.state_dict()
        changed = [
            key for key in golden_state if not np.array_equal(golden_state[key], corrupted_state[key])
        ]
        assert len(changed) == 1

    def test_neuron_faults_recorded_during_inference(self, lenet_model, small_images, neuron_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        corrupted = next(wrapper.get_fimodel_iter())
        assert wrapper.applied_faults == []
        corrupted(small_images[:1])
        assert len(wrapper.applied_faults) == 1

    def test_max_faults_per_image_group_size(self, lenet_model, small_images):
        scenario = default_scenario(dataset_size=3, max_faults_per_image=4, injection_target="weights")
        wrapper = ptfiwrap(lenet_model, scenario=scenario)
        next(wrapper.get_fimodel_iter())
        assert len(wrapper.applied_faults) == 4

    def test_error_model_override(self, lenet_model, small_images):
        scenario = default_scenario(dataset_size=1, injection_target="neurons", rnd_value_type="number")
        wrapper = ptfiwrap(lenet_model, scenario=scenario)
        corrupted = next(wrapper.get_fimodel_iter(error_model=RandomValueErrorModel(-1, 1)))
        corrupted(small_images[:1])
        assert wrapper.applied_faults[0].bit_position is None


class TestFaultMatrixReuse:
    def test_corrupted_model_for_group_is_repeatable(self, lenet_model, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        model_a = wrapper.corrupted_model_for_group(2)
        model_b = wrapper.corrupted_model_for_group(2)
        for (_, param_a), (_, param_b) in zip(model_a.named_parameters(), model_b.named_parameters()):
            np.testing.assert_array_equal(param_a.data, param_b.data)

    def test_corrupted_model_for_group_bounds(self, lenet_model, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        with pytest.raises(IndexError):
            wrapper.corrupted_model_for_group(9999)

    def test_save_and_reload_fault_matrix(self, lenet_model, weight_scenario, tmp_path):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        path = wrapper.save_fault_matrix(tmp_path / "faults.npz")
        other = ptfiwrap(lenet_model, scenario=weight_scenario.copy(fault_file=str(path)))
        assert other.get_fault_matrix() == wrapper.get_fault_matrix()

    def test_set_fault_matrix_target_mismatch(self, lenet_model, neuron_scenario, weight_scenario):
        neuron_wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        weight_wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        with pytest.raises(ValueError):
            weight_wrapper.set_fault_matrix(neuron_wrapper.get_fault_matrix())

    def test_fault_file_target_mismatch_raises(self, lenet_model, neuron_scenario, weight_scenario, tmp_path):
        neuron_wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        path = neuron_wrapper.save_fault_matrix(tmp_path / "neuron_faults.npz")
        with pytest.raises(ValueError):
            ptfiwrap(lenet_model, scenario=weight_scenario.copy(fault_file=str(path)))


class TestPartialFaultGroups:
    """Regression: trailing fault columns must not be silently dropped."""

    def _wrapper_with_seven_faults(self, lenet_model, tmp_path):
        generate_scenario = default_scenario(dataset_size=7, injection_target="weights", random_seed=21)
        wrapper = ptfiwrap(lenet_model, scenario=generate_scenario)
        path = wrapper.save_fault_matrix(tmp_path / "seven.npz")
        replay = default_scenario(
            dataset_size=3,
            max_faults_per_image=3,
            injection_target="weights",
            fault_file=str(path),
            random_seed=21,
        )
        return ptfiwrap(lenet_model, scenario=replay)

    def test_num_fault_groups_counts_partial_group(self, lenet_model, tmp_path):
        wrapper = self._wrapper_with_seven_faults(lenet_model, tmp_path)
        assert wrapper.get_fault_matrix().num_faults == 7
        assert wrapper.num_fault_groups() == 3  # 3 + 3 + 1, not 7 // 3 == 2

    def test_iterator_yields_final_partial_group_with_warning(self, lenet_model, tmp_path):
        wrapper = self._wrapper_with_seven_faults(lenet_model, tmp_path)
        iterator = wrapper.get_fimodel_iter()
        next(iterator)
        next(iterator)
        with pytest.warns(RuntimeWarning, match="partial"):
            last = next(iterator)
        assert len(wrapper.fault_injection.applied_fault_groups()[-1]) == 1
        golden_state = lenet_model.state_dict()
        changed = [
            key
            for key in golden_state
            if not np.array_equal(golden_state[key], last.state_dict()[key])
        ]
        assert len(changed) == 1
        with pytest.raises(StopIteration):
            next(iterator)

    def test_session_iterator_yields_partial_group(self, lenet_model, tmp_path):
        wrapper = self._wrapper_with_seven_faults(lenet_model, tmp_path)
        with pytest.warns(RuntimeWarning, match="partial"):
            counts = []
            for group in wrapper.get_fault_group_iter():
                with group:
                    counts.append(len(group.applied_faults))
        assert counts == [3, 3, 1]

    def test_exact_multiple_emits_no_warning(self, lenet_model, recwarn):
        wrapper = ptfiwrap(
            lenet_model,
            scenario=default_scenario(dataset_size=4, max_faults_per_image=2, injection_target="weights"),
        )
        models = list(wrapper.get_fimodel_iter())
        assert len(models) == wrapper.num_fault_groups() == 4
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]


def _hooked(model) -> int:
    """Forward hooks registered anywhere on the model."""
    return sum(len(module._forward_hooks) for module in model.modules())


class TestFaultGroupSessions:
    def test_fault_group_session_is_repeatable(self, lenet_model, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        with wrapper.fault_group_session(2) as first:
            bits_first = [f.corrupted_value for f in first.applied_faults]
        with wrapper.fault_group_session(2) as second:
            bits_second = [f.corrupted_value for f in second.applied_faults]
        assert bits_first == bits_second

    def test_fault_group_session_bounds(self, lenet_model, weight_scenario):
        wrapper = ptfiwrap(lenet_model, scenario=weight_scenario)
        with pytest.raises(IndexError):
            wrapper.fault_group_session(9999)

    def test_session_iter_matches_clone_iter_outputs(self, lenet_model, small_images, weight_scenario):
        wrapper_a = ptfiwrap(lenet_model, scenario=weight_scenario)
        wrapper_b = ptfiwrap(lenet_model, scenario=weight_scenario)
        clones = wrapper_a.get_fimodel_iter()
        sessions = wrapper_b.get_fault_group_iter()
        for _ in range(3):
            expected = next(clones)(small_images)
            with next(sessions) as group:
                actual = group.model(small_images)
            np.testing.assert_array_equal(expected, actual)

    def test_one_off_neuron_group_hooks_the_model_only_while_open(
        self, lenet_model, neuron_scenario
    ):
        wrapper = ptfiwrap(
            lenet_model, scenario=neuron_scenario.copy(batch_size=2, rnd_bit_range=(30, 30))
        )
        images = np.random.default_rng(3).normal(size=(2, 3, 32, 32)).astype(np.float32)
        golden = lenet_model(images)
        expected = wrapper.corrupted_model_for_group(3)(images)
        group = wrapper.fault_group_session(3)
        assert _hooked(lenet_model) == 0  # a group nobody enters leaves nothing behind
        for _ in range(2):  # re-entered: hooked again, the same faults again
            with group:
                assert group.model is lenet_model and _hooked(lenet_model) > 0
                actual = group.model(images)
            assert _hooked(lenet_model) == 0
            assert actual.tobytes() == expected.tobytes() != golden.tobytes()
            assert len(group.applied_faults) == 1
        assert lenet_model(images).tobytes() == golden.tobytes()

    def test_neuron_group_iterator_unhooks_the_model_when_closed_or_exhausted(
        self, lenet_model, neuron_scenario
    ):
        wrapper = ptfiwrap(lenet_model, scenario=neuron_scenario)
        groups = wrapper.get_fault_group_iter()
        assert _hooked(lenet_model) == 0  # nothing happens before the first group is asked for
        next(groups)
        assert _hooked(lenet_model) == wrapper.fault_injection.num_layers
        groups.close()
        assert _hooked(lenet_model) == 0
        for _ in wrapper.get_fault_group_iter(start=0, stop=3):
            assert _hooked(lenet_model) == wrapper.fault_injection.num_layers
        assert _hooked(lenet_model) == 0
