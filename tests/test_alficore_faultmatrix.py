"""Unit tests for fault matrix generation and persistence (Table I)."""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.alficore import FaultMatrix, FaultMatrixGenerator, NEURON_ROWS, WEIGHT_ROWS, default_scenario
from repro.models import MODEL_REGISTRY
from repro.pytorchfi import FaultInjection
from repro.pytorchfi.core import UNSET
from tests.oracles.faultmatrix_v0 import PerColumnGenerator


@pytest.fixture
def lenet_fi(lenet_model):
    return FaultInjection(lenet_model, input_shape=(3, 32, 32))


class TestFaultMatrixContainer:
    def test_row_labels(self):
        matrix = FaultMatrix(np.zeros((7, 3)), "neurons", {})
        assert matrix.rows == NEURON_ROWS
        matrix = FaultMatrix(np.zeros((7, 3)), "weights", {})
        assert matrix.rows == WEIGHT_ROWS

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            FaultMatrix(np.zeros((6, 3)), "neurons", {})

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            FaultMatrix(np.zeros((7, 3)), "biases", {})

    def test_column_access(self):
        matrix = FaultMatrix(np.arange(14).reshape(7, 2), "neurons", {})
        np.testing.assert_array_equal(matrix.column(1), [1, 3, 5, 7, 9, 11, 13])
        with pytest.raises(IndexError):
            matrix.column(2)

    def test_columns_submatrix(self):
        matrix = FaultMatrix(np.arange(21).reshape(7, 3), "neurons", {})
        sub = matrix.columns([0, 2])
        assert sub.shape == (7, 2)

    def test_conversion_guards(self):
        neurons = FaultMatrix(np.zeros((7, 2)), "neurons", {})
        weights = FaultMatrix(np.zeros((7, 2)), "weights", {})
        with pytest.raises(ValueError):
            neurons.to_weight_faults([0])
        with pytest.raises(ValueError):
            weights.to_neuron_faults([0])


class TestGeneration:
    def test_number_of_columns(self, lenet_fi):
        scenario = default_scenario(dataset_size=5, num_runs=2, max_faults_per_image=3)
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        assert matrix.num_faults == scenario.total_faults == 30
        assert matrix.matrix.shape == (7, 30)

    def test_neuron_coordinates_within_layer_shapes(self, lenet_fi):
        scenario = default_scenario(dataset_size=50, injection_target="neurons")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        for column_index in range(matrix.num_faults):
            fault = matrix.to_neuron_faults([column_index])[0]
            info = lenet_fi.get_layer_info(fault.layer)
            shape = info.output_shape
            assert 0 <= fault.layer < lenet_fi.num_layers
            if len(shape) == 2:
                assert 0 <= fault.channel < shape[1]
                assert fault.height == UNSET and fault.width == UNSET
            else:
                assert 0 <= fault.channel < shape[1]
                assert 0 <= fault.height < shape[2]
                assert 0 <= fault.width < shape[3]

    def test_weight_coordinates_within_weight_shapes(self, lenet_fi):
        scenario = default_scenario(dataset_size=50, injection_target="weights")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        for column_index in range(matrix.num_faults):
            fault = matrix.to_weight_faults([column_index])[0]
            shape = lenet_fi.get_layer_info(fault.layer).weight_shape
            assert 0 <= fault.out_channel < shape[0]
            assert 0 <= fault.in_channel < shape[1]
            if len(shape) == 4:
                assert 0 <= fault.height < shape[2]
                assert 0 <= fault.width < shape[3]

    def test_bitflip_values_within_bit_range(self, lenet_fi):
        scenario = default_scenario(dataset_size=40, rnd_value_type="bitflip", rnd_bit_range=(23, 30))
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        values = matrix.matrix[6, :]
        assert values.min() >= 23 and values.max() <= 30
        np.testing.assert_array_equal(values, values.astype(int))

    def test_number_values_within_range(self, lenet_fi):
        scenario = default_scenario(
            dataset_size=40, rnd_value_type="number", rnd_value_min=-0.5, rnd_value_max=0.5
        )
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        values = matrix.matrix[6, :]
        assert values.min() >= -0.5 and values.max() <= 0.5

    def test_layer_range_respected(self, lenet_fi):
        scenario = default_scenario(dataset_size=40, layer_range=(0, 1))
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        assert set(np.unique(matrix.matrix[1, :])) <= {0.0, 1.0}

    def test_layer_range_exceeding_model_raises(self, lenet_fi):
        scenario = default_scenario(layer_range=(0, 99))
        with pytest.raises(ValueError):
            FaultMatrixGenerator(lenet_fi, scenario)

    def test_same_seed_same_matrix(self, lenet_fi):
        scenario = default_scenario(dataset_size=10, random_seed=5)
        first = FaultMatrixGenerator(lenet_fi, scenario).generate()
        second = FaultMatrixGenerator(lenet_fi, scenario).generate()
        assert first == second

    def test_different_seed_different_matrix(self, lenet_fi):
        first = FaultMatrixGenerator(lenet_fi, default_scenario(dataset_size=10, random_seed=1)).generate()
        second = FaultMatrixGenerator(lenet_fi, default_scenario(dataset_size=10, random_seed=2)).generate()
        assert first != second

    def test_batch_row_for_per_image_policy(self, lenet_fi):
        scenario = default_scenario(dataset_size=6, batch_size=2, inj_policy="per_image")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        batch_rows = matrix.matrix[0, :].astype(int)
        expected = [i % 2 for i in range(6)]
        np.testing.assert_array_equal(batch_rows, expected)

    def test_metadata_contains_scenario(self, lenet_fi):
        scenario = default_scenario(dataset_size=4, model_name="lenet")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        assert matrix.metadata["model_name"] == "lenet"
        assert matrix.metadata["scenario"]["dataset_size"] == 4
        assert len(matrix.metadata["layer_names"]) == lenet_fi.num_layers

    def test_invalid_fault_count(self, lenet_fi):
        generator = FaultMatrixGenerator(lenet_fi, default_scenario())
        with pytest.raises(ValueError):
            generator.generate(0)


class TestPersistence:
    def test_save_load_round_trip(self, lenet_fi, tmp_path):
        scenario = default_scenario(dataset_size=8, injection_target="weights")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        path = matrix.save(tmp_path / "faults.npz")
        loaded = FaultMatrix.load(path)
        assert loaded == matrix
        assert loaded.metadata["scenario"]["dataset_size"] == 8

    def test_load_without_suffix(self, lenet_fi, tmp_path):
        matrix = FaultMatrixGenerator(lenet_fi, default_scenario(dataset_size=3)).generate()
        matrix.save(tmp_path / "faults")
        loaded = FaultMatrix.load(tmp_path / "faults")
        assert loaded == matrix

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FaultMatrix.load(tmp_path / "nothing.npz")

    def test_reused_faults_reproduce_identical_corruption(self, lenet_model, lenet_fi, tmp_path):
        """The paper's key reuse property: the same stored fault set produces

        bit-identical corrupted weights in two separate experiments."""
        scenario = default_scenario(dataset_size=5, injection_target="weights")
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        path = matrix.save(tmp_path / "faults.npz")
        loaded = FaultMatrix.load(path)

        faults_a = matrix.to_weight_faults(range(matrix.num_faults))
        faults_b = loaded.to_weight_faults(range(loaded.num_faults))
        model_a = lenet_fi.declare_weight_fault_injection(faults_a)
        model_b = lenet_fi.declare_weight_fault_injection(faults_b)
        for (name_a, param_a), (name_b, param_b) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(param_a.data, param_b.data)


class Volume(nn.Module):
    """A rank-5 ``Conv3d`` layer in front of a ``Linear`` head."""

    def __init__(self, num_classes: int = 10, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = nn.Conv3d(1, 2, (1, 3, 3), padding=(0, 1, 1), rng=rng)
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(2 * 2 * 8 * 8, num_classes, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.conv(x)))


INPUT_SHAPES = {
    "lenet5": (3, 32, 32),
    "alexnet": (3, 32, 32),
    "resnet50": (3, 32, 32),
    "mlp": (3, 32, 32),
    "volume": (1, 2, 8, 8),
}
#: the differential grid: model x target x policy x value type x layer range
CASES = [
    (model, target, policy, value_type, layers)
    for model in INPUT_SHAPES
    for target in ("neurons", "weights")
    for policy in ("per_image", "per_batch", "per_epoch")
    for value_type in ("bitflip", "stuck_at", "number")
    for layers in ("all", "1-2")
]
PINS_PATH = Path(__file__).parent / "fixtures" / "faultmatrix_pins.json"


def case_id(case) -> str:
    return "-".join(case)


@functools.lru_cache(maxsize=None)
def fault_injection(model_name: str) -> FaultInjection:
    """The profiled injector of one grid model (profiled once per session)."""
    factory = Volume if model_name == "volume" else MODEL_REGISTRY[model_name]
    return FaultInjection(factory(num_classes=10, seed=0).eval(), input_shape=INPUT_SHAPES[model_name])


def case_scenario(case):
    """The scenario of one grid case: 24 faults, 4 images per batch."""
    model_name, target, policy, value_type, layers = case
    fi = fault_injection(model_name)
    return default_scenario(
        dataset_size=6, num_runs=2, max_faults_per_image=2, batch_size=4,
        injection_target=target, inj_policy=policy, rnd_value_type=value_type,
        rnd_bit_range=(3, 30), rnd_value_min=-3.5, rnd_value_max=2.0,
        layer_range=None if layers == "all" else (1, min(2, fi.num_layers - 1)),
        random_seed=29,
    )


def matrix_digest(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype=np.float64).tobytes()).hexdigest()


class TestFrozenReference:
    """The generator against the frozen per-column path it replaced
    (``tests/oracles/faultmatrix_v0.py``) and against matrix digests
    captured before the replacement: same seed, same bytes."""

    @pytest.fixture(scope="class")
    def pins(self):
        return json.loads(PINS_PATH.read_text())

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_matrix_equals_the_frozen_per_column_oracle(self, case, pins):
        fi, scenario = fault_injection(case[0]), case_scenario(case)
        matrix = FaultMatrixGenerator(fi, scenario).generate().matrix
        assert matrix.tobytes() == PerColumnGenerator(fi, scenario).generate().tobytes()
        assert matrix_digest(matrix) == pins["matrices"][case_id(case)]

    def test_explicit_fault_count_and_injected_generator(self):
        fi = fault_injection("lenet5")
        scenario = case_scenario(("lenet5", "neurons", "per_batch", "number", "all"))
        drawn = FaultMatrixGenerator(fi, scenario, rng=np.random.default_rng(3)).generate(37)
        frozen = PerColumnGenerator(fi, scenario, rng=np.random.default_rng(3)).generate(37)
        assert drawn.matrix.tobytes() == frozen.tobytes()

    def test_plug_in_value_types_draw_a_uniform_like_number(self):
        from repro.alficore.scenario import register_value_type, unregister_value_type

        register_value_type("plugin-uniform")
        try:
            fi = fault_injection("volume")
            for target in ("neurons", "weights"):
                scenario = case_scenario(("volume", target, "per_image", "number", "all"))
                plugin = scenario.copy(rnd_value_type="plugin-uniform")
                drawn = FaultMatrixGenerator(fi, plugin).generate().matrix
                assert drawn.tobytes() == PerColumnGenerator(fi, plugin).generate().tobytes()
                assert drawn.tobytes() == FaultMatrixGenerator(fi, scenario).generate().matrix.tobytes()
        finally:
            unregister_value_type("plugin-uniform")

    def test_campaign_fault_file_bytes_are_unchanged(self, tmp_path, pins):
        from repro.experiments import ExperimentSpec, run

        spec = ExperimentSpec.from_dict(pins["campaign"]["spec"]).copy(output_dir=tmp_path)
        run(spec)
        written = (tmp_path / "lenet5_faults.npz").read_bytes()
        assert hashlib.sha256(written).hexdigest() == pins["campaign"]["faults_npz_sha256"]


class TestMatrixEquality:
    def test_one_ulp_in_the_value_row_compares_unequal(self):
        values = np.full((7, 3), 0.25)
        nudged = values.copy()
        nudged[6, 1] = np.nextafter(nudged[6, 1], np.inf)
        assert FaultMatrix(values, "neurons", {}) != FaultMatrix(nudged, "neurons", {})

    def test_large_coordinates_compare_exactly(self):
        first = np.zeros((7, 1))
        second = first.copy()
        first[2, 0], second[2, 0] = 100000, 100001
        assert FaultMatrix(first, "weights", {}) != FaultMatrix(second, "weights", {})

    def test_nan_values_and_shapes(self):
        values = np.full((7, 2), np.nan)
        assert FaultMatrix(values, "neurons", {}) == FaultMatrix(values.copy(), "neurons", {})
        assert FaultMatrix(values, "neurons", {}) != FaultMatrix(values, "weights", {})
        assert FaultMatrix(values, "neurons", {}) != FaultMatrix(values[:, :1], "neurons", {})


class TestReloadedMatrices:
    @pytest.mark.parametrize("target", ["neurons", "weights"])
    def test_save_load_round_trip_per_target(self, lenet_fi, tmp_path, target):
        scenario = default_scenario(dataset_size=15, injection_target=target, random_seed=13)
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate()
        path = matrix.save(tmp_path / f"{target}_faults.npz")
        loaded = FaultMatrix.load(path)
        assert loaded == matrix
        assert loaded.injection_target == target
        np.testing.assert_array_equal(loaded.matrix, matrix.matrix)

    def test_partial_group_iteration_after_reload(self, lenet_model, lenet_fi, tmp_path):
        """A reloaded matrix whose width is not a multiple of the group size

        must still be consumed completely (final partial group included)."""
        from repro.alficore import ptfiwrap

        scenario = default_scenario(dataset_size=7, injection_target="weights", random_seed=17)
        matrix = FaultMatrixGenerator(lenet_fi, scenario).generate(7)
        path = matrix.save(tmp_path / "seven_faults.npz")

        replay = default_scenario(
            dataset_size=4,
            max_faults_per_image=3,
            injection_target="weights",
            fault_file=str(path),
            random_seed=17,
        )
        wrapper = ptfiwrap(lenet_model, scenario=replay)
        assert wrapper.num_fault_groups() == 3  # 3 + 3 + 1 (partial)
        with pytest.warns(RuntimeWarning, match="partial"):
            sessions = list(wrapper.get_fault_group_iter())
        assert len(sessions) == 3
        applied_counts = []
        for session in sessions:
            with session:
                applied_counts.append(len(session.applied_faults))
        assert applied_counts == [3, 3, 1]
