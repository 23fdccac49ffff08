"""Unit tests for the scenario configuration (default.yml schema)."""

from pathlib import Path

import numpy as np
import pytest

from repro.alficore import ScenarioConfig, default_scenario, load_scenario, save_scenario
from repro.experiments import ExperimentSpec, SpecError


class TestValidation:
    def test_defaults_are_valid(self):
        config = ScenarioConfig()
        assert config.total_faults == 10

    def test_total_faults_formula(self):
        config = ScenarioConfig(dataset_size=7, num_runs=3, max_faults_per_image=2)
        assert config.total_faults == 7 * 3 * 2
        assert config.number_of_inferences == 21

    @pytest.mark.parametrize(
        "field,value",
        [
            ("dataset_size", 0),
            ("num_runs", -1),
            ("max_faults_per_image", 0),
            ("batch_size", 0),
            ("injection_target", "activations"),
            ("inj_policy", "per_pixel"),
            ("fault_persistence", "flaky"),
            ("rnd_value_type", "gamma_ray"),
            ("quantization", "bfloat16"),
            ("stuck_at_value", 2),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(SpecError, match=rf"^scenario\.{field} must be"):
            ScenarioConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_runs", "2"),
            ("num_runs", 2.5),
            ("random_seed", "abc"),
            ("batch_size", True),
            ("rnd_bit_range", [23]),
            ("layer_range", [1]),
            ("rnd_value_min", "x"),
        ],
    )
    def test_mistyped_values_raise_a_value_error_naming_the_field(self, field, value):
        with pytest.raises(SpecError, match=rf"^scenario\.{field} must be"):
            ScenarioConfig.from_dict({field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("warp_drive", True),  # unknown key
            ("num_runs", "2"),  # mistyped
            ("rnd_value_max", [1.0]),
            ("layer_types", "conv2d"),
            ("dataset_size", 0),  # out of range
            ("rnd_bit_range", [-1, 3]),
            ("layer_range", [2, -1]),
            ("quantization", "bfloat16"),  # bad choice
            ("stuck_at_value", 2),
            ("layer_types", ["conv2d", "attention"]),
        ],
    )
    def test_every_scenario_mistake_names_its_dotted_path(self, field, value):
        # The scenario shares the document codec: the same SpecError, named
        # by the same dotted path, as a mistake in any other section, and the
        # same message whether the section is parsed alone or in a spec.
        with pytest.raises(SpecError, match=rf"^scenario\.{field}\b") as in_spec:
            ExperimentSpec.from_dict({"scenario": {field: value}})
        with pytest.raises(SpecError) as alone:
            ScenarioConfig.from_dict({field: value})
        assert str(alone.value) == str(in_spec.value)

    @pytest.mark.parametrize("value", [None, ""])
    def test_null_or_empty_means_the_default(self, value):
        spec = ExperimentSpec.from_dict({"scenario": {"dataset_size": value}})
        assert spec.scenario.dataset_size == ScenarioConfig().dataset_size

    def test_numpy_integers_are_integers_in_every_section(self):
        spec = ExperimentSpec.from_dict(
            {"scenario": {"batch_size": np.int64(4)}, "backend": {"workers": np.int64(1)}}
        )
        assert spec.scenario.batch_size == 4 and type(spec.scenario.batch_size) is int
        assert spec.backend.workers == 1 and type(spec.backend.workers) is int

    def test_integral_floats_are_coerced(self):
        config = ScenarioConfig.from_dict({"num_runs": 2.0, "rnd_bit_range": [23.0, 30]})
        assert config.num_runs == 2 and isinstance(config.num_runs, int)
        assert config.rnd_bit_range == (23, 30)

    def test_bit_range_must_fit_dtype(self):
        with pytest.raises(ValueError):
            ScenarioConfig(quantization="float16", rnd_bit_range=(0, 31))
        ScenarioConfig(quantization="float16", rnd_bit_range=(0, 15))  # valid

    def test_bit_range_ordering(self):
        with pytest.raises(ValueError):
            ScenarioConfig(rnd_bit_range=(20, 10))

    def test_value_range_ordering(self):
        with pytest.raises(ValueError):
            ScenarioConfig(rnd_value_type="number", rnd_value_min=2.0, rnd_value_max=1.0)

    def test_layer_types_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(layer_types=("conv2d", "attention"))
        with pytest.raises(ValueError):
            ScenarioConfig(layer_types=())

    def test_layer_range_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(layer_range=(5, 2))
        config = ScenarioConfig(layer_range=(0, 3))
        assert config.layer_range == (0, 3)


class TestConversion:
    def test_as_dict_round_trip(self):
        config = ScenarioConfig(
            dataset_size=20,
            injection_target="weights",
            rnd_bit_range=(23, 30),
            layer_range=(1, 4),
            layer_types=("conv2d",),
        )
        rebuilt = ScenarioConfig.from_dict(config.as_dict())
        assert rebuilt == config

    def test_from_dict_unknown_key_raises(self):
        with pytest.raises(SpecError):
            ScenarioConfig.from_dict({"dataset_size": 5, "warp_drive": True})

    def test_copy_with_overrides(self):
        config = default_scenario()
        modified = config.copy(dataset_size=99, injection_target="weights")
        assert modified.dataset_size == 99
        assert modified.injection_target == "weights"
        assert config.dataset_size == 10  # original unchanged

    def test_copy_revalidates(self):
        config = default_scenario()
        with pytest.raises(ValueError):
            config.copy(dataset_size=-5)

    def test_default_scenario_with_overrides(self):
        config = default_scenario(num_runs=4)
        assert config.num_runs == 4


class TestSchemaVersion:
    def test_as_dict_carries_schema_version(self):
        from repro.alficore.scenario import SCENARIO_SCHEMA_VERSION

        assert default_scenario().as_dict()["schema_version"] == SCENARIO_SCHEMA_VERSION

    def test_newer_schema_version_rejected(self):
        from repro.alficore.scenario import SCENARIO_SCHEMA_VERSION

        data = default_scenario().as_dict()
        data["schema_version"] = SCENARIO_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer than the supported"):
            ScenarioConfig.from_dict(data)

    def test_legacy_document_without_version_loads(self):
        data = default_scenario().as_dict()
        data.pop("schema_version")
        assert ScenarioConfig.from_dict(data) == default_scenario()

    def test_save_load_round_trip_covers_every_field(self, tmp_path: Path):
        """Every dataclass field survives a yml round-trip (non-default values)."""
        import dataclasses

        config = ScenarioConfig(
            dataset_size=17,
            num_runs=3,
            max_faults_per_image=2,
            batch_size=4,
            injection_target="weights",
            inj_policy="per_batch",
            fault_persistence="permanent",
            rnd_value_type="stuck_at",
            rnd_bit_range=(3, 9),
            rnd_value_min=-0.5,
            rnd_value_max=0.5,
            quantization="float32",
            stuck_at_value=0,
            layer_types=("conv2d", "fcc"),
            layer_range=(1, 5),
            weighted_layer_selection=False,
            model_name="resnet18",
            dataset_name="synthetic",
            random_seed=99,
            fault_file=tmp_path / "faults.npz",
        )
        loaded = load_scenario(save_scenario(config, tmp_path / "scenario.yml"))
        for fld in dataclasses.fields(ScenarioConfig):
            assert getattr(loaded, fld.name) == getattr(config, fld.name), fld.name
        # No field silently kept its default: the round-trip test must touch
        # every field with a non-default value.
        defaults = default_scenario()
        same_as_default = [
            fld.name
            for fld in dataclasses.fields(ScenarioConfig)
            if getattr(config, fld.name) == getattr(defaults, fld.name)
        ]
        assert same_as_default == ["quantization"], same_as_default

    def test_unknown_keys_error_is_actionable(self):
        with pytest.raises(SpecError, match=r"^scenario\.warp_drive: unknown key; known scenario"):
            ScenarioConfig.from_dict({"dataset_size": 5, "warp_drive": True})

    def test_fault_file_normalized_to_path(self):
        config = default_scenario(fault_file="some/faults.npz")
        assert config.fault_file == Path("some/faults.npz")
        assert default_scenario(fault_file="").fault_file is None
        assert default_scenario(fault_file=None).fault_file is None
        assert isinstance(config.as_dict()["fault_file"], str)


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path: Path):
        config = ScenarioConfig(
            dataset_size=15,
            injection_target="weights",
            rnd_bit_range=(23, 30),
            model_name="vgg16",
        )
        path = save_scenario(config, tmp_path / "scenario.yml")
        assert path.exists()
        loaded = load_scenario(path)
        assert loaded == config

    def test_saved_file_is_commented_yaml(self, tmp_path: Path):
        path = save_scenario(default_scenario(), tmp_path / "scenario.yml")
        text = path.read_text()
        assert text.startswith("#")
        assert "dataset_size" in text

    def test_load_missing_file(self, tmp_path: Path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "missing.yml")

    def test_load_non_mapping_file(self, tmp_path: Path):
        path = tmp_path / "broken.yml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_repo_default_yml_is_loadable(self):
        repo_default = Path(__file__).resolve().parents[1] / "scenarios" / "default.yml"
        if not repo_default.exists():
            pytest.skip("repository scenarios/default.yml not present")
        config = load_scenario(repo_default)
        assert config.rnd_value_type == "bitflip"
        assert config.layer_types == ("conv2d", "conv3d", "fcc")
