"""Tests for the central component registries and their error paths."""

import pytest

from repro.cli import build_parser
from repro.experiments import (
    DATASETS,
    DuplicateComponentError,
    ERROR_MODELS,
    MODELS,
    PROTECTIONS,
    Registry,
    TASKS,
    UnknownComponentError,
    register_error_model,
    register_model,
)


class TestRegistryBasics:
    def test_builtins_are_registered(self):
        assert {"lenet5", "alexnet", "vgg16", "resnet50"} <= set(MODELS)
        assert {"yolov3", "retinanet", "faster_rcnn"} <= set(MODELS)
        assert {"synthetic-classification", "synthetic-coco"} <= set(DATASETS)
        assert {"bitflip", "number", "stuck_at"} <= set(ERROR_MODELS)
        assert {"ranger", "clipper"} <= set(PROTECTIONS)
        assert {"classification", "detection"} <= set(TASKS)

    def test_sorted_iteration_and_len(self):
        registry = Registry("thing")
        registry.register("b", lambda: 2)
        registry.register("a", lambda: 1)
        assert sorted(registry) == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "c" not in registry

    def test_metadata_filtering(self):
        classifiers = MODELS.names(kind="classifier")
        detectors = MODELS.names(kind="detector")
        assert "lenet5" in classifiers and "lenet5" not in detectors
        assert "yolov3" in detectors and "yolov3" not in classifiers
        assert classifiers == sorted(classifiers)


class TestErrorPaths:
    def test_duplicate_registration_raises(self):
        registry = Registry("gizmo")
        registry.register("x", lambda: 1)
        with pytest.raises(DuplicateComponentError, match="already registered"):
            registry.register("x", lambda: 2)
        # override=True replaces instead
        registry.register("x", lambda: 3, override=True)
        assert registry.get("x")() == 3

    def test_duplicate_builtin_model_raises(self):
        with pytest.raises(DuplicateComponentError):
            register_model("lenet5", lambda: None)

    def test_unknown_name_has_did_you_mean(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            MODELS.get("lenet")
        message = str(excinfo.value)
        assert "did you mean" in message
        assert "lenet5" in message

    def test_unknown_name_without_close_match_lists_registered(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            TASKS.get("zzzzz")
        assert "registered:" in str(excinfo.value)

    def test_register_task_instantiates_classes(self):
        from repro.experiments import ExperimentTask, register_task

        @register_task("unit-test-task")
        class UnitTestTask(ExperimentTask):
            name = "unit-test-task"

        try:
            plugin = TASKS.get("unit-test-task")
            assert isinstance(plugin, UnitTestTask)  # instance, not the class
        finally:
            TASKS.unregister("unit-test-task")

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("made", flavor="sweet")
        def make():
            return 42

        assert registry.get("made") is make
        assert registry.metadata("made") == {"flavor": "sweet"}
        registry.unregister("made")
        assert "made" not in registry


class TestCliChoicesStaySynced:
    """``sorted(registry)`` drives CLI ``choices`` — help text self-syncs."""

    @staticmethod
    def _option_choices(command: str, option: str):
        parser = build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, getattr(__import__("argparse"), "_SubParsersAction"))
        )
        sub = subparsers.choices[command]
        action = next(a for a in sub._actions if option in a.option_strings)
        return list(action.choices)

    def test_imgclass_model_choices_match_registry(self):
        assert self._option_choices("run-imgclass", "--model") == MODELS.names(kind="classifier")

    def test_objdet_model_choices_match_registry(self):
        assert self._option_choices("run-objdet", "--model") == MODELS.names(kind="detector")

    def test_protection_choices_match_registry(self):
        assert self._option_choices("run-imgclass", "--protection") == [
            "none", *PROTECTIONS.names()
        ]

    def test_value_type_choices_match_registry(self):
        assert self._option_choices("run-imgclass", "--value-type") == sorted(ERROR_MODELS)

    def test_newly_registered_model_appears_in_choices(self):
        from repro.models import lenet5

        register_model("unit-test-classifier", lenet5, kind="classifier")
        try:
            assert "unit-test-classifier" in self._option_choices("run-imgclass", "--model")
        finally:
            MODELS.unregister("unit-test-classifier")


class TestCustomErrorModelRegistration:
    def test_registered_value_type_is_legal_in_scenarios(self):
        from repro.alficore.scenario import default_scenario
        from repro.pytorchfi.errormodels import RandomValueErrorModel

        from repro.experiments import unregister_error_model

        register_error_model(
            "unit-test-zero", lambda scenario: RandomValueErrorModel(0.0, 0.0)
        )
        try:
            scenario = default_scenario(rnd_value_type="unit-test-zero")
            assert scenario.rnd_value_type == "unit-test-zero"
            model = ERROR_MODELS.get("unit-test-zero")(scenario)
            assert isinstance(model, RandomValueErrorModel)
        finally:
            unregister_error_model("unit-test-zero")
        # The whitelist entry is gone with the registration.
        with pytest.raises(ValueError, match="rnd_value_type"):
            default_scenario(rnd_value_type="unit-test-zero")

    def test_failed_duplicate_registration_does_not_whitelist(self):
        with pytest.raises(DuplicateComponentError):
            register_error_model("bitflip", lambda scenario: None)
        # Built-in value types are unaffected; and no stray extra entry
        # appears for a name that failed to register.
        from repro.alficore.scenario import known_value_types

        assert known_value_types().count("bitflip") == 1
