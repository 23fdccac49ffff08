"""End-to-end tests of the unified Experiment API.

The acceptance bar of the redesign: a spec serialized to YAML, reloaded and
re-run produces byte-identical campaign outputs (serial and ``workers>1``
sharded) to a run on in-memory :class:`Artifacts`, and
:class:`CampaignResult` merges ``step_range`` slices into a result identical
to an unsliced run.
"""

from pathlib import Path

import pytest

from benchmarks.conftest import run_campaign
from repro.alficore.scenario import default_scenario
from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.experiments import (
    Artifacts,
    BackendSpec,
    CampaignResult,
    ComponentSpec,
    Experiment,
    ExperimentSpec,
    SpecError,
    register_backend,
    run,
)
from repro.experiments.registry import BACKENDS
from repro.models import build_model
from repro.models.detection import build_detector
from repro.models.pretrained import fit_classifier_head

IMAGES = 9
CLASSES = 10


def classification_scenario(**overrides):
    base = dict(
        injection_target="weights",
        rnd_value_type="bitflip",
        rnd_bit_range=(23, 30),
        random_seed=1234,
        model_name="lenet5",
        dataset_size=IMAGES,
    )
    base.update(overrides)
    return default_scenario(**base)


def classification_spec(output_dir, **backend_kwargs) -> ExperimentSpec:
    builder = (
        Experiment.builder()
        .name("lenet5")
        .model("lenet5", num_classes=CLASSES, seed=0)
        .dataset("synthetic-classification", num_samples=IMAGES, num_classes=CLASSES,
                 noise=0.25, seed=1)
        .scenario(classification_scenario())
        .output_dir(output_dir)
    )
    if backend_kwargs:
        builder.backend(**backend_kwargs)
    return builder.build()


def build_fitted_classifier(dataset):
    model = build_model("lenet5", num_classes=CLASSES, seed=0)
    return fit_classifier_head(model, dataset, CLASSES)


def assert_files_identical(first: dict, second: dict, tags=None):
    tags = tags if tags is not None else sorted(set(first) & set(second))
    assert tags, "no common output files to compare"
    for tag in tags:
        a, b = Path(first[tag]).read_bytes(), Path(second[tag]).read_bytes()
        assert a == b, f"output file {tag!r} differs"


class TestArtifactsVsRegistryByteIdentity:
    @pytest.mark.parametrize("backend_kwargs", [
        {"name": "serial", "workers": 1},
        {"name": "sharded", "workers": 2, "num_shards": 3},
    ], ids=["serial", "sharded"])
    def test_classification(self, tmp_path, backend_kwargs):
        dataset = SyntheticClassificationDataset(
            num_samples=IMAGES, num_classes=CLASSES, noise=0.25, seed=1
        )
        in_memory = run_campaign(
            "classification", build_fitted_classifier(dataset), dataset,
            classification_scenario(),
            output_dir=tmp_path / "in_memory",
            workers=backend_kwargs.get("workers", 1),
            num_shards=backend_kwargs.get("num_shards"),
            num_faults=1,
        )

        spec = classification_spec(tmp_path / "spec", **backend_kwargs)
        result = run(spec)

        assert_files_identical(in_memory.output_files, result.output_files)
        assert in_memory.summary["corrupted"] == result.summary["corrupted"]

    def test_classification_yaml_reload_rerun(self, tmp_path):
        spec = classification_spec(tmp_path / "direct")
        direct = run(spec)

        reloaded = ExperimentSpec.load(spec.save(tmp_path / "spec.yml"))
        reloaded.output_dir = tmp_path / "reloaded"
        again = run(reloaded)

        assert_files_identical(direct.output_files, again.output_files)
        assert direct.summary == {**again.summary, "output_files": direct.summary["output_files"]}

    @pytest.mark.parametrize("backend_kwargs", [
        {"name": "serial", "workers": 1},
        {"name": "sharded", "workers": 2, "num_shards": 2},
    ], ids=["serial", "sharded"])
    def test_detection(self, tmp_path, backend_kwargs):
        dataset = CocoLikeDetectionDataset(num_samples=6, num_classes=5, seed=9)
        in_memory = run_campaign(
            "detection", build_detector("yolov3", num_classes=5, seed=1), dataset,
            default_scenario(
                injection_target="weights", rnd_bit_range=(23, 30), random_seed=77,
                model_name="yolov3", dataset_size=6,
            ),
            output_dir=tmp_path / "in_memory",
            workers=backend_kwargs.get("workers", 1),
            num_shards=backend_kwargs.get("num_shards"),
            num_faults=1,
        )

        spec = (
            Experiment.builder()
            .name("yolov3")
            .task("detection")
            .model("yolov3", num_classes=5, seed=1)
            .dataset("synthetic-coco", num_samples=6, num_classes=5, seed=9)
            .scenario(
                injection_target="weights", rnd_bit_range=(23, 30), random_seed=77,
                model_name="yolov3", dataset_size=6,
            )
            .backend(**backend_kwargs)
            .output_dir(tmp_path / "spec")
            .build()
        )
        result = run(spec)

        assert_files_identical(in_memory.output_files, result.output_files)
        assert in_memory.summary["corrupted"] == result.summary["corrupted"]

    def test_streaming_run_with_own_writer_matches_spec_run(self, tmp_path):
        from repro.alficore.results import CampaignResultWriter

        dataset = SyntheticClassificationDataset(
            num_samples=IMAGES, num_classes=CLASSES, noise=0.25, seed=1
        )
        streamed = run_campaign(
            "classification", build_fitted_classifier(dataset), dataset,
            classification_scenario(),
            writer=CampaignResultWriter(tmp_path / "streamed", campaign_name="lenet5"),
            collect_outputs=False,
        )

        result = run(classification_spec(tmp_path / "spec"))
        assert_files_identical(
            streamed.output_files, result.output_files,
            tags=["golden_csv", "corrupted_csv", "applied_faults", "faults", "meta"],
        )
        for kpi in ("sde_rate", "num_inferences"):
            assert streamed.summary["corrupted"][kpi] == result.summary["corrupted"][kpi]


class TestFaultFileReplay:
    def test_scenario_declared_fault_file_survives_default_argument(self, tmp_path):
        """A fault_file in the scenario keeps replaying when nothing overrides it."""
        from repro.alficore import FaultMatrix, ptfiwrap

        dataset = SyntheticClassificationDataset(
            num_samples=IMAGES, num_classes=CLASSES, noise=0.25, seed=1
        )
        model = build_fitted_classifier(dataset)
        stored = tmp_path / "stored_faults.npz"
        ptfiwrap(model, scenario=classification_scenario()).save_fault_matrix(stored)

        result = run_campaign(
            "classification", model, dataset,
            classification_scenario(random_seed=999, fault_file=stored),
        )  # no fault_file argument
        assert result.wrapper.get_fault_matrix() == FaultMatrix.load(stored)


class TestGroupRun:
    """``run([spec, ...])``: campaigns that differ in their faults, one pass over the images."""

    def specs(self, tmp_path):
        first = classification_spec(tmp_path / "p0")
        second = classification_spec(tmp_path / "p1")
        second.scenario = second.scenario.copy(injection_target="neurons", random_seed=77)
        return [first, second]

    def test_each_result_is_the_lone_runs(self, tmp_path):
        group = run(self.specs(tmp_path / "group"))
        alone = [run(spec) for spec in self.specs(tmp_path / "alone")]
        assert len(group) == 2 and group[0].core is group[1].core
        assert [result.spec.scenario for result in group] == [a.spec.scenario for a in alone]
        for grouped, lone in zip(group, alone):
            assert grouped.summary["corrupted"] == lone.summary["corrupted"]
            assert sorted(grouped.output_files) == sorted(lone.output_files)
            assert_files_identical(grouped.output_files, lone.output_files)

    def test_an_empty_group_is_refused(self):
        with pytest.raises(SpecError, match="must not be empty"):
            run([])

    @pytest.mark.parametrize("section", ["model", "dataset", "scenario"])
    def test_specs_that_differ_in_more_than_their_faults_are_refused(self, tmp_path, section):
        # A group builds one model, dataset and step geometry, from its first
        # spec: grouped, the second spec would silently run on the first's.
        first, second = self.specs(tmp_path)
        if section == "scenario":
            second.scenario = second.scenario.copy(batch_size=3, inj_policy="per_batch")
        else:
            component = getattr(second, section)
            params = {**component.params, "seed": component.params["seed"] + 1}
            setattr(second, section, ComponentSpec(component.name, params))
        with pytest.raises(SpecError, match="differ only"):
            run([first, second])
        assert not (tmp_path / "p0").exists()

    def test_a_wrapper_or_writer_serves_one_campaign(self, tmp_path):
        from repro.alficore import ptfiwrap

        model = build_model("lenet5", num_classes=CLASSES, seed=0)
        with pytest.raises(ValueError, match="serves one campaign"):
            run(self.specs(tmp_path), Artifacts(wrapper=ptfiwrap(model)))


class TestCustomBackend:
    def test_registered_backend_receives_the_execution_section(self, tmp_path):
        received = []

        @register_backend("test-recording")
        def recording(core, backend, execution):
            received.append((backend, execution))
            stream_paths = core.run()
            return core.task.state, stream_paths

        try:
            spec = classification_spec(tmp_path / "custom")
            spec.backend = BackendSpec("test-recording")
            spec.execution.retries = 5
            result = run(spec)
        finally:
            BACKENDS.unregister("test-recording")
        assert received == [(spec.backend, spec.execution)]
        assert received[0][1].retries == 5
        reference = run(classification_spec(tmp_path / "serial"))
        assert_files_identical(
            reference.output_files, result.output_files,
            tags=["golden_csv", "corrupted_csv", "applied_faults", "faults"],
        )


class TestCampaignResultHandle:
    def test_lazy_record_iterators(self, tmp_path):
        result = run(classification_spec(tmp_path / "records"))
        golden_rows = list(result.iter_records("golden_csv"))
        assert len(golden_rows) == IMAGES
        assert golden_rows[0]["model_tag"] == "golden"
        applied = list(result.iter_records("applied_faults"))
        assert len(applied) == IMAGES
        with pytest.raises(KeyError, match="no output file tagged"):
            next(result.iter_records("nope"))

    def test_json_iteration_is_incremental_and_matches_json_load(self, tmp_path, monkeypatch):
        import json

        import repro.alficore.results as results_mod

        spec = (
            Experiment.builder()
            .name("yolov3")
            .task("detection")
            .model("yolov3", num_classes=5, seed=1)
            .dataset("synthetic-coco", num_samples=4, num_classes=5, seed=9)
            .scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=77,
                      model_name="yolov3", dataset_size=4)
            .output_dir(tmp_path / "det")
            .build()
        )
        result = run(spec)
        # A tiny chunk size forces every buffer-boundary path in the
        # incremental parser.
        monkeypatch.setattr(results_mod, "_JSON_CHUNK", 7)
        for tag in ("corrupted_json", "applied_faults", "ground_truth"):
            expected = json.loads(Path(result.output_files[tag]).read_text())
            assert list(result.iter_records(tag)) == expected

    def test_json_iteration_survives_numbers_on_chunk_boundaries(self, tmp_path, monkeypatch):
        import json

        import repro.alficore.results as results_mod
        from repro.alficore.results import iter_record_file

        records = ["s", 3.5, True, 12345, -1e5, {"x": 2.25}, None, [1.5, "a,b"]]
        path = tmp_path / "scalars.json"
        path.write_text(json.dumps(records))
        # Every chunk size must parse identically — including sizes that cut
        # a float right after its integer part or exponent marker.
        for chunk in range(1, 12):
            monkeypatch.setattr(results_mod, "_JSON_CHUNK", chunk)
            assert list(iter_record_file(path)) == records, f"chunk={chunk}"

    def test_json_iteration_handles_empty_and_rejects_non_arrays(self, tmp_path):
        from repro.alficore.results import iter_record_file

        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert list(iter_record_file(empty)) == []
        no_records = tmp_path / "no_records.json"
        no_records.write_text("[]")
        assert list(iter_record_file(no_records)) == []
        mapping = tmp_path / "mapping.json"
        mapping.write_text('{"a": 1}')
        with pytest.raises(ValueError, match="not a record array"):
            list(iter_record_file(mapping))
        truncated = tmp_path / "truncated.json"
        truncated.write_text('[\n{"a": 1},\n{"b": ')
        with pytest.raises(ValueError, match="truncated|unterminated"):
            list(iter_record_file(truncated))

    def test_step_range_slices_merge_to_full_run(self, tmp_path):
        full = run(classification_spec(tmp_path / "full"))

        halves = []
        for index, (start, stop) in enumerate(((0, IMAGES // 2), (IMAGES // 2, IMAGES))):
            spec = classification_spec(tmp_path / f"half{index}")
            spec.backend = BackendSpec("serial", step_range=(start, stop))
            halves.append(run(spec))

        merged = CampaignResult.merge(halves, output_dir=tmp_path / "merged")
        assert merged.summary["corrupted"] == full.summary["corrupted"]
        assert_files_identical(
            full.output_files, merged.output_files,
            tags=["golden_csv", "corrupted_csv", "applied_faults"],
        )

    def test_merge_into_a_slice_directory_does_not_destroy_inputs(self, tmp_path):
        full = run(classification_spec(tmp_path / "full"))
        halves = []
        for index, (start, stop) in enumerate(((0, IMAGES // 2), (IMAGES // 2, IMAGES))):
            spec = classification_spec(tmp_path / f"half{index}")
            spec.backend = BackendSpec("serial", step_range=(start, stop))
            halves.append(run(spec))

        # Merging into slice 0's own directory must still read both inputs.
        merged = CampaignResult.merge(halves, output_dir=tmp_path / "half0")
        assert_files_identical(
            full.output_files, merged.output_files,
            tags=["golden_csv", "corrupted_csv", "applied_faults"],
        )

    def test_merge_rejects_mixed_tasks(self, tmp_path):
        result = run(classification_spec(tmp_path / "one"))
        other = CampaignResult(spec=result.spec, task="detection", summary={})
        with pytest.raises(ValueError, match="different tasks"):
            CampaignResult.merge([result, other])


class TestStreamingEvaluation:
    def test_streaming_run_reports_kpis_from_counters(self, tmp_path):
        buffered = run(classification_spec(tmp_path / "buffered"))
        streaming_spec = classification_spec(tmp_path / "streaming")
        streaming_spec.task_options["collect_outputs"] = False
        streaming = run(streaming_spec)

        assert streaming.extras == {}
        assert not streaming.state.golden_logits  # nothing buffered
        buffered_kpis = buffered.summary["corrupted"]
        streaming_kpis = streaming.summary["corrupted"]
        for key in ("num_inferences", "golden_top1_accuracy", "masked_rate",
                    "sde_rate", "due_rate", "corrupted_top1_accuracy"):
            assert streaming_kpis[key] == buffered_kpis[key], key


class TestModelKindValidation:
    def test_detector_in_classification_task_rejected(self):
        from repro.experiments import SpecError

        spec = classification_spec(None)
        spec.output_dir = None
        spec.model = ComponentSpec("yolov3", {"num_classes": 5, "seed": 1})
        with pytest.raises(SpecError, match="registered as a 'detector'"):
            spec.validate(registries=True)

    def test_detection_dataset_in_classification_task_rejected(self):
        from repro.experiments import SpecError

        spec = classification_spec(None)
        spec.output_dir = None
        spec.dataset = ComponentSpec("synthetic-coco", {"num_samples": 4, "num_classes": 5})
        with pytest.raises(SpecError, match="registered for task 'detection'"):
            spec.validate(registries=True)


class TestResultNaming:
    def test_default_scenario_model_name_falls_back_to_spec_model(self, tmp_path):
        spec = classification_spec(tmp_path / "named")
        spec.scenario = spec.scenario.copy(model_name="model")  # the default sentinel
        result = run(spec)
        assert result.context["model_name"] == "lenet5"
        assert (tmp_path / "named" / "lenet5_corrupted_results.csv").exists()


class TestArtifactsOverride:
    def test_prebuilt_model_and_dataset_are_used(self, tmp_path):
        dataset = SyntheticClassificationDataset(
            num_samples=IMAGES, num_classes=CLASSES, noise=0.25, seed=1
        )
        model = build_fitted_classifier(dataset)
        spec = classification_spec(tmp_path / "artifacts")
        result = run(spec, artifacts=Artifacts(model=model, dataset=dataset))
        assert result.core.model is model
        assert result.core.dataset is dataset

    def test_registry_resolution_matches_prebuilt(self, tmp_path):
        dataset = SyntheticClassificationDataset(
            num_samples=IMAGES, num_classes=CLASSES, noise=0.25, seed=1
        )
        model = build_fitted_classifier(dataset)
        via_artifacts = run(
            classification_spec(tmp_path / "a"), artifacts=Artifacts(model=model, dataset=dataset)
        )
        via_registry = run(classification_spec(tmp_path / "b"))
        assert_files_identical(via_artifacts.output_files, via_registry.output_files)
