"""Shard-merge determinism of the sharded campaign executor.

The contract under test: for the same seed, a campaign partitioned into N
shards (run in-process or via a worker pool) produces *byte-identical* merged
record files and equal KPI summaries compared to a single-process run, and
weight campaigns restore the model bit-exactly regardless of sharding.
"""

import dataclasses
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import run_campaign, run_streaming, streaming_kpis
from repro import experiments
from repro.alficore import CampaignResultWriter, GoldenCache, default_scenario
from repro.alficore.campaign import (
    CampaignCore,
    ClassificationTask,
    ShardedCampaignExecutor,
    normalize_campaign_scenario,
)
from repro.alficore.results import merge_csv_files, merge_json_array_files
from repro.alficore.wrapper import ptfiwrap
from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.detection import yolov3_tiny
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=12, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


@pytest.fixture(scope="module")
def detection_setup():
    dataset = CocoLikeDetectionDataset(num_samples=6, num_classes=5, seed=3)
    model = yolov3_tiny(num_classes=5, seed=0).eval()
    return model, dataset


def _file_bytes(path: str | Path) -> bytes:
    return Path(path).read_bytes()


class _CustomEventLog(ClassificationTask):
    """Keeps every step's custom monitor events (module level: worker shards
    pickle their task)."""

    def consume(self, ctx):
        super().consume(ctx)
        self.state.applied_log.append(ctx.monitor.custom_events)


class TestShardBounds:
    def test_bounds_are_contiguous_and_balanced(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=1, num_runs=2)
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        executor = ShardedCampaignExecutor(core, workers=1, num_shards=5)
        bounds = executor.shard_bounds()
        assert bounds[0][0] == 0
        assert bounds[-1][1] == core.total_steps
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_steps_is_clamped(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        core = CampaignCore(
            model, dataset, ClassificationTask(),
            scenario=default_scenario(injection_target="weights", random_seed=1),
        )
        executor = ShardedCampaignExecutor(core, workers=1, num_shards=1000)
        assert executor.num_shards == core.total_steps
        state, _ = executor.run()
        assert state.inferences == len(dataset)


class TestClassificationShardEquivalence:
    @pytest.mark.parametrize("workers,num_shards", [(1, 3), (3, 3)])
    def test_sharded_matches_serial_byte_identically(
        self, fitted_model_and_dataset, tmp_path, workers, num_shards
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=7, model_name="shard"
        )

        def run(sub: str, workers: int, num_shards: int):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="shard")
            return run_streaming(
                model, dataset, scenario, writer=writer, workers=workers, num_shards=num_shards
            )

        serial = run("serial", 1, 1)
        sharded = run(f"sharded_{workers}x{num_shards}", workers, num_shards)

        for tag in ("golden_csv", "corrupted_csv", "applied_faults", "faults", "meta"):
            assert _file_bytes(serial.output_files[tag]) == _file_bytes(sharded.output_files[tag])
        assert streaming_kpis(serial) == streaming_kpis(sharded)

    @pytest.mark.parametrize("workers,num_shards", [(1, 3), (2, 3)])
    def test_sharded_prefix_reuse_matches_serial_full_forward(
        self, fitted_model_and_dataset, tmp_path, workers, num_shards
    ):
        # Prefix reuse + golden cache in every shard (sharing one spillover
        # directory) must still merge byte-identically to a serial run with
        # both optimisations off.
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=20,
            num_runs=2, model_name="reuse_shard",
        )

        def run(sub: str, workers: int, num_shards: int, reuse: bool):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="reuse_shard")
            return run_streaming(
                model, dataset, scenario, writer=writer,
                workers=workers, num_shards=num_shards,
                prefix_reuse=reuse, golden_cache=GoldenCache() if reuse else None,
            )

        serial = run("serial_full", 1, 1, reuse=False)
        sharded = run(f"sharded_reuse_{workers}x{num_shards}", workers, num_shards, reuse=True)

        for tag in ("golden_csv", "corrupted_csv", "applied_faults", "faults"):
            assert _file_bytes(serial.output_files[tag]) == _file_bytes(sharded.output_files[tag])
        assert streaming_kpis(serial) == streaming_kpis(sharded)
        # The shards shared one golden-cache spillover directory.
        spill = tmp_path / f"sharded_reuse_{workers}x{num_shards}" / "golden_cache"
        assert spill.is_dir() and any(spill.iterdir())

    def test_sharded_neuron_prefix_reuse_matches_serial(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=21, num_runs=2)
        serial = run_streaming(model, dataset, scenario, prefix_reuse=False)
        sharded = run_streaming(
            model, dataset, scenario, workers=2, num_shards=4,
            prefix_reuse=True, golden_cache=GoldenCache(),
        )
        assert streaming_kpis(serial) == streaming_kpis(sharded)

    def test_sharded_neuron_campaign_matches_serial(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=8)
        serial = run_streaming(model, dataset, scenario)
        sharded = run_streaming(model, dataset, scenario, workers=2, num_shards=4)
        assert streaming_kpis(serial) == streaming_kpis(sharded)

    def test_sharded_per_epoch_campaign_matches_serial(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights",
            inj_policy="per_epoch",
            batch_size=4,
            num_runs=3,
            random_seed=9,
        )
        serial = run_streaming(model, dataset, scenario)
        # Shard boundaries intentionally cut through epochs (9 steps over 4 shards).
        sharded = run_streaming(model, dataset, scenario, workers=1, num_shards=4)
        assert serial.state.groups == sharded.state.groups == 3
        assert streaming_kpis(serial) == streaming_kpis(sharded)

    def test_sharded_shuffled_campaign_matches_serial(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", num_runs=2, random_seed=10)
        serial = run_streaming(model, dataset, scenario, dl_shuffle=True)
        sharded = run_streaming(
            model, dataset, scenario, dl_shuffle=True, workers=1, num_shards=3
        )
        assert streaming_kpis(serial) == streaming_kpis(sharded)

    def test_custom_monitors_reach_every_shard(self, fitted_model_and_dataset):
        # What StepContext.monitor holds must not depend on shard geometry.
        from repro.alficore.monitoring import RangeMonitor

        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=12)

        def events(workers, num_shards):
            core = CampaignCore(
                model, dataset, _CustomEventLog(), scenario=scenario,
                custom_monitors=[RangeMonitor(bound=0.5)],
            )
            state, _ = ShardedCampaignExecutor(core, workers=workers, num_shards=num_shards).run()
            return state.applied_log

        serial = events(1, 1)
        assert len(serial) == len(dataset) and sum(map(len, serial)) > len(dataset)
        assert events(1, 2) == serial
        assert events(2, 2) == serial

    def test_a_shard_is_a_copy_of_the_campaigns_core(self, fitted_model_and_dataset, tmp_path):
        # The next attribute CampaignCore grows reaches every shard as it is:
        # a shard is the campaign's core, with its own task, writer, cache
        # and counts, on lanes that have learned nothing yet.
        from repro.alficore.campaign.core import _Lane
        from repro.alficore.monitoring import RangeMonitor

        model, dataset = fitted_model_and_dataset
        core = CampaignCore(
            model, dataset, _CustomEventLog(), resil_model=model.clone(),
            custom_monitors=[RangeMonitor(bound=0.5)], dl_shuffle=True,
            golden_cache=GoldenCache(2**20),
        )
        core.run()
        assert all(lane.plan is not None and lane.fingerprint for lane in core.lanes)
        with pytest.raises(TypeError):
            # A learned plan holds its model by weak reference.
            pickle.dumps(core)

        task, writer, cache = _CustomEventLog(), CampaignResultWriter(tmp_path), GoldenCache(2**20)
        shard = core.for_shard(task, writer, cache)
        assert shard.task is task and shard.writer is writer and shard.golden_cache is cache
        counters = {"rejoins", "rows_skipped", "golden_seeded"}
        assert set(vars(shard)) == set(vars(core))
        for name, value in vars(core).items():
            if name in {"task", "writer", "golden_cache", "lanes"} | counters:
                continue
            assert getattr(shard, name) is value, name
        assert {name: getattr(shard, name) for name in counters} == dict.fromkeys(counters, 0)

        shared = {"name", "model", "wrapper", "monitor"}
        blank = _Lane("lane", model, core.wrapper, None)
        assert len(shard.lanes) == len(core.lanes) == 2
        for lane, copied in zip(core.lanes, shard.lanes):
            assert copied is not lane
            for item in dataclasses.fields(_Lane):
                if item.name in shared:
                    assert getattr(copied, item.name) is getattr(lane, item.name), item.name
                else:
                    assert getattr(copied, item.name) == getattr(blank, item.name), item.name
        pickle.loads(pickle.dumps(shard))

    def test_options_reach_every_shard(self, fitted_model_and_dataset, tmp_path):
        # prefix_reuse, dl_shuffle and a custom monitor travel with the core.
        from repro.alficore.monitoring import RangeMonitor

        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=14, num_runs=2,
            model_name="options",
        )

        def run(workers, num_shards):
            out = tmp_path / f"{workers}x{num_shards}"
            core = CampaignCore(
                model, dataset, _CustomEventLog(), scenario=scenario,
                writer=CampaignResultWriter(out, campaign_name="options"),
                custom_monitors=[RangeMonitor(bound=0.5)], dl_shuffle=True, prefix_reuse=False,
            )
            state, paths = ShardedCampaignExecutor(
                core, workers=workers, num_shards=num_shards
            ).run()
            return state.applied_log, {tag: _file_bytes(path) for tag, path in paths.items()}

        serial = run(1, 1)
        assert sum(map(len, serial[0])) > 0
        assert run(1, 3) == serial
        assert run(2, 2) == serial

    def test_weights_restored_bit_exactly_after_sharded_campaign(
        self, fitted_model_and_dataset
    ):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=11)
        # In-process shards patch the parent's model object; worker-pool shards
        # patch copies.  Both must leave the parent model bit-exact.
        for workers, num_shards in ((1, 3), (2, 2)):
            run_streaming(model, dataset, scenario, workers=workers, num_shards=num_shards)
            for name, param in model.named_parameters():
                np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))


class TestDetectionShardEquivalence:
    def test_three_shard_campaign_matches_single_process_byte_identically(
        self, detection_setup, tmp_path
    ):
        model, dataset = detection_setup
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=12
        )

        def run(sub: str, workers: int, num_shards: int | None):
            return run_campaign(
                "detection", model, dataset, scenario,
                model_name="det", output_dir=tmp_path / sub,
                workers=workers, num_shards=num_shards, num_faults=1,
            )

        serial = run("serial", 1, None)
        sharded = run("sharded", 3, 3)

        for tag in ("golden_json", "corrupted_json", "applied_faults", "ground_truth", "faults"):
            assert _file_bytes(serial.output_files[tag]) == _file_bytes(sharded.output_files[tag])
        assert serial.summary["corrupted"] == sharded.summary["corrupted"]
        assert serial.extras["due_flags"] == sharded.extras["due_flags"]
        # Per-shard record files are kept next to the merged output.
        shard_dirs = sorted((tmp_path / "sharded" / "shards").iterdir())
        assert len(shard_dirs) == 3
        merged = json.loads(_file_bytes(sharded.output_files["corrupted_json"]))
        per_shard = [
            json.loads((d / "det_corrupted_results.json").read_text()) for d in shard_dirs
        ]
        assert [len(records) for records in per_shard] == [2, 2, 2]
        assert [r for records in per_shard for r in records] == merged

    def test_sharded_weight_campaign_restores_detector_bit_exactly(self, detection_setup):
        model, dataset = detection_setup
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(injection_target="weights", random_seed=13)
        run_campaign(
            "detection", model, dataset, scenario,
            model_name="restore", workers=1, num_shards=3, num_faults=2,
        )
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_sharded_resil_campaign_matches_serial(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        hardened = model.clone()
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(30, 30), random_seed=17)

        def run(sub: str, workers: int, num_shards: int | None):
            return run_campaign(
                "classification", model, dataset, scenario,
                resil_model=hardened, model_name="resil", output_dir=tmp_path / sub,
                workers=workers, num_shards=num_shards, num_faults=1,
            )

        serial = run("serial", 1, None)
        sharded = run("sharded", 2, 3)
        assert "resil" in serial.results and "resil" in sharded.results
        np.testing.assert_array_equal(
            serial.extras["resil_logits"], sharded.extras["resil_logits"]
        )
        assert serial.summary["resil"] == sharded.summary["resil"]
        assert _file_bytes(serial.output_files["resil_csv"]) == _file_bytes(
            sharded.output_files["resil_csv"]
        )

    def test_per_epoch_resil_campaign_consumes_one_group_per_epoch(
        self, fitted_model_and_dataset
    ):
        # Regression: the resil lane must follow the injection policy — with
        # per_epoch and multiple batches per epoch it used to pull one fault
        # group per *step* and exhaust the matrix mid-campaign.
        model, dataset = fitted_model_and_dataset
        hardened = model.clone()
        scenario = default_scenario(
            injection_target="weights",
            inj_policy="per_epoch",
            batch_size=4,
            num_runs=2,
            rnd_bit_range=(23, 30),
            random_seed=18,
        )
        def run(**sharding):
            return run_campaign(
                "classification", model, dataset, scenario,
                resil_model=hardened, model_name="epochresil",
                num_faults=1, inj_policy="per_epoch", num_runs=2, **sharding,
            )

        serial = run()
        assert "resil" in serial.results
        assert len(serial.extras["resil_logits"]) == 2 * len(dataset)
        sharded = run(workers=1, num_shards=3)
        np.testing.assert_array_equal(
            serial.extras["resil_logits"], sharded.extras["resil_logits"]
        )

    def test_custom_stochastic_error_model_is_shard_deterministic(
        self, fitted_model_and_dataset, tmp_path
    ):
        # Regression: per-group rng derivation — an error model that draws
        # from the rng at apply time must corrupt identically whether groups
        # run serially or split across shards.
        from repro.pytorchfi.errormodels import RandomValueErrorModel

        model, dataset = fitted_model_and_dataset

        class DrawingErrorModel(RandomValueErrorModel):
            """Bypasses the fault matrix's pre-drawn value replay."""

            name = "custom_random"

        scenario = default_scenario(injection_target="weights", random_seed=19, model_name="rngdet")

        def run(sub: str, num_shards: int):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="rngdet")
            return run_streaming(
                model, dataset, scenario, writer=writer,
                error_model=DrawingErrorModel(-1, 1), workers=1, num_shards=num_shards,
            )

        serial = run("serial", 1)
        sharded = run("sharded", 3)
        assert _file_bytes(serial.output_files["applied_faults"]) == _file_bytes(
            sharded.output_files["applied_faults"]
        )
        assert _file_bytes(serial.output_files["corrupted_csv"]) == _file_bytes(
            sharded.output_files["corrupted_csv"]
        )

    def test_custom_stochastic_neuron_error_model_is_shard_deterministic(
        self, fitted_model_and_dataset, tmp_path
    ):
        # A custom error model draws from a real per-group Generator, in a
        # shard as in a serial run, at batch 4 with the rows check replaying
        # a pass.
        from repro.pytorchfi.errormodels import RandomValueErrorModel

        model, dataset = fitted_model_and_dataset

        class DrawingErrorModel(RandomValueErrorModel):
            name = "custom_random"

            def corrupt(self, value, rng):
                assert self.draws and isinstance(rng, np.random.Generator)
                return super().corrupt(value, rng)

        scenario = default_scenario(
            injection_target="neurons", inj_policy="per_batch", batch_size=4,
            random_seed=20, model_name="rngneurons",
        )
        files = []
        for sub, num_shards in (("serial", 1), ("sharded", 3)):
            writer = CampaignResultWriter(tmp_path / sub, campaign_name="rngneurons")
            result = run_streaming(
                model, dataset, scenario, writer=writer,
                error_model=DrawingErrorModel(-1, 1), workers=1, num_shards=num_shards,
            )
            files.append({
                tag: _file_bytes(path)
                for tag, path in result.output_files.items()
                if tag in ("applied_faults", "corrupted_csv")
            })
        assert files[0] == files[1] and len(files[0]) == 2

    @pytest.mark.parametrize("target, policy", [
        ("weights", "per_image"), ("neurons", "per_batch"), ("neurons", "per_epoch"),
    ])
    def test_builtin_error_models_build_no_group_generator(
        self, fitted_model_and_dataset, monkeypatch, target, policy
    ):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target=target, inj_policy=policy, batch_size=4, num_runs=2,
            rnd_bit_range=(23, 30), random_seed=21, model_name="lazy",
        )
        # Materialised first: the synthetic dataset builds a generator per image.
        images = [dataset[index] for index in range(len(dataset))]
        core = CampaignCore(model, images, ClassificationTask(), scenario=scenario)

        def refuse(*args, **kwargs):
            raise AssertionError("a campaign of built-in error models built a generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        core.run()
        assert core.task.state.inferences == 2 * len(dataset)

    def test_sharded_buffered_outputs_match_serial(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=14)
        serial = run_campaign(
            "classification", model, dataset, scenario, model_name="f", num_faults=1
        )
        sharded = run_campaign(
            "classification", model, dataset, scenario,
            model_name="f", workers=2, num_shards=3, num_faults=1,
        )
        for buffer in ("golden_logits", "corrupted_logits", "labels"):
            np.testing.assert_array_equal(serial.extras[buffer], sharded.extras[buffer])
        assert serial.summary["corrupted"] == sharded.summary["corrupted"]


class TestShardScopedIterators:
    def test_ranged_group_iter_leaves_shared_cursor_untouched(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            dataset_size=len(dataset), injection_target="weights", random_seed=15
        )
        wrapper = ptfiwrap(model, scenario=scenario)
        ranged = list(wrapper.get_fault_group_iter(start=3, stop=7))
        assert len(ranged) == 4
        assert wrapper._cursor == 0
        full = list(wrapper.get_fault_group_iter())
        assert len(full) == wrapper.num_fault_groups()

    def test_ranged_group_iter_matches_explicit_group_sessions(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            dataset_size=len(dataset), injection_target="weights", random_seed=16
        )
        wrapper = ptfiwrap(model, scenario=scenario)
        for offset, group in enumerate(wrapper.get_fault_group_iter(start=2, stop=5)):
            with group:
                ranged_applied = [f.as_dict() for f in group.applied_faults]
            with wrapper.fault_group_session(2 + offset) as explicit:
                pass
            assert ranged_applied == [f.as_dict() for f in explicit.applied_faults]

    def test_ranged_group_iter_rejects_bad_ranges(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        wrapper = ptfiwrap(
            model, scenario=default_scenario(dataset_size=len(dataset), injection_target="weights")
        )
        with pytest.raises(ValueError):
            wrapper.get_fault_group_iter(start=-1, stop=2)
        with pytest.raises(ValueError):
            wrapper.get_fault_group_iter(start=0, stop=2, cycle=True)
        with pytest.raises(ValueError):
            wrapper.get_fault_group_iter(stop=2)


class TestMergeHelpers:
    def test_csv_merge_skips_empty_shards_and_extra_headers(self, tmp_path):
        from repro.alficore.results import CsvRecordStream

        def header(num_cells):
            return ["a", "b"]

        rows = [[i, f"x{i}"] for i in range(5)]
        single = tmp_path / "single.csv"
        with CsvRecordStream(single, header) as stream:
            for row in rows:
                stream.write(row)
        shard_paths = []
        for index, chunk in enumerate(([rows[0], rows[1]], [], rows[2:])):
            path = tmp_path / f"shard_{index}.csv"
            with CsvRecordStream(path, header) as stream:
                for row in chunk:
                    stream.write(row)
            shard_paths.append(path)
        merged = merge_csv_files(shard_paths, tmp_path / "merged.csv")
        assert merged.read_bytes() == single.read_bytes()

    def test_json_merge_is_byte_identical_to_single_stream(self, tmp_path):
        from repro.alficore.results import JsonArrayStream

        records = [{"i": i, "v": [i, i + 0.5]} for i in range(4)]
        single = tmp_path / "single.json"
        with JsonArrayStream(single) as stream:
            for record in records:
                stream.write(record)
        shard_paths = []
        for index, chunk in enumerate((records[:1], [], records[1:])):
            path = tmp_path / f"shard_{index}.json"
            with JsonArrayStream(path) as stream:
                for record in chunk:
                    stream.write(record)
            shard_paths.append(path)
        merged = merge_json_array_files(shard_paths, tmp_path / "merged.json")
        assert merged.read_bytes() == single.read_bytes()

    def test_json_merge_of_all_empty_shards_is_empty_array(self, tmp_path):
        from repro.alficore.results import JsonArrayStream

        path = tmp_path / "empty.json"
        with JsonArrayStream(path):
            pass
        merged = merge_json_array_files([path], tmp_path / "merged.json")
        assert merged.read_text() == "[]"


def _wrapper_spec(out, layer_types=None, protection=None, workers=1, num_shards=None):
    scenario = {
        "injection_target": "weights", "rnd_bit_range": (23, 30), "random_seed": 21,
        "model_name": "handed",
    }
    if layer_types is not None:
        scenario["layer_types"] = layer_types
    builder = (
        experiments.Experiment.builder()
        .name("handed")
        .task("classification")
        .model("handed")
        .dataset("in-memory")
        .scenario(**scenario)
        .output_dir(out)
    )
    if num_shards is not None:
        builder.backend("sharded", workers, num_shards)
    if protection is not None:
        builder.protection(protection)
    return builder.build()


def _handed_in_wrapper(spec, model, dataset, layer_types):
    """A wrapper of the spec's own scenario with other ``layer_types``."""
    scenario = normalize_campaign_scenario(spec.scenario, dataset)
    scenario = scenario.copy(layer_types=layer_types)
    return ptfiwrap(model, scenario=scenario, input_shape=(3, 32, 32))


class TestHandedInWrapper:
    """``Artifacts.wrapper`` drew the fault matrix: it alone reads its layer indices."""

    FILES = ("golden_csv", "corrupted_csv", "applied_faults", "faults")

    def test_sharded_runs_read_the_faults_against_the_handed_in_wrapper(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset

        def run(sub, workers=1, num_shards=None):
            spec = _wrapper_spec(tmp_path / sub, workers=workers, num_shards=num_shards)
            wrapper = _handed_in_wrapper(spec, model, dataset, ("fcc",))
            artifacts = experiments.Artifacts(model=model, dataset=dataset, wrapper=wrapper)
            result = experiments.run(spec, artifacts)
            return {tag: _file_bytes(result.output_files[tag]) for tag in self.FILES}

        serial = run("serial")
        assert run("1x2", 1, 2) == serial
        assert run("2x2", 2, 2) == serial

    def test_the_resil_lane_uses_the_handed_in_wrappers_layers(
        self, fitted_model_and_dataset, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        handed_spec = _wrapper_spec(tmp_path / "handed", protection="ranger")
        wrapper = _handed_in_wrapper(handed_spec, model, dataset, ("fcc",))
        handed = experiments.run(
            handed_spec, experiments.Artifacts(model=model, dataset=dataset, wrapper=wrapper)
        )
        declared = experiments.run(
            _wrapper_spec(tmp_path / "declared", layer_types=["fcc"], protection="ranger"),
            experiments.Artifacts(model=model, dataset=dataset),
        )
        for tag in (*self.FILES, "resil_csv"):
            assert _file_bytes(handed.output_files[tag]) == _file_bytes(
                declared.output_files[tag]
            ), tag


class TestSpawnStartMethod:
    @pytest.mark.parametrize("ran_before", [False, True])
    def test_spawned_shards_write_the_serial_bytes(
        self, fitted_model_and_dataset, tmp_path, monkeypatch, ran_before
    ):
        # A shard ships the campaign's core to a spawned worker by pickle; a
        # core that already ran holds learned plans, which do not pickle.
        from repro.alficore import resilience
        from repro.alficore.monitoring import RangeMonitor

        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=15, model_name="spawn"
        )

        def core(out):
            return CampaignCore(
                model, dataset, ClassificationTask(), scenario=scenario,
                writer=CampaignResultWriter(tmp_path / out, campaign_name="spawn"),
                resil_model=model.clone(), custom_monitors=[RangeMonitor(bound=0.5)],
            )

        serial = {tag: _file_bytes(path) for tag, path in core("serial").run().items()}
        sharded = core("spawned")
        if ran_before:
            sharded.run()
            assert sharded.lanes[0].plan is not None

        multiprocessing = resilience.multiprocessing
        get_context, methods = multiprocessing.get_context, []
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(
            multiprocessing, "get_context",
            lambda method=None: methods.append(method) or get_context(method),
        )
        _, paths = ShardedCampaignExecutor(sharded, workers=2, num_shards=2).run()
        assert methods == ["spawn"]
        assert {tag: _file_bytes(path) for tag, path in paths.items()} == serial
