"""Integration tests for the clone-free streaming campaign engine."""

import json
import pickle
from collections import Counter

import numpy as np
import pytest

import repro.alficore.campaign as campaign_package
from benchmarks.conftest import run_campaign, run_streaming
from repro.alficore import CampaignCore, CampaignResultWriter, ClassificationTask, default_scenario
from repro.alficore.campaign import ClassificationState, DetectionState, core, sharded, tasks
from repro.alficore.monitoring import InferenceMonitor, RangeMonitor
from repro.alficore.wrapper import ptfiwrap
from repro.data import SyntheticClassificationDataset
from repro.eval.sdc import FaultOutcome
from repro.experiments import CampaignResult
from repro.models import build_model, lenet5
from repro.models.pretrained import fit_classifier_head
from repro.tensor.bitops import float_to_bits


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=10, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


class TestStreamingCampaign:
    def test_weight_campaign_restores_model_bit_exactly(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        bits_before = {n: float_to_bits(p.data).copy() for n, p in model.named_parameters()}
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=3)
        result = run_streaming(model, dataset, scenario)
        assert result.state.inferences == len(dataset)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(bits_before[name], float_to_bits(param.data))

    def test_rates_sum_to_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", random_seed=4)
        result = run_streaming(model, dataset, scenario)
        kpis = result.results["corrupted"]
        assert kpis.masked_rate + kpis.sde_rate + kpis.due_rate == pytest.approx(1.0)
        assert kpis.golden_top1_accuracy >= 0.9
        assert sum(result.state.outcomes.values()) == kpis.num_inferences

    def test_neuron_campaign_applies_one_fault_per_inference(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=6)
        result = run_streaming(model, dataset, scenario)
        assert result.state.groups == len(dataset)
        assert result.state.applied_faults == len(dataset)
        # Shared injector log stays empty: records are collected per group.
        assert result.wrapper.fault_injection.applied_faults == []

    def test_streams_written_and_readable(self, fitted_model_and_dataset, tmp_path):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights", max_faults_per_image=2, random_seed=7, model_name="stream"
        )
        writer = CampaignResultWriter(tmp_path, campaign_name="stream")
        result = run_streaming(model, dataset, scenario, writer=writer)
        for key in ("meta", "faults", "applied_faults", "golden_csv", "corrupted_csv", "kpis"):
            assert key in result.output_files

        corrupted_rows = list(result.iter_records("corrupted_csv"))
        golden_rows = list(result.iter_records("golden_csv"))
        assert len(corrupted_rows) == len(golden_rows) == len(dataset)
        positions = json.loads(corrupted_rows[0]["fault_positions"])
        assert len(positions) == 2
        assert {"layer", "bit_position", "original_value", "corrupted_value"} <= set(positions[0])

        applied = json.loads((tmp_path / "stream_applied_faults.json").read_text())
        assert len(applied) == 2 * len(dataset)
        kpis = json.loads((tmp_path / "stream_summary_kpis.json").read_text())
        assert kpis["corrupted"]["num_inferences"] == len(dataset)

    def test_streaming_kpis_match_buffered_campaign(self, fitted_model_and_dataset):
        """Counters alone must reproduce the KPIs evaluated from the logits."""
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", rnd_bit_range=(23, 30), random_seed=8)
        buffered = run_campaign(
            "classification", model, dataset, scenario, model_name="buffered", num_faults=1
        ).results["corrupted"]
        streamed = run_streaming(model, dataset, scenario).results["corrupted"]
        assert streamed.num_inferences == buffered.num_inferences
        assert streamed.masked_rate == pytest.approx(buffered.masked_rate)
        assert streamed.sde_rate == pytest.approx(buffered.sde_rate)
        assert streamed.due_rate == pytest.approx(buffered.due_rate)
        assert streamed.corrupted_top1_accuracy == pytest.approx(buffered.corrupted_top1_accuracy)

    @pytest.mark.parametrize("policy,expected_groups", [("per_batch", 6), ("per_epoch", 2)])
    def test_batch_and_epoch_policies(self, fitted_model_and_dataset, policy, expected_groups):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(
            injection_target="weights",
            inj_policy=policy,
            batch_size=4,
            num_runs=2,
            random_seed=9,
        )
        result = run_streaming(model, dataset, scenario)
        assert result.state.inferences == 2 * len(dataset)
        assert result.state.groups == expected_groups

    def test_per_image_forces_batch_size_one(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="weights", batch_size=4, random_seed=10)
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        assert core.scenario.batch_size == 1
        assert core.scenario.dataset_size == len(dataset)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            CampaignCore(lenet5(seed=0), [], ClassificationTask())

    def test_result_as_dict_round_trips_json(self, fitted_model_and_dataset):
        model, dataset = fitted_model_and_dataset
        result = run_streaming(
            model, dataset, default_scenario(injection_target="weights", random_seed=11)
        )
        blob = json.dumps(result.as_dict())
        assert isinstance(json.loads(blob), dict)
        assert isinstance(result, CampaignResult)


class TestPackageSplit:
    """``repro.alficore.campaign`` became a package of three modules: bytes
    and import paths from before the split must not notice."""

    @pytest.mark.parametrize("state", [
        ClassificationState(
            inferences=3, groups=3, applied_faults=3, golden_top1_hits=2,
            outcomes=Counter({FaultOutcome.MASKED: 2, FaultOutcome.SDE: 1}),
            labels=[4, 0, 7], due_flags=[False, False, True], applied_log=[{"layer": 1}],
        ),
        DetectionState(
            inferences=2, groups=2, applied_faults=4, due_flags=[True, False],
            golden_predictions=[{"labels": [1]}, {"labels": []}], applied_log=[{"layer": 0}],
        ),
    ], ids=["classification", "detection"])
    def test_state_pickled_before_the_split_loads_to_an_equal_state(self, state):
        # What --resume of a run interrupted before the upgrade and
        # StoredPoint.load_result() on an older store unpickle.  Protocol 2
        # names a class as plain "module\nname\n", so the path can be rewritten.
        blob = pickle.dumps(state, protocol=2)
        defined_in = type(state).__module__.encode()
        assert defined_in == b"repro.alficore.campaign.tasks" and defined_in in blob
        legacy = blob.replace(defined_in, b"repro.alficore.campaign")
        loaded = pickle.loads(legacy)
        assert type(loaded) is type(state) and loaded == state

    def test_every_exported_name_is_its_submodules_object(self):
        for name in campaign_package.__all__:
            exported = getattr(campaign_package, name)
            owners = [m for m in (tasks, core, sharded) if m.__name__ == exported.__module__]
            assert len(owners) == 1, name
            assert getattr(owners[0], name) is exported


def _hooks(*models):
    """Every forward hook and pre-hook registered anywhere on the models."""
    return [
        hook
        for model in models
        for module in model.modules()
        for hook in (*module._forward_hooks.values(), *module._forward_pre_hooks.values())
    ]


class TestCampaignEqualsListingOne:
    """The engine against the paper's Listing 1: a fresh corrupted *copy* of
    the model per fault group (``get_fimodel_iter``), each run under a monitor
    of its own — a path that shares no session, lane, plan or tail reuse with
    the campaign engine."""

    @pytest.mark.parametrize(
        "name, images, target, batch_size",
        [
            ("lenet5", 24, "weights", 1),
            ("lenet5", 24, "neurons", 1),
            ("resnet18", 8, "weights", 1),
            ("resnet18", 8, "neurons", 1),
            # One fault group per batch: the campaign runs the faulted row
            # alone, each corrupted copy the whole batch.
            ("lenet5", 24, "neurons", 4),
        ],
    )
    def test_logits_and_due_flags_equal_a_loop_over_corrupted_copies(
        self, name, images, target, batch_size
    ):
        epochs = 2
        dataset = SyntheticClassificationDataset(
            num_samples=images, num_classes=10, noise=0.2, seed=5
        )
        model = build_model(name, num_classes=10, seed=1).eval()
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(30, 30), random_seed=63,
            num_runs=epochs, model_name=name, batch_size=batch_size,
            inj_policy="per_image" if batch_size == 1 else "per_batch",
        )
        result = run_campaign("classification", model, dataset, scenario)
        assert result.core.rejoins > 0  # tail reuse took part in the left-hand side
        assert (result.core.rows_skipped > 0) == (batch_size > 1)

        logits, due = [], []
        corrupted_copies = result.wrapper.get_fimodel_iter()
        for _ in range(epochs):
            for first in range(0, images, batch_size):
                corrupted = next(corrupted_copies)
                assert corrupted is not model
                batch = np.stack([dataset[index][0] for index in range(first, first + batch_size)])
                with InferenceMonitor(corrupted) as monitor:
                    output = corrupted(batch)
                batch_due = monitor.collect().due_detected
                logits.extend(output)
                due.extend(batch_due or not np.isfinite(row).all() for row in output)
        assert next(corrupted_copies, None) is None
        assert result.extras["corrupted_logits"].tobytes() == np.stack(logits).tobytes()
        assert result.extras["due_flags"].tolist() == due
        # NaN/Inf producers on both sides, except that no bit-30 flip of one
        # of lenet5's weights overflows anything.
        assert not all(due) and any(due) == ((name, target) != ("lenet5", "weights"))

    @pytest.mark.parametrize("prefix_reuse", [True, False])
    def test_the_nan_layer_of_a_neuron_campaign_is_the_faulted_layer(
        self, fitted_model_and_dataset, prefix_reuse
    ):
        # Hooks fire in registration order: the lane's monitor must sit behind
        # the injection hooks, or it would scan the faulted layer's activation
        # before the fault is in it and blame the next layer.
        class ToNaN:
            name = "to_nan"

            def corrupt(self, original, rng):
                return float("nan"), {"bit_position": None, "flip_direction": None}

        class Recording(ClassificationTask):
            def consume(self, ctx):
                steps.append((ctx.monitor.nan_layers, [fault["layer_name"] for fault in ctx.applied]))
                super().consume(ctx)

        steps = []
        model, dataset = fitted_model_and_dataset
        scenario = default_scenario(injection_target="neurons", random_seed=61, num_runs=2)
        CampaignCore(
            model, dataset, Recording(), scenario=scenario, error_model=ToNaN(),
            prefix_reuse=prefix_reuse,
        ).run()
        assert len(steps) == 2 * len(dataset)
        for nan_layers, (faulted,) in steps:
            assert nan_layers[0] == faulted
        assert len({faulted for _, (faulted,) in steps}) > 1

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_a_users_hook_sees_the_faulty_passes_and_survives_the_campaign(
        self, fitted_model_and_dataset, target
    ):
        model, dataset = fitted_model_and_dataset
        seen = set()

        def users_hook(module, inputs, output):
            seen.update(row.tobytes() for row in np.asarray(output))

        head = model.get_submodule(ptfiwrap(model).fault_injection.layers[-1].name)
        handle = head.register_forward_hook(users_hook)
        try:
            scenario = default_scenario(
                injection_target=target, rnd_bit_range=(23, 30), random_seed=62, num_runs=2
            )
            result = run_campaign("classification", model, dataset, scenario)
            golden, corrupted = result.extras["golden_logits"], result.extras["corrupted_logits"]
            assert golden.tobytes() != corrupted.tobytes()
            # The head's output is the model's: every faulty pass that did not
            # rejoin its golden pass went through the user's hook.
            assert {row.tobytes() for row in corrupted} <= seen
            assert _hooks(model) == [users_hook]
        finally:
            handle.remove()


def _serial(core):
    core.run()


def _two_shards_in_process(core):
    sharded.ShardedCampaignExecutor(core, workers=1, num_shards=2).run()


def _slice(core):
    core.run(start=3, stop=7)


def _task_raises_mid_run(core):
    consume = core.task.consume

    def failing(ctx):
        if ctx.step == 4:
            raise KeyError("the task gave up")
        consume(ctx)

    core.task.consume = failing
    with pytest.raises(KeyError, match="the task gave up"):
        core.run()


class TestHookHygiene:
    """A campaign patches and hooks the caller's own model object(s); however
    it ends, they are handed back without a hook and computing the same bytes."""

    @pytest.mark.parametrize("resil", [False, True], ids=["one-lane", "resil-lane"])
    @pytest.mark.parametrize("target", ["weights", "neurons"])
    @pytest.mark.parametrize(
        "drive", [_serial, _two_shards_in_process, _slice, _task_raises_mid_run]
    )
    def test_models_come_back_unhooked_and_byte_equal(
        self, fitted_model_and_dataset, drive, target, resil
    ):
        model, dataset = fitted_model_and_dataset
        models = [model, model.clone()] if resil else [model]
        images = np.stack([dataset[index][0] for index in range(4)])
        before = [net(images).tobytes() for net in models]
        assert _hooks(*models) == []
        scenario = default_scenario(
            injection_target=target, rnd_bit_range=(23, 30), random_seed=63, num_runs=2
        )
        core = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario,
            resil_model=models[1] if resil else None,
            custom_monitors=[RangeMonitor(bound=0.5)],
        )
        drive(core)
        assert _hooks(*models) == []
        assert [net(images).tobytes() for net in models] == before
