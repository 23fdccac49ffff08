"""Tests for the sweep grid manager (`repro.experiments.sweep`).

Covers the versioned ``sweep:`` spec section (round-trip, strict unknown-key
rejection, axis grammar with did-you-mean), deterministic grid expansion,
content-addressed skip, interrupted-sweep resume with byte-identical
aggregate tables, and KPI parity with the hand-written per-step loop the
sweep manager replaces.
"""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.experiments import (
    Artifacts,
    CampaignStore,
    DATASETS,
    Experiment,
    ExperimentSpec,
    MODELS,
    SpecError,
    SweepError,
    SweepSpec,
    expand,
    run,
    run_sweep,
)
from repro.experiments.spec import validate_sweep_axis
from repro.nn import functional as F
import repro.experiments.sweep as sweep_module

IMAGES = 6


def base_builder(images=IMAGES):
    return (
        Experiment.builder()
        .name("sweep-test")
        .model("lenet5", num_classes=10, seed=0)
        .dataset(
            "synthetic-classification",
            num_samples=images, num_classes=10, noise=0.25, seed=1,
        )
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30),
            random_seed=3, model_name="lenet5", dataset_size=images,
        )
    )


def layer_sweep_spec(layers=((0, 0), (1, 1)), **sweep_kwargs):
    return (
        base_builder()
        .sweep(axes={"scenario.layer_range": [list(pair) for pair in layers]}, **sweep_kwargs)
        .build()
    )


class TestSweepSpecSection:
    def test_yaml_round_trip(self, tmp_path):
        spec = layer_sweep_spec()
        path = spec.save(tmp_path / "spec.yml")
        loaded = ExperimentSpec.load(path)
        assert loaded.sweep is not None
        assert loaded.sweep.axes == spec.sweep.axes
        assert loaded.sweep.points == spec.sweep.points

    def test_json_round_trip(self, tmp_path):
        spec = layer_sweep_spec()
        spec.sweep.points = [{"scenario.rnd_bit_range": [30, 30]}]
        path = spec.save(tmp_path / "spec.json")
        loaded = ExperimentSpec.load(path)
        assert loaded.sweep.points == [{"scenario.rnd_bit_range": [30, 30]}]

    def test_schema_version_serialized_and_enforced(self):
        document = layer_sweep_spec().as_dict()
        assert document["sweep"]["schema_version"] == 1
        document["sweep"]["schema_version"] = 2
        with pytest.raises(SpecError, match="sweep schema version 2 is newer"):
            ExperimentSpec.from_dict(document)

    def test_unknown_sweep_keys_rejected(self):
        document = layer_sweep_spec().as_dict()
        document["sweep"]["grid"] = {}
        with pytest.raises(SpecError, match="^sweep.grid: unknown key"):
            ExperimentSpec.from_dict(document)

    def test_axis_typo_gets_did_you_mean(self):
        with pytest.raises(SpecError, match="scenario.layer_range"):
            validate_sweep_axis("scenario.layer_rnage")

    def test_unknown_axis_root_rejected(self):
        with pytest.raises(SpecError, match="unknown axis root"):
            validate_sweep_axis("optimizer.lr")

    def test_empty_axis_values_rejected(self):
        spec = layer_sweep_spec()
        spec.sweep.axes["scenario.layer_range"] = []
        with pytest.raises(SpecError, match="non-empty list"):
            spec.validate()

    def test_sweep_without_axes_or_points_rejected(self):
        spec = layer_sweep_spec()
        spec.sweep = SweepSpec()
        with pytest.raises(SpecError, match="neither axes nor points"):
            spec.validate()

    def test_copy_is_deep(self):
        spec = layer_sweep_spec()
        clone = spec.copy()
        clone.sweep.axes["scenario.layer_range"].append([9, 9])
        assert len(spec.sweep.axes["scenario.layer_range"]) == 2

    def test_run_refuses_sweep_specs(self):
        with pytest.raises(SpecError, match="run_sweep"):
            run(layer_sweep_spec())


class TestExpand:
    def test_cartesian_product_declaration_order(self):
        spec = (
            base_builder()
            .sweep(axes={
                "scenario.random_seed": [3, 4],
                "scenario.rnd_bit_range": [[23, 23], [30, 30]],
            })
            .build()
        )
        plan = expand(spec)
        assert [point.overrides for point in plan.points] == [
            {"scenario.random_seed": 3, "scenario.rnd_bit_range": [23, 23]},
            {"scenario.random_seed": 3, "scenario.rnd_bit_range": [30, 30]},
            {"scenario.random_seed": 4, "scenario.rnd_bit_range": [23, 23]},
            {"scenario.random_seed": 4, "scenario.rnd_bit_range": [30, 30]},
        ]
        assert plan.axis_order == ["scenario.random_seed", "scenario.rnd_bit_range"]

    def test_explicit_points_append_after_the_grid(self):
        spec = layer_sweep_spec()
        spec.sweep.points = [{"scenario.rnd_bit_range": [30, 30]}]
        plan = expand(spec)
        assert len(plan) == 3
        assert plan.points[2].overrides == {"scenario.rnd_bit_range": [30, 30]}
        assert plan.axis_order[-1] == "scenario.rnd_bit_range"

    def test_children_are_concrete_validated_specs(self):
        plan = expand(layer_sweep_spec())
        for index, point in enumerate(plan.points):
            assert point.spec.sweep is None
            assert point.spec.name == f"sweep-test-p{index:03d}"
        assert plan.points[1].spec.scenario.layer_range == (1, 1)
        # The base spec is untouched by expansion.
        assert plan.base.scenario.layer_range is None

    def test_invalid_grid_value_fails_at_expansion(self):
        spec = layer_sweep_spec()
        spec.sweep.axes["scenario.layer_range"] = [[0, 0], "not-a-range"]
        with pytest.raises(SweepError, match="point 1"):
            expand(spec)

    def test_model_axis_changes_the_child_component(self):
        spec = (
            base_builder()
            .sweep(axes={"model.params.seed": [0, 1]})
            .build()
        )
        plan = expand(spec)
        assert plan.points[0].spec.model.params["seed"] == 0
        assert plan.points[1].spec.model.params["seed"] == 1

    def test_protection_params_without_protection_is_an_error(self):
        spec = (
            base_builder()
            .sweep(axes={"protection.params.bound": [1.0, 2.0]})
            .build()
        )
        with pytest.raises(SweepError, match="protection"):
            expand(spec)

    def test_whole_protection_axis_accepts_none_and_components(self):
        spec = (
            base_builder()
            .sweep(axes={"protection": [None, "ranger", {"name": "clipper"}]})
            .build()
        )
        plan = expand(spec)
        assert plan.points[0].spec.protection is None
        assert plan.points[1].spec.protection.name == "ranger"
        assert plan.points[2].spec.protection.name == "clipper"

    def test_expand_without_sweep_section(self):
        with pytest.raises(SweepError, match="no sweep"):
            expand(base_builder().build())


class TestResolve:
    def test_run_ids_are_stable_and_distinct(self):
        spec = layer_sweep_spec()
        plan_a, plan_b = expand(spec), expand(spec)
        plan_a.resolve()
        plan_b.resolve()
        ids_a = [point.run_id for point in plan_a.points]
        assert ids_a == [point.run_id for point in plan_b.points]
        assert len(set(ids_a)) == len(ids_a)
        assert all(len(run_id) == 16 for run_id in ids_a)

    def test_scenario_only_grid_builds_the_model_once(self, monkeypatch):
        from repro.experiments.registry import TASKS

        plugin = TASKS.get("classification")
        builds = []
        original = type(plugin).build_model

        def counting(self, spec, dataset):
            builds.append(spec.name)
            return original(self, spec, dataset)

        monkeypatch.setattr(type(plugin), "build_model", counting)
        plan = expand(layer_sweep_spec())
        plan.resolve()
        assert len(builds) == 1

    def test_supplied_artifacts_forbid_component_axes(self):
        spec = (
            base_builder()
            .sweep(axes={"model.params.seed": [0, 1]})
            .build()
        )
        plan = expand(spec)
        model = MODELS.get("lenet5")(num_classes=10, seed=0)
        with pytest.raises(SweepError, match="pre-built"):
            plan.resolve(Artifacts(model=model))

    def test_artifacts_a_point_would_drop_are_refused(self, monkeypatch):
        from repro.alficore.monitoring import RangeMonitor

        executed = []
        monkeypatch.setattr(sweep_module, "_execute_group", lambda *a, **k: executed.append(a))
        artifacts = Artifacts(custom_monitors=[RangeMonitor(10.0)], num_classes=10)
        with pytest.raises(SweepError, match="model and dataset only; got custom_monitors, num_classes"):
            run_sweep(layer_sweep_spec(), artifacts)
        assert executed == []


class TestRunSweep:
    def test_without_store_every_point_executes_in_memory(self):
        result = run_sweep(layer_sweep_spec())
        assert (result.executed, result.cached) == (2, 0)
        for outcome in result.outcomes:
            assert outcome.load_result().summary["corrupted"]["num_inferences"] == IMAGES

    def test_without_store_outcomes_keep_the_result_but_not_the_engine(self):
        for outcome in run_sweep(layer_sweep_spec()).outcomes:
            result = outcome.load_result()
            assert result.core is None
            assert result.state.inferences == IMAGES

    def test_executed_point_reads_its_records_from_the_committed_directory(self, tmp_path):
        # A point runs in <store>/<run_id>.wip/, which the commit renames
        # away: a freshly executed outcome must hand out the same result a
        # cached one does, not the run's stale .wip paths.
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        first = run_sweep(spec, store=store)
        assert (first.executed, first.cached) == (2, 0)
        second = run_sweep(spec, store=store)
        for executed, cached in zip(first.outcomes, second.outcomes):
            result = executed.load_result()
            point_dir = store.point_dir(executed.run_id)
            for path in result.output_files.values():
                assert Path(path).is_file() and Path(path).parent == point_dir
            assert len(list(result.iter_records("corrupted_csv"))) == IMAGES
            assert result.output_files == cached.load_result().output_files
            assert result.core is None

    def test_store_skip_and_lazy_results(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        first = run_sweep(spec, store=store)
        assert first.executed == 2
        second = run_sweep(spec, store=store)
        assert (second.executed, second.cached) == (0, 2)
        reloaded = second.outcomes[0].load_result()
        assert reloaded.summary == second.outcomes[0].summary
        assert reloaded.task == "classification"

    def test_rerun_invokes_zero_point_executions(self, tmp_path, monkeypatch):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        run_sweep(spec, store=store)

        def forbidden(*args, **kwargs):
            raise AssertionError("a cached sweep must not execute any point")

        monkeypatch.setattr(sweep_module, "_execute_group", forbidden)
        result = run_sweep(spec, store=store)
        assert (result.executed, result.cached) == (0, 2)

    def test_workers_override_reuses_serial_points(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = layer_sweep_spec()
        run_sweep(spec, store=store)
        again = run_sweep(spec, store=store, workers=2)
        assert again.executed == 0

    def test_store_from_sweep_section(self, tmp_path):
        spec = layer_sweep_spec(store=tmp_path / "declared-store")
        result = run_sweep(spec)
        assert result.executed == 2
        assert (tmp_path / "declared-store" / "sweep-test_sweep_table.csv").exists()
        assert run_sweep(spec).executed == 0

    def test_interrupted_sweep_resumes_byte_identical(self, tmp_path, monkeypatch):
        # Epochs are no fault field: the grid runs as two groups, num_runs 1
        # (points 0, 2, 4) then num_runs 2 (points 1, 3, 5).
        spec = (
            base_builder()
            .sweep(
                axes={
                    "scenario.layer_range": [[0, 0], [1, 1], [2, 2]],
                    "scenario.num_runs": [1, 2],
                }
            )
            .build()
        )
        baseline_store = CampaignStore(tmp_path / "baseline")
        run_sweep(spec, store=baseline_store)
        baseline_csv = (baseline_store.root / "sweep-test_sweep_table.csv").read_bytes()
        baseline_json = (baseline_store.root / "sweep-test_sweep_table.json").read_bytes()

        store = CampaignStore(tmp_path / "interrupted")
        original = sweep_module._execute_group
        calls = []

        def crash_on_second_group(specs, *args, **kwargs):
            calls.append([child.name for child in specs])
            if len(calls) == 2:
                raise RuntimeError("simulated crash mid-sweep")
            return original(specs, *args, **kwargs)

        monkeypatch.setattr(sweep_module, "_execute_group", crash_on_second_group)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(spec, store=store)
        monkeypatch.setattr(sweep_module, "_execute_group", original)
        assert calls == [
            ["sweep-test-p000", "sweep-test-p002", "sweep-test-p004"],
            ["sweep-test-p001", "sweep-test-p003", "sweep-test-p005"],
        ]
        assert len(store.completed_run_ids()) == 3

        resumed = run_sweep(spec, store=store, resume=True)
        assert (resumed.executed, resumed.cached) == (3, 3)
        assert (store.root / "sweep-test_sweep_table.csv").read_bytes() == baseline_csv
        assert (store.root / "sweep-test_sweep_table.json").read_bytes() == baseline_json

    def test_resume_on_a_store_of_another_sweep_reuses_its_points(self, tmp_path):
        superset = layer_sweep_spec(layers=((0, 0), (1, 1), (2, 2)))
        fresh = CampaignStore(tmp_path / "fresh")
        run_sweep(superset, store=fresh)

        # The run ID is the guard: a point another sweep committed is the
        # same campaign, so resume reuses it instead of refusing the store.
        store = CampaignStore(tmp_path / "store")
        run_sweep(layer_sweep_spec(), store=store)
        resumed = run_sweep(superset, store=store, resume=True)
        assert (resumed.executed, resumed.cached) == (1, 2)
        for name in ("sweep-test_sweep_table.csv", "sweep-test_sweep_table.json"):
            assert (store.root / name).read_bytes() == (fresh.root / name).read_bytes()


class TestAggregation:
    def test_table_rows_carry_axes_and_kpis(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        result = run_sweep(layer_sweep_spec(), store=store)
        rows = result.table_rows()
        assert [row["point"] for row in rows] == [0, 1]
        assert rows[0]["scenario.layer_range"] == [0, 0]
        assert rows[1]["scenario.layer_range"] == [1, 1]
        for row in rows:
            assert 0.0 <= row["corrupted.sde_rate"] <= 1.0
            assert row["corrupted.num_inferences"] == IMAGES
            # file locations are bookkeeping, not KPIs
            assert not any(column.startswith("output_files") for column in row)

    def test_format_table_renders_every_point(self):
        result = run_sweep(layer_sweep_spec())
        rendered = result.format_table()
        assert "run_id" in rendered.splitlines()[0]
        assert len(rendered.splitlines()) == 3

    def test_kpi_rows_match_the_hand_written_loop(self, tmp_path):
        """The sweep manager reproduces the manual spec-copy loop bit for bit.

        This is the migration guarantee for ``examples/layer_sweep.py``: the
        per-step KPI rows of the replaced hand-written loop and the sweep
        grid's aggregated rows serialize byte-identically.
        """
        base = base_builder().build()
        dataset = DATASETS.get(base.dataset.name)(**base.dataset.params)
        from repro.models.pretrained import fit_classifier_head

        model = fit_classifier_head(
            MODELS.get(base.model.name)(**base.model.params), dataset, 10
        )
        artifacts = Artifacts(model=model, dataset=dataset)
        layers = [(0, 0), (1, 1)]

        manual_rows = []
        for pair in layers:
            spec = base.copy(scenario=base.scenario.copy(layer_range=pair))
            kpis = run(spec, artifacts=artifacts).summary["corrupted"]
            manual_rows.append(json.loads(json.dumps(kpis, default=str)))

        sweep_spec = base.copy()
        sweep_spec.sweep = SweepSpec(
            axes={"scenario.layer_range": [list(pair) for pair in layers]}
        )
        result = run_sweep(sweep_spec, artifacts, store=tmp_path / "store")
        sweep_rows = [outcome.summary["corrupted"] for outcome in result.outcomes]

        assert json.dumps(sweep_rows, sort_keys=True) == json.dumps(
            manual_rows, sort_keys=True
        )


# --------------------------------------------------------------------------- #
# sweep-wide golden sharing
# --------------------------------------------------------------------------- #
BITS = ((23, 26), (27, 30))
WIDE_BITS = BITS + ((30, 30),)
TARGETS = ("weights", "neurons")


def grid_spec(bits=BITS, **caching):
    """A ``rnd_bit_range`` x ``injection_target`` grid over one model and dataset."""
    builder = base_builder().sweep(
        axes={
            "scenario.rnd_bit_range": [list(pair) for pair in bits],
            "scenario.injection_target": list(TARGETS),
        }
    )
    if caching:
        builder.caching(**caching)
    return builder.build()


def sweep_bytes(result):
    """Every file the sweep wrote, by ``<run_id>/<tag>`` (tables by tag)."""
    files = {tag: open(path, "rb").read() for tag, path in result.table_files.items()}
    for outcome in result.outcomes:
        for tag, path in outcome.stored.output_files.items():
            files[f"{outcome.run_id}/{tag}"] = open(path, "rb").read()
    return files


def golden_files(store):
    """Identity of every spill file: a rewritten entry gets a new inode."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in store.golden_dir().iterdir()
    }


@pytest.fixture(scope="module")
def naive(tmp_path_factory):
    """Reference bytes from the ``prefix_reuse: false`` path (no shared cache)."""
    store = CampaignStore(tmp_path_factory.mktemp("naive") / "store")
    wide = run_sweep(grid_spec(WIDE_BITS, prefix_reuse=False), store=store)
    wide_bytes = sweep_bytes(wide)
    base = run_sweep(grid_spec(prefix_reuse=False), store=store)
    assert wide.golden_cache_stats is None and base.golden_cache_stats is None
    assert not store.golden_dir().exists()
    return {"base": sweep_bytes(base), "wide": wide_bytes}


class TestGoldenSharing:
    POINTS = len(BITS) * len(TARGETS)

    def test_one_golden_pass_per_image_and_naive_bytes(self, tmp_path, naive):
        store = CampaignStore(tmp_path / "store")
        result = run_sweep(grid_spec(), store=store)
        assert sweep_bytes(result) == naive["base"]
        stats = result.golden_cache_stats
        # The grid is one group: each step's golden pass is looked up once.
        assert stats["misses"] == IMAGES
        assert stats["hits"] == 0
        # Masked faults ended at a cached boundary.
        assert 0 < stats["rejoins"] <= IMAGES * self.POINTS
        assert stats["spill_writes"] == IMAGES == len(golden_files(store))
        # The spill directory is no grid point.
        assert store.lookup("golden") is None
        assert len(store.completed_run_ids()) == self.POINTS

    def test_without_a_store_points_share_in_memory(self, naive):
        result = run_sweep(grid_spec())
        stats = result.golden_cache_stats
        assert stats["spill_dir"] is None
        assert (stats["misses"], stats["hits"]) == (IMAGES, 0)
        reference = json.loads(naive["base"]["table_json"])["rows"]
        assert result.table_rows() == reference

    def test_over_budget_cache_evicts_and_stays_identical(self, monkeypatch, naive):
        monkeypatch.setattr(sweep_module, "DEFAULT_BYTE_BUDGET", 1)
        result = run_sweep(grid_spec())
        stats = result.golden_cache_stats
        # Only the newest entry survives, so later points recompute.
        assert stats["entries"] == 1 and stats["evictions"] > 0 and stats["hits"] == 0
        assert result.table_rows() == json.loads(naive["base"]["table_json"])["rows"]

    def test_shard_processes_share_through_the_spill_dir(self, tmp_path, naive):
        store = CampaignStore(tmp_path / "store")
        after_each_point = []
        result = run_sweep(
            grid_spec(), store=store, workers=2,
            progress=lambda line: after_each_point.append(golden_files(store)),
        )
        assert sweep_bytes(result) == naive["base"]
        # The shards looked entries up through their own handles on the
        # spill directory, so the invoking process reports no counts.
        assert result.golden_cache_stats is None
        # Point 0's shards wrote one entry per image; no later shard, in any
        # process, computed (and hence re-spilled) a golden pass again.
        assert len(after_each_point[0]) == IMAGES
        assert all(snapshot == after_each_point[0] for snapshot in after_each_point)

    def test_resumed_sweep_reuses_the_interrupted_runs_entries(
        self, tmp_path, monkeypatch, naive
    ):
        store = CampaignStore(tmp_path / "store")
        original = sweep_module._execute_group

        def crash_after_the_group(*args, **kwargs):
            # The group ran, and spilled its golden passes, but commits nothing.
            original(*args, **kwargs)
            raise RuntimeError("simulated crash mid-sweep")

        monkeypatch.setattr(sweep_module, "_execute_group", crash_after_the_group)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(grid_spec(), store=store)
        monkeypatch.setattr(sweep_module, "_execute_group", original)
        assert store.completed_run_ids() == []
        before = golden_files(store)
        assert len(before) == IMAGES

        resumed = run_sweep(grid_spec(), store=store, resume=True)
        assert (resumed.executed, resumed.cached) == (self.POINTS, 0)
        assert sweep_bytes(resumed) == naive["base"]
        assert golden_files(store) == before

    def test_extending_a_finished_grid_recomputes_no_golden_pass(self, tmp_path, naive):
        store = CampaignStore(tmp_path / "store")
        run_sweep(grid_spec(), store=store)
        extended = run_sweep(grid_spec(WIDE_BITS), store=store)
        assert (extended.executed, extended.cached) == (len(TARGETS), self.POINTS)
        assert sweep_bytes(extended) == naive["wide"]
        stats = extended.golden_cache_stats
        assert stats["misses"] == 0 and stats["spill_writes"] == 0
        assert stats["spill_loads"] == IMAGES
        # The two new points are one group: one lookup per image.
        assert stats["hits"] == IMAGES

    def test_corrupt_spill_file_is_a_miss_not_a_crash(self, tmp_path, naive):
        store = CampaignStore(tmp_path / "store")
        run_sweep(grid_spec(), store=store)
        victim = sorted(store.golden_dir().iterdir())[0]
        victim.write_bytes(victim.read_bytes()[:40])
        (store.golden_dir() / "golden_stray.pkl").write_bytes(b"not a pickle")
        extended = run_sweep(grid_spec(WIDE_BITS), store=store)
        assert sweep_bytes(extended) == naive["wide"]
        stats = extended.golden_cache_stats
        # The truncated entry was dropped, recomputed once and spilled again;
        # the stray file matches no key and is never opened.
        assert (stats["corrupt_dropped"], stats["misses"], stats["spill_writes"]) == (1, 1, 1)
        assert len(victim.read_bytes()) > 40

    def test_deleting_the_golden_dir_only_costs_recomputation(self, tmp_path, naive):
        store = CampaignStore(tmp_path / "store")
        run_sweep(grid_spec(), store=store)
        shutil.rmtree(store.golden_dir())
        extended = run_sweep(grid_spec(WIDE_BITS), store=store)
        assert extended.cached == self.POINTS
        assert sweep_bytes(extended) == naive["wide"]
        assert extended.golden_cache_stats["misses"] == IMAGES

    def test_points_and_entries_of_other_kernels_are_misses(self, tmp_path, monkeypatch, naive):
        # The model identity covers the model, not the arithmetic:
        # what another generation of ``repro.nn.functional`` wrote into a store
        # or a spill directory must never be served.
        store = CampaignStore(tmp_path / "store")
        first = run_sweep(grid_spec(), store=store)
        committed, spilled = set(store.completed_run_ids()), golden_files(store)
        assert (first.executed, len(committed)) == (self.POINTS, self.POINTS)
        rerun = run_sweep(grid_spec(), store=store)
        assert (rerun.executed, rerun.cached) == (0, self.POINTS)

        monkeypatch.setattr(F, "KERNEL_GENERATION", F.KERNEL_GENERATION + 1)
        assert store.completed_run_ids() == []
        bumped = run_sweep(grid_spec(), store=store)
        assert (bumped.executed, bumped.cached) == (self.POINTS, 0)
        assert not committed & {outcome.run_id for outcome in bumped.outcomes}
        stats = bumped.golden_cache_stats
        assert (stats["misses"], stats["spill_loads"], stats["spill_writes"]) == (IMAGES, 0, IMAGES)
        # The old entries are still there, untouched, under their own keys.
        assert spilled.items() <= golden_files(store).items()
        assert len(golden_files(store)) == 2 * IMAGES
        meta = Path(bumped.outcomes[0].stored.output_files["meta"]).read_text()
        assert f"kernel_generation: {F.KERNEL_GENERATION}" in meta


def test_a_sweep_learns_its_model_once(tmp_path, monkeypatch):
    """Every point runs on the sweep's one model object: one trace, one probe.

    The points' files are those of ``run()`` calls that build a fresh model
    each, which trace and probe for themselves.
    """
    from repro.nn.forward_plan import ForwardPlan
    from repro.pytorchfi.core import FaultInjection

    calls = {"trace": 0, "probe": 0}
    trace, probe = ForwardPlan.trace.__func__, FaultInjection._probe

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ForwardPlan, "trace", classmethod(counted("trace", trace)))
    monkeypatch.setattr(FaultInjection, "_probe", counted("probe", probe))
    result = run_sweep(grid_spec(), store=CampaignStore(tmp_path / "store"))
    assert result.executed == 4
    assert calls == {"trace": 1, "probe": 1}
    for outcome in result.outcomes:
        spec = outcome.point.spec.copy()
        spec.output_dir = tmp_path / outcome.run_id
        fresh = run(spec)
        assert fresh.core.model is not result.plan.artifacts[outcome.point.index][0]
        stored = outcome.stored.output_files
        assert sorted(fresh.output_files) == sorted(stored)
        for tag, path in fresh.output_files.items():
            assert open(path, "rb").read() == open(stored[tag], "rb").read(), tag
    assert calls["trace"] == 1 + len(result.outcomes)


# --------------------------------------------------------------------------- #
# groups: points that differ only in their faults run as one campaign
# --------------------------------------------------------------------------- #
def _recording_groups(monkeypatch):
    """Record the point names of every group the sweep runs."""
    groups = []
    original = sweep_module._execute_group

    def recording(specs, *args, **kwargs):
        groups.append([child.name for child in specs])
        return original(specs, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "_execute_group", recording)
    return groups


def _assert_points_equal_lone_runs(result, tmp_path):
    """Every file of every point, the meta included, is that of a lone ``run()`` of it."""
    for outcome in result.outcomes:
        spec = outcome.point.spec.copy()
        spec.output_dir = tmp_path / "alone" / outcome.run_id
        alone = run(spec)
        stored = outcome.stored.output_files
        assert sorted(alone.output_files) == sorted(stored)
        assert "meta" in stored
        for tag, path in alone.output_files.items():
            assert Path(path).read_bytes() == Path(stored[tag]).read_bytes(), (outcome.run_id, tag)


GROUPED_GRIDS = {
    "weights-x-neurons": dict(),
    "per-batch-4": dict(scenario={"inj_policy": "per_batch", "batch_size": 4}),
    "per-epoch-shuffled": dict(
        scenario={"inj_policy": "per_epoch", "batch_size": 2, "num_runs": 2}, shuffle=True
    ),
    "protected": dict(protection="ranger"),
    "cached-epochs": dict(scenario={"num_runs": 2}, caching={"golden_cache_mb": 8}),
}


@pytest.mark.parametrize("case", sorted(GROUPED_GRIDS))
def test_every_point_of_a_grouped_sweep_is_a_lone_run(tmp_path, monkeypatch, case):
    grid = GROUPED_GRIDS[case]
    builder = base_builder().sweep(
        axes={
            "scenario.rnd_bit_range": [list(pair) for pair in BITS],
            "scenario.injection_target": list(TARGETS),
        }
    )
    if "scenario" in grid:
        builder.scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=3,
            model_name="lenet5", dataset_size=IMAGES, **grid["scenario"],
        )
    if "protection" in grid:
        builder.protection(grid["protection"])
    if "caching" in grid:
        builder.caching(**grid["caching"])
    if grid.get("shuffle"):
        builder.shuffle()
    groups = _recording_groups(monkeypatch)
    result = run_sweep(builder.build(), store=CampaignStore(tmp_path / "store"))
    assert groups == [[f"sweep-test-p{index:03d}" for index in range(4)]]
    assert result.executed == 4
    _assert_points_equal_lone_runs(result, tmp_path)


def test_a_grouped_detection_sweep_is_lone_runs(tmp_path, monkeypatch):
    # A detector's plan does not stack: its group runs one pass at a time.
    spec = (
        Experiment.builder()
        .name("det")
        .task("detection")
        .model("yolov3", num_classes=5, seed=1)
        .dataset("synthetic-coco", num_samples=4, num_classes=5, seed=3)
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=5,
            model_name="yolov3", dataset_size=4,
        )
        .sweep(axes={"scenario.injection_target": list(TARGETS)})
        .build()
    )
    groups = _recording_groups(monkeypatch)
    result = run_sweep(spec, store=CampaignStore(tmp_path / "store"))
    assert groups == [["det-p000", "det-p001"]]
    assert (result.golden_cache_stats["hits"], result.golden_cache_stats["misses"]) == (0, 4)
    _assert_points_equal_lone_runs(result, tmp_path)


def test_a_grouped_sweep_without_a_store_keeps_each_points_result(monkeypatch):
    groups = _recording_groups(monkeypatch)
    result = run_sweep(grid_spec())
    assert len(groups) == 1 and len(groups[0]) == 4
    for outcome in result.outcomes:
        alone = run(outcome.point.spec.copy())
        kept = outcome.load_result()
        assert kept.summary == alone.summary
        assert pickle.dumps(kept.state) == pickle.dumps(alone.state)
        assert kept.core is None


def test_the_naive_path_and_shards_run_points_alone(tmp_path, monkeypatch):
    groups = _recording_groups(monkeypatch)
    run_sweep(grid_spec(prefix_reuse=False))
    assert [len(group) for group in groups] == [1, 1, 1, 1]
    groups.clear()
    run_sweep(grid_spec(), store=CampaignStore(tmp_path / "store"), workers=2)
    assert [len(group) for group in groups] == [1, 1, 1, 1]


def test_a_group_holds_at_most_max_points(monkeypatch):
    monkeypatch.setattr(sweep_module, "MAX_POINTS", 3)
    groups = _recording_groups(monkeypatch)
    run_sweep(grid_spec())
    assert [len(group) for group in groups] == [3, 1]


class TestGroupKey:
    def key(self, **scenario):
        fields = dict(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=3,
            model_name="lenet5", dataset_size=IMAGES,
        )
        fields.update(scenario)
        return base_builder().scenario(**fields)

    def test_fault_fields_share_a_key(self):
        base = sweep_module.group_key(self.key().build())
        for fields in (
            {"injection_target": "neurons"},
            {"rnd_bit_range": (0, 7)},
            {"rnd_value_type": "stuck_at", "stuck_at_value": 0},
            {"max_faults_per_image": 3},
            {"layer_range": (1, 2)},
            {"layer_types": ("conv2d",)},
            {"weighted_layer_selection": False},
            {"fault_persistence": "permanent"},
            {"random_seed": 99},
        ):
            assert sweep_module.group_key(self.key(**fields).build()) == base, fields
        named = self.key().name("other").output_dir("/elsewhere").build()
        assert sweep_module.group_key(named) == base

    def test_everything_else_splits_the_group(self):
        base = sweep_module.group_key(self.key().build())
        others = [
            self.key(batch_size=4, inj_policy="per_batch").build(),
            self.key(inj_policy="per_epoch").build(),
            self.key(num_runs=2).build(),
            self.key(model_name="renamed").build(),
            self.key().model("lenet5", num_classes=10, seed=1).build(),
            self.key().protection("ranger").build(),
            self.key().caching(golden_cache_mb=8).build(),
            self.key().options(collect_outputs=True).build(),
        ]
        keys = [sweep_module.group_key(spec) for spec in others]
        assert base not in keys and len(set(keys)) == len(keys)

    def test_the_seed_of_a_shuffled_loader_splits_the_group(self):
        shuffled = self.key().shuffle()
        reseeded = self.key(random_seed=99).shuffle()
        assert sweep_module.group_key(shuffled.build()) != sweep_module.group_key(reseeded.build())

    def test_a_batch_size_axis_runs_one_group_per_size(self, tmp_path, monkeypatch):
        spec = (
            self.key(inj_policy="per_batch")
            .sweep(axes={"scenario.batch_size": [2, 3], "scenario.injection_target": list(TARGETS)})
            .build()
        )
        groups = _recording_groups(monkeypatch)
        result = run_sweep(spec, store=CampaignStore(tmp_path / "store"))
        assert groups == [
            ["sweep-test-p000", "sweep-test-p001"],
            ["sweep-test-p002", "sweep-test-p003"],
        ]
        _assert_points_equal_lone_runs(result, tmp_path)


def test_a_failure_inside_a_group_commits_none_of_its_points(tmp_path, monkeypatch, naive):
    from repro.alficore.campaign import ClassificationTask

    store = CampaignStore(tmp_path / "store")
    consume = ClassificationTask.consume
    calls = []

    def failing(self, ctx):
        calls.append(ctx.step)
        if len(calls) == 10:
            raise RuntimeError("simulated failure inside the group")
        consume(self, ctx)

    monkeypatch.setattr(ClassificationTask, "consume", failing)
    with pytest.raises(RuntimeError, match="inside the group"):
        run_sweep(grid_spec(), store=store)
    monkeypatch.setattr(ClassificationTask, "consume", consume)
    assert store.completed_run_ids() == []
    rerun = run_sweep(grid_spec(), store=store)
    assert (rerun.executed, rerun.cached) == (4, 0)
    assert sweep_bytes(rerun) == naive["base"]
