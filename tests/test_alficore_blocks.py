"""Blocks: consecutive steps of a lane share one golden pass and one faulty suffix.

Up to 16 rows of consecutive steps run their golden passes as one stacked
``run_recording`` and, behind each step's own faulted segments, their faulty
suffixes as one stack (:meth:`ForwardPlan.resume_stack`), from which every
row leaves at the first golden checkpoint it reproduces.  Row *i* of a
batched forward is the forward of row *i* alone, so the contract under test
is the naive path's bytes: every result file, the task state and every
step's monitor result equal those of ``prefix_reuse: false, golden_cache_mb:
0``, for every kind of row a block can hold.  A model
whose rows are not independent fails the lane's first-use check once and
runs one step per block from there on.
"""

from __future__ import annotations

import copy
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.alficore import CampaignCore, CampaignResultWriter, ClassificationTask, default_scenario
from repro.alficore.campaign import core as core_module
from repro.alficore.goldencache import GoldenCache
from repro.alficore.monitoring import RangeMonitor
from repro.data import SyntheticClassificationDataset
from repro.experiments import Experiment, run
from repro.experiments.runner import Artifacts
from repro.models.classification import lenet5
from repro.nn.forward_plan import ForwardPlan

IMAGES = 20


def _spec(model, target, out, scenario=None, naive=False, protection=None, backend=None, **caching):
    builder = (
        Experiment.builder()
        .name(model)
        .task("classification")
        .model(model, num_classes=10, seed=0)
        .dataset(
            "synthetic-classification", num_samples=IMAGES, num_classes=10, noise=0.25, seed=3
        )
        .scenario(
            **{
                "injection_target": target, "rnd_bit_range": (23, 30), "random_seed": 60,
                "model_name": model, "dataset_size": IMAGES, "num_runs": 1, **(scenario or {}),
            }
        )
        .output_dir(out)
    )
    if naive:
        builder.caching(prefix_reuse=False, golden_cache_mb=0)
    elif caching:
        builder.caching(**caching)
    if protection is not None:
        builder.protection(protection)
    if backend is not None:
        builder.backend(**backend)
    return builder.build()


def _canonical(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    return value


def _result_bytes(result):
    """Every result file but the meta file (it records the knobs), and the task state."""
    files = {
        tag: Path(path).read_bytes()
        for tag, path in result.output_files.items()
        if tag != "meta"
    }
    state = result.state
    files["state"] = repr(
        {field.name: _canonical(getattr(state, field.name)) for field in dataclasses.fields(state)}
    )
    return files


@pytest.fixture
def stacks(monkeypatch):
    """Per ``resume_stack`` call: ``[(join boundary, rejoined at)]`` of its passes."""
    log = []
    original = ForwardPlan.resume_stack

    def spy(self, passes, regroup=None):
        results = original(self, passes, regroup)
        log.append([(stacked.start, at) for stacked, (_, at) in zip(passes, results)])
        return results

    monkeypatch.setattr(ForwardPlan, "resume_stack", spy)
    return log


@pytest.fixture
def golden_rows(monkeypatch):
    """The batch rows of every golden pass (``run_recording``) a campaign runs."""
    log = []
    original = ForwardPlan.run_recording

    def spy(self, x, *args, **kwargs):
        log.append(len(x))
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(ForwardPlan, "run_recording", spy)
    return log


@pytest.fixture
def monitor_results(monkeypatch):
    """The monitor result every step hands to the task, in step order."""
    seen = []
    consume = ClassificationTask.consume

    def recording(self, ctx):
        seen.append(ctx.monitor.as_dict() if ctx.monitor is not None else None)
        return consume(self, ctx)

    monkeypatch.setattr(ClassificationTask, "consume", recording)
    return seen


def _both(tmp_path, monitor_results, model, target, scenario=None, artifacts=None, **options):
    """Run the naive and the default engine; assert equal bytes and monitor results."""
    naive_spec = _spec(model, target, tmp_path / "naive", scenario, naive=True, **options)
    naive = run(naive_spec, artifacts)
    expected, monitor_results[:] = list(monitor_results), []
    blocked = run(_spec(model, target, tmp_path / "blocked", scenario, **options), artifacts)
    assert _result_bytes(blocked) == _result_bytes(naive)
    assert monitor_results == expected
    return blocked


def _stacked(stacks) -> list[list]:
    return [call for call in stacks if len(call) > 1]


class TestBlocksKeepTheNaiveBytes:
    @pytest.mark.parametrize("model", ["lenet5", "alexnet"])
    def test_weight_groups_rejoining_at_different_boundaries(
        self, tmp_path, stacks, golden_rows, monitor_results, model
    ):
        blocked = _both(tmp_path, monitor_results, model, "weights")
        # The first step learns the lane's plan and checks its first seeded
        # golden pass against a full one; the next 16 steps ran as one.
        assert golden_rows[:3] == [1, 1, 16]
        stacked = _stacked(stacks)
        assert stacked
        rejoins = {at for call in stacked for _, at in call}
        # Rows left the stack at two boundaries or more, and others ran to the end.
        assert None in rejoins and len(rejoins - {None}) >= 2
        assert blocked.core.rejoins == sum(at is not None for call in stacks for _, at in call)
        assert blocked.core.lanes[0].verdicts["rows"] is True

    def test_neuron_groups_with_sparse_rows(self, tmp_path, stacks, monitor_results):
        scenario = {"inj_policy": "per_batch", "batch_size": 4}
        blocked = _both(tmp_path, monitor_results, "lenet5", "neurons", scenario)
        assert _stacked(stacks)
        assert blocked.core.rows_skipped > 0

    @pytest.mark.parametrize("protection", [None, "ranger"], ids=["one_lane", "resil_lane"])
    def test_one_check_covers_sparse_rows_and_the_stacks_behind_them(
        self, tmp_path, monkeypatch, monitor_results, protection
    ):
        # A cache-less, head-fitted neuron campaign at batch 4: the first
        # block, one step, runs sparse rows (and, on the fitted lane, a seeded
        # golden pass); the blocks behind it stack steps and their sparse
        # rows.  Both rest on row invariance, so one check per lane and run
        # settles them: one step run again alone.
        checks, sparse_stacks = [], []
        alone, resume_stack = CampaignCore._alone, ForwardPlan.resume_stack

        def checking(self, lane, item, kinds, golden):
            checks.append((lane.name, item.step.index, sorted(kinds)))
            return alone(self, lane, item, kinds, golden)

        def stacking(self, passes, regroup=None):
            if len(passes) > 1 and any(stacked.rows is not None for stacked in passes):
                sparse_stacks.append(len(passes))
            return resume_stack(self, passes, regroup)

        monkeypatch.setattr(CampaignCore, "_alone", checking)
        monkeypatch.setattr(ForwardPlan, "resume_stack", stacking)
        scenario = {"inj_policy": "per_batch", "batch_size": 4, "num_runs": 2}
        blocked = _both(
            tmp_path, monitor_results, "lenet5", "neurons", scenario, protection=protection,
            golden_cache_mb=0,
        )
        # The resil lane has no head fit to seed from.
        expected = [("golden", 0, ["rows", "seed"])]
        if protection is not None:
            expected.append(("resil", 0, ["rows"]))
        assert checks == expected
        assert sparse_stacks and blocked.core.rows_skipped > 0
        assert blocked.core.lanes[0].verdicts == {"rows": True, "seed": True}

    def test_nan_and_inf_rows_next_to_finite_ones(self, tmp_path, stacks, monitor_results):
        scenario = {"rnd_bit_range": (30, 30), "random_seed": 61}
        blocked = _both(tmp_path, monitor_results, "lenet5", "weights", scenario)
        assert _stacked(stacks)
        flagged = [result["nan_detected"] or result["inf_detected"] for result in monitor_results]
        assert True in flagged and False in flagged
        outcomes = blocked.state.outcomes
        assert 0 < sum(outcomes.values()) - outcomes.get("due", 0) < IMAGES

    def test_per_epoch_groups(self, tmp_path, stacks, monitor_results):
        scenario = {"inj_policy": "per_epoch", "batch_size": 2, "num_runs": 3}
        _both(tmp_path, monitor_results, "lenet5", "weights", scenario)
        assert _stacked(stacks)

    @pytest.mark.parametrize("target", ["weights", "neurons"])
    def test_a_resil_lane(self, tmp_path, stacks, monitor_results, target):
        blocked = _both(tmp_path, monitor_results, "lenet5", target, protection="ranger")
        assert "resil_csv" in blocked.output_files
        resil = blocked.core.lanes[1]
        assert resil.verdicts["rows"] is True

    def test_a_cached_three_epoch_campaign(self, tmp_path, stacks, golden_rows, monitor_results):
        blocked = _both(
            tmp_path, monitor_results, "alexnet", "weights", {"num_runs": 3}, golden_cache_mb=64
        )
        stats = blocked.core.golden_cache.stats()
        assert (stats["misses"], stats["hits"]) == (IMAGES, 2 * IMAGES)
        assert max(golden_rows) == 16 and _stacked(stacks)

    def test_a_shard_cut_inside_a_would_be_block(self, tmp_path, stacks, monitor_results):
        # One worker keeps the shards in this process; cuts at steps 7 and 14.
        sharded = {"name": "sharded", "workers": 1, "num_shards": 3}
        naive = run(_spec("lenet5", "weights", tmp_path / "naive", naive=True))
        blocked = run(_spec("lenet5", "weights", tmp_path / "blocked", backend=sharded))
        assert _result_bytes(blocked) == _result_bytes(naive)
        assert max(len(call) for call in stacks) <= 7 and _stacked(stacks)


def test_cache_counters_do_not_depend_on_blocks(monkeypatch):
    # An LRU budget of about 30 of the 40 entries (two lanes) and shuffled
    # epochs: some lookups hit, some entries are evicted, and which ones
    # depends on the order of the lookups and insertions.
    dataset = SyntheticClassificationDataset(num_samples=IMAGES, num_classes=10, noise=0.25, seed=3)
    scenario = default_scenario(
        injection_target="weights", rnd_bit_range=(23, 30), random_seed=64, num_runs=4,
        model_name="lru",
    )
    stats = {}
    for rows in (core_module._BLOCK_ROWS, 1):
        monkeypatch.setattr(core_module, "_BLOCK_ROWS", rows)
        model = lenet5(seed=0).eval()
        cache = GoldenCache(byte_budget=1 << 40)
        # One step's entry sizes the budget.
        CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario, golden_cache=cache
        ).run(0, 1)
        cache = GoldenCache(byte_budget=cache.nbytes * 30)
        core = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario, dl_shuffle=True,
            resil_model=copy.deepcopy(model), golden_cache=cache,
        )
        core.run()
        stats[rows] = cache.stats()
    assert stats[16] == stats[1]
    assert stats[16]["hits"] > 0 and stats[16]["evictions"] > 0


class TestLanesThatRunOneStepPerBlock:
    def test_a_custom_monitor(self, tmp_path, stacks, golden_rows, monitor_results):
        artifacts = Artifacts(custom_monitors=[RangeMonitor(bound=10.0)])
        _both(tmp_path, monitor_results, "lenet5", "weights", artifacts=artifacts)
        assert stacks and max(len(call) for call in stacks) == 1
        assert set(golden_rows) == {1}

    def test_a_batch_of_sixteen(self, tmp_path, stacks, golden_rows, monitor_results):
        scenario = {"inj_policy": "per_batch", "batch_size": 16}
        _both(tmp_path, monitor_results, "lenet5", "neurons", scenario)
        assert max(len(call) for call in stacks) == 1
        assert max(golden_rows) == 16


class _BatchCentered(nn.Module):
    """Subtracts the batch mean: row *i* depends on every other row."""

    def forward(self, x):
        return x - x.mean(axis=0, keepdims=True)


class _MixingNet(nn.Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv = nn.Conv2d(3, 4, 3, rng=rng)
        self.center = _BatchCentered()
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(4 * 30 * 30, 10, rng=rng)

    def forward(self, x):
        return self.fc(self.flatten(self.center(self.conv(x))))


def test_a_model_that_mixes_rows_fails_the_stack_check_once(tmp_path):
    dataset = SyntheticClassificationDataset(num_samples=IMAGES, num_classes=10, noise=0.25, seed=3)
    scenario = default_scenario(
        injection_target="weights", rnd_bit_range=(23, 30), random_seed=62, num_runs=2,
        model_name="mixing",
    )
    files, cores = {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for reuse in (True, False):
            model = _MixingNet().eval()
            writer = CampaignResultWriter(tmp_path / str(reuse), campaign_name="mixing")
            core = CampaignCore(
                model, dataset, ClassificationTask(), scenario=scenario, writer=writer,
                prefix_reuse=reuse,
            )
            paths = core.run()
            files[reuse] = {tag: Path(path).read_bytes() for tag, path in paths.items()}
            cores[reuse] = core
    assert files[True] == files[False]
    mixing = [w for w in caught if "mixes the samples" in str(w.message)]
    assert len(mixing) == 1 and mixing[0].category is RuntimeWarning
    assert "_MixingNet" in str(mixing[0].message)
    assert cores[True].lanes[0].verdicts == {"rows": False}


def test_a_stacked_suffix_that_differs_is_rerun_one_pass_at_a_time(
    tmp_path, monkeypatch, monitor_results
):
    # Stand-in for a suffix whose rows are not independent: a stack of
    # several passes hands back rows that differ from each pass run alone.
    original = ForwardPlan.resume_stack

    def mixing(self, passes, regroup=None):
        results = original(self, passes, regroup)
        if len(passes) < 2:
            return results
        return [(output if at is not None else output + 1, at) for output, at in results]

    monkeypatch.setattr(ForwardPlan, "resume_stack", mixing)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        blocked = _both(tmp_path, monitor_results, "lenet5", "weights")
    warned = [w for w in caught if "mixes the samples" in str(w.message)]
    assert len(warned) == 1
    assert blocked.core.lanes[0].verdicts["rows"] is False


class _TiedNet(nn.Module):
    """``decode`` holds ``encode``'s weight: a fault of either runs in both."""

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(1)
        self.flatten = nn.Flatten()
        self.embed = nn.Linear(3 * 32 * 32, 16, rng=rng)
        self.encode = nn.Linear(16, 16, rng=rng)
        self.relu1 = nn.ReLU()
        self.decode = nn.Linear(16, 16, rng=rng)
        self.decode.weight = self.encode.weight
        self.relu2 = nn.ReLU()
        self.head = nn.Linear(16, 10, rng=rng)

    def forward(self, x):
        hidden = self.relu1(self.encode(self.embed(self.flatten(x))))
        return self.head(self.relu2(self.decode(hidden)))


@pytest.mark.parametrize("tie_aware", [True, False])
def test_tied_weights_keep_the_naive_bytes(tmp_path, monkeypatch, tie_aware):
    dataset = SyntheticClassificationDataset(num_samples=IMAGES, num_classes=10, noise=0.25, seed=3)
    scenario = default_scenario(
        injection_target="weights", rnd_bit_range=(28, 30), random_seed=63, num_runs=2,
        model_name="tied",
    )
    if not tie_aware:
        # Teeth: a weight fault mapped to its own module's segments only.
        def untied(self, module_name):
            return self._executed_in.get(module_name)

        monkeypatch.setattr(ForwardPlan, "weight_span", untied)
    files = {}
    for reuse in (True, False):
        model = _TiedNet().eval()
        writer = CampaignResultWriter(tmp_path / f"{tie_aware}{reuse}", campaign_name="tied")
        core = CampaignCore(
            model, dataset, ClassificationTask(), scenario=scenario, writer=writer,
            prefix_reuse=reuse,
        )
        files[reuse] = {tag: Path(path).read_bytes() for tag, path in core.run().items()}
        if reuse:
            plan = core.lanes[0].plan
            assert plan.segment_for("encode") < plan.segment_for("decode")
            assert core.lanes[0].verdicts["rows"] is True
    assert (files[True] == files[False]) is tie_aware
