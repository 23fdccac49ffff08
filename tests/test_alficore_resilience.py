"""Chaos tests of the fault-tolerant campaign executor.

The contract under test: a shard worker that raises, hangs or is SIGKILL'd on
its first attempt is retried by its deterministic ``(start, stop)`` step range
and the finished campaign is *byte-identical* to an undisturbed serial run;
a campaign interrupted mid-run resumes from its committed shard directories,
re-runs only the pending shards and again merges byte-identically.

Worker chaos is marker-armed: the worker drops a marker file *before*
failing, so only the first attempt fails and every retry succeeds — exactly
the transient-fault scenario the supervisor exists for.
"""

import json
import os
import pickle
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import multiprocessing

import numpy as np
import pytest

from repro.alficore import CampaignResultWriter, GoldenCache, default_scenario
from repro.alficore.campaign import (
    CampaignCore,
    ClassificationTask,
    ShardedCampaignExecutor,
    sharded,
)
from repro.alficore.resilience import (
    KIND_DIED,
    KIND_RAISED,
    KIND_TIMEOUT,
    ExecutionPolicy,
    ShardError,
    ShardSupervisor,
    atomic_replace_json,
    atomic_write_pickle,
    commit_directory,
)
from repro.data import SyntheticClassificationDataset
from repro.models import lenet5
from repro.models.pretrained import fit_classifier_head


@pytest.fixture(scope="module")
def fitted_model_and_dataset():
    dataset = SyntheticClassificationDataset(num_samples=12, num_classes=10, noise=0.2, seed=5)
    model = fit_classifier_head(lenet5(seed=1), dataset, 10)
    return model, dataset


def _file_bytes(path: str | Path) -> bytes:
    return Path(path).read_bytes()


# --------------------------------------------------------------------------- #
# toy worker: marker-armed chaos
# --------------------------------------------------------------------------- #
@dataclass
class ToyJob:
    """Minimal picklable shard job for supervisor unit tests."""

    index: int
    start: int
    stop: int
    chaos_dir: str
    mode: str = "ok"


def _marker(job: ToyJob) -> Path:
    return Path(job.chaos_dir) / f"shard_{job.index}_tripped"


def _toy_execute(job: ToyJob):
    """Square the step range — unless the job's chaos mode says to fail.

    The ``*-once`` modes drop a marker file before failing, so exactly the
    first attempt fails and every retry succeeds.
    """
    marker = _marker(job)
    first_time = not marker.exists()
    if job.mode.endswith("-once") and first_time:
        marker.write_text(job.mode)
        if job.mode == "raise-once":
            raise RuntimeError(f"chaos: shard {job.index} raised")
        if job.mode == "exit-once":
            os._exit(17)
        if job.mode == "hang-once":
            time.sleep(60.0)
    if job.mode == "raise-always":
        raise RuntimeError(f"chaos: shard {job.index} always fails")
    if job.mode == "hang-always":
        time.sleep(60.0)
    if job.mode == "subprocess-raise" and multiprocessing.parent_process() is not None:
        raise RuntimeError(f"chaos: shard {job.index} fails in every subprocess")
    return [i * i for i in range(job.start, job.stop)]


def _toy_jobs(chaos_dir: Path, modes: list[str]) -> list[ToyJob]:
    return [
        ToyJob(index=i, start=4 * i, stop=4 * (i + 1), chaos_dir=str(chaos_dir), mode=mode)
        for i, mode in enumerate(modes)
    ]


_EXPECTED = lambda jobs: [[i * i for i in range(j.start, j.stop)] for j in jobs]  # noqa: E731


class TestShardSupervisor:
    def test_clean_run_returns_results_sorted_by_index(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["ok", "ok", "ok"])
        supervisor = ShardSupervisor(list(reversed(jobs)), _toy_execute, workers=2)
        assert supervisor.run() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {}

    def test_raised_worker_is_retried(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["ok", "raise-once", "ok"])
        supervisor = ShardSupervisor(
            jobs, _toy_execute, workers=2, policy=ExecutionPolicy(retries=2, backoff=0.0)
        )
        assert supervisor.run() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {1: [{"attempt": 1, "kind": KIND_RAISED}]}

    def test_sigkilled_worker_is_classified_died_and_retried(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["exit-once", "ok"])
        supervisor = ShardSupervisor(
            jobs, _toy_execute, workers=2, policy=ExecutionPolicy(retries=2, backoff=0.0)
        )
        assert supervisor.run() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {0: [{"attempt": 1, "kind": KIND_DIED}]}

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["ok", "hang-once"])
        supervisor = ShardSupervisor(
            jobs,
            _toy_execute,
            workers=2,
            policy=ExecutionPolicy(retries=2, backoff=0.0, shard_timeout=1.0),
        )
        assert supervisor.run() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {1: [{"attempt": 1, "kind": KIND_TIMEOUT}]}

    def test_exhausted_budget_raises_structured_shard_error(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["ok", "raise-always"])
        supervisor = ShardSupervisor(
            jobs,
            _toy_execute,
            workers=2,
            policy=ExecutionPolicy(retries=1, backoff=0.0, in_process_fallback=False),
        )
        with pytest.raises(ShardError) as err:
            supervisor.run()
        assert err.value.index == 1
        assert (err.value.start, err.value.stop) == (4, 8)
        assert err.value.attempts == 2
        assert err.value.kind == KIND_RAISED
        assert "chaos: shard 1 always fails" in err.value.cause
        assert "shard 1 (steps [4, 8))" in str(err.value)

    def test_repeatedly_raising_shard_degrades_to_in_process(self, tmp_path):
        # Fails in every subprocess but succeeds in-process: the graceful
        # degradation path of a pathological multiprocessing environment.
        jobs = _toy_jobs(tmp_path, ["subprocess-raise", "ok"])
        supervisor = ShardSupervisor(
            jobs, _toy_execute, workers=2, policy=ExecutionPolicy(retries=0, backoff=0.0)
        )
        assert supervisor.run() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {0: [{"attempt": 1, "kind": KIND_RAISED}]}

    def test_timed_out_shard_is_never_pulled_in_process(self, tmp_path):
        # In-process fallback would block the supervisor on the 60s sleep;
        # timeouts must fail hard instead.
        jobs = _toy_jobs(tmp_path, ["hang-always"])
        supervisor = ShardSupervisor(
            jobs,
            _toy_execute,
            workers=1,
            policy=ExecutionPolicy(
                retries=0, backoff=0.0, shard_timeout=1.0, in_process_fallback=True
            ),
        )
        with pytest.raises(ShardError) as err:
            supervisor.run()
        assert err.value.kind == KIND_TIMEOUT
        assert err.value.attempts == 1

    def test_serial_execution_retries_and_wraps_in_shard_error(self, tmp_path):
        jobs = _toy_jobs(tmp_path, ["raise-once", "ok"])
        supervisor = ShardSupervisor(
            jobs, _toy_execute, policy=ExecutionPolicy(retries=1, backoff=0.0)
        )
        assert supervisor.run_serial() == _EXPECTED(jobs)
        assert supervisor.attempt_log == {0: [{"attempt": 1, "kind": KIND_RAISED}]}

        always = _toy_jobs(tmp_path / "always", ["raise-always"])
        supervisor = ShardSupervisor(
            always, _toy_execute, policy=ExecutionPolicy(retries=1, backoff=0.0)
        )
        with pytest.raises(ShardError) as err:
            supervisor.run_serial()
        assert (err.value.index, err.value.start, err.value.stop) == (0, 0, 4)
        assert err.value.attempts == 2
        assert err.value.kind == KIND_RAISED

    def test_empty_job_list_is_a_no_op(self, tmp_path):
        assert ShardSupervisor([], _toy_execute, workers=2).run() == []


class TestExecutionPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = ExecutionPolicy(backoff=0.5, backoff_cap=3.0)
        assert [policy.backoff_delay(k) for k in range(1, 6)] == [0.5, 1.0, 2.0, 3.0, 3.0]
        assert ExecutionPolicy(backoff=0.0).backoff_delay(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"shard_timeout": 0.0},
            {"shard_timeout": -2.5},
            {"backoff": -0.1},
            {"backoff_cap": -1.0},
        ],
    )
    def test_validate_rejects_out_of_range_settings(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs).validate()


# --------------------------------------------------------------------------- #
# atomic writes and directory commits
# --------------------------------------------------------------------------- #
class TestAtomicWriters:
    def test_atomic_writers_leave_no_temp_files(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_replace_json(target, {"a": 1})
        atomic_replace_json(target, {"a": 2})
        assert json.loads(target.read_text()) == {"a": 2}

        pickled = tmp_path / "payload.pkl"
        atomic_write_pickle(pickled, {"state": [1, 2, 3]})
        with open(pickled, "rb") as handle:
            assert pickle.load(handle) == {"state": [1, 2, 3]}
        assert [p.name for p in tmp_path.glob("*.tmp")] == []

    def test_commit_directory_replaces_the_target(self, tmp_path):
        final = tmp_path / "shard_00"
        final.mkdir()
        (final / "stale.csv").write_text("old")
        wip = tmp_path / "shard_00.wip"
        wip.mkdir()
        (wip / "records.csv").write_text("new")
        assert commit_directory(wip, final) == final
        assert not wip.exists()
        assert sorted(p.name for p in final.iterdir()) == ["records.csv"]


# --------------------------------------------------------------------------- #
# golden-cache spillover corruption (worker killed mid-write, disk full, ...)
# --------------------------------------------------------------------------- #
class TestGoldenCacheCorruptSpill:
    def test_corrupt_spill_file_is_a_miss_and_is_unlinked(self, tmp_path):
        key = ("golden", (0, 1, 2))
        writer_cache = GoldenCache(spill_dir=tmp_path)
        writer_cache.put(key, np.arange(4.0))
        spill_files = list(tmp_path.glob("golden_*.pkl"))
        assert len(spill_files) == 1
        spill_files[0].write_bytes(b"\x80\x04 truncated garbage")

        reader_cache = GoldenCache(spill_dir=tmp_path)
        assert reader_cache.get(key) is None
        assert not spill_files[0].exists()  # never trips a later lookup
        # A second lookup is a plain miss, not an error.
        assert reader_cache.get(key) is None

    def test_intact_spill_round_trips_and_no_temp_files_remain(self, tmp_path):
        key = ("golden", (3, 4))
        GoldenCache(spill_dir=tmp_path).put(key, np.arange(2.0))
        entry = GoldenCache(spill_dir=tmp_path).get(key)
        assert entry is not None
        np.testing.assert_array_equal(entry.output, np.arange(2.0))
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


# --------------------------------------------------------------------------- #
# campaign-level chaos: retry is byte-identical to an undisturbed run
# --------------------------------------------------------------------------- #
class ChaosClassificationTask(ClassificationTask):
    """A classification task that fails once, at a chosen campaign step.

    A marker file is dropped *before* failing, so the shard's retry (and any
    other attempt after the first) runs clean — the transient-fault scenario
    the supervisor exists for.  Must stay picklable: workers receive it by
    value.
    """

    def __init__(self, chaos_dir: str | Path, fail_step: int, mode: str = "raise"):
        super().__init__()
        self.chaos_dir = str(chaos_dir)
        self.fail_step = int(fail_step)
        self.mode = mode

    def consume(self, ctx) -> None:
        marker = Path(self.chaos_dir) / f"step_{self.fail_step}_tripped"
        if ctx.step == self.fail_step and not marker.exists():
            marker.write_text(self.mode)
            if self.mode == "raise":
                raise RuntimeError(f"chaos: step {ctx.step} failed")
            if self.mode == "exit":
                os._exit(23)
            if self.mode == "hang":
                time.sleep(60.0)
        super().consume(ctx)


STREAM_TAGS = ("golden_csv", "corrupted_csv", "applied_faults")


def _run_campaign(out_dir, model, dataset, scenario, task, workers, num_shards, policy=None):
    writer = CampaignResultWriter(out_dir, campaign_name="chaos")
    core = CampaignCore(model, dataset, task, scenario=scenario, writer=writer)
    executor = ShardedCampaignExecutor(
        core, workers=workers, num_shards=num_shards, policy=policy
    )
    state, paths = executor.run()
    return state, paths, executor


class TestCampaignChaos:
    """Worker chaos mid-campaign: merged outputs stay byte-identical."""

    @pytest.fixture()
    def scenario(self):
        return default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=7, model_name="chaos"
        )

    @pytest.fixture()
    def reference(self, fitted_model_and_dataset, scenario, tmp_path):
        model, dataset = fitted_model_and_dataset
        return _run_campaign(
            tmp_path / "reference", model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=1,
        )

    def _assert_matches_reference(self, reference, state, paths):
        ref_state, ref_paths, _ = reference
        for tag in STREAM_TAGS:
            assert _file_bytes(ref_paths[tag]) == _file_bytes(paths[tag]), tag
        assert state == ref_state

    @pytest.mark.parametrize(
        "workers,mode,expected_kind",
        [(3, "raise", KIND_RAISED), (2, "exit", KIND_DIED)],
    )
    def test_failing_worker_is_retried_byte_identically(
        self, fitted_model_and_dataset, scenario, tmp_path, reference, workers, mode, expected_kind
    ):
        model, dataset = fitted_model_and_dataset
        chaos_dir = tmp_path / f"chaos_{mode}"
        chaos_dir.mkdir()
        # 12 steps over 3 shards: step 5 lands in shard 1 (steps [4, 8)).
        task = ChaosClassificationTask(chaos_dir, fail_step=5, mode=mode)
        state, paths, executor = _run_campaign(
            tmp_path / mode, model, dataset, scenario, task,
            workers=workers, num_shards=3, policy=ExecutionPolicy(retries=2, backoff=0.0),
        )
        self._assert_matches_reference(reference, state, paths)
        assert executor.attempt_log == {1: [{"attempt": 1, "kind": expected_kind}]}
        # Only the committed shard directories remain, no .wip leftovers.
        shard_dirs = sorted(p.name for p in (tmp_path / mode / "shards").iterdir())
        assert shard_dirs == ["shard_00", "shard_01", "shard_02"]

    def test_hung_worker_is_killed_and_retried_byte_identically(
        self, fitted_model_and_dataset, scenario, tmp_path, reference
    ):
        model, dataset = fitted_model_and_dataset
        chaos_dir = tmp_path / "chaos_hang"
        chaos_dir.mkdir()
        task = ChaosClassificationTask(chaos_dir, fail_step=5, mode="hang")
        state, paths, executor = _run_campaign(
            tmp_path / "hang", model, dataset, scenario, task,
            workers=2, num_shards=3,
            policy=ExecutionPolicy(retries=2, backoff=0.0, shard_timeout=5.0),
        )
        self._assert_matches_reference(reference, state, paths)
        assert executor.attempt_log == {1: [{"attempt": 1, "kind": KIND_TIMEOUT}]}

    def test_serial_sharded_run_retries_raising_shard(
        self, fitted_model_and_dataset, scenario, tmp_path, reference
    ):
        # workers=1: the in-process execution path shares retry semantics.
        model, dataset = fitted_model_and_dataset
        chaos_dir = tmp_path / "chaos_serial"
        chaos_dir.mkdir()
        task = ChaosClassificationTask(chaos_dir, fail_step=5, mode="raise")
        state, paths, executor = _run_campaign(
            tmp_path / "serial_retry", model, dataset, scenario, task,
            workers=1, num_shards=3, policy=ExecutionPolicy(retries=1, backoff=0.0),
        )
        self._assert_matches_reference(reference, state, paths)
        assert executor.attempt_log == {1: [{"attempt": 1, "kind": KIND_RAISED}]}


# --------------------------------------------------------------------------- #
# crash + resume: only pending shards run, merge is byte-identical
# --------------------------------------------------------------------------- #
def _shard_entries(out: Path) -> list[str]:
    """Names under ``<out>/shards``: committed shards and .wip leftovers."""
    return sorted(p.name for p in (out / "shards").iterdir())


class TestCrashResume:
    @pytest.fixture()
    def executed_shards(self, monkeypatch):
        """Indices of the shards executed (not merged from disk), in order."""
        executed = []

        def recording(job):
            executed.append(job.index)
            return original(job)

        original = sharded._execute_shard
        monkeypatch.setattr(sharded, "_execute_shard", recording)
        return executed

    @pytest.fixture()
    def scenario(self):
        return default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=7, model_name="chaos"
        )

    def _shard_snapshot(self, shard_dir: Path) -> dict[str, tuple[int, bytes]]:
        return {
            p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in sorted(shard_dir.iterdir())
        }

    def test_interrupted_campaign_resumes_byte_identically(
        self, fitted_model_and_dataset, scenario, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        ref_state, ref_paths, _ = _run_campaign(
            tmp_path / "reference", model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=1,
        )

        # Interrupt: shard 1 (steps [4, 8)) fails with an exhausted budget
        # after shard 0 already committed.
        out = tmp_path / "crash"
        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        task = ChaosClassificationTask(chaos_dir, fail_step=5, mode="raise")
        with pytest.raises(ShardError) as err:
            _run_campaign(
                out, model, dataset, scenario, task,
                workers=1, num_shards=3,
                policy=ExecutionPolicy(retries=0, backoff=0.0, in_process_fallback=False),
            )
        assert (err.value.index, err.value.start, err.value.stop) == (1, 4, 8)
        assert err.value.attempts == 1
        assert "chaos: step 5 failed" in err.value.cause

        # Shard 0 is committed, shard 1 left its work-in-progress directory.
        assert _shard_entries(out) == ["shard_00", "shard_01.wip"]
        before = self._shard_snapshot(out / "shards" / "shard_00")

        # Resume: the same campaign configuration, fresh task object.  The
        # chaos marker is tripped, so pending shards now run clean.
        resumed_task = ChaosClassificationTask(chaos_dir, fail_step=5, mode="raise")
        state, paths, executor = _run_campaign(
            out, model, dataset, scenario, resumed_task,
            workers=1, num_shards=3,
            policy=ExecutionPolicy(retries=0, backoff=0.0, resume=True),
        )
        for tag in STREAM_TAGS:
            assert _file_bytes(ref_paths[tag]) == _file_bytes(paths[tag]), tag
        assert state == ref_state
        # The completed shard was merged from disk, not re-run.
        assert self._shard_snapshot(out / "shards" / "shard_00") == before
        assert executor.attempt_log == {}
        assert _shard_entries(out) == ["shard_00", "shard_01", "shard_02"]

    def test_resume_reruns_shard_with_corrupt_state(
        self, fitted_model_and_dataset, scenario, tmp_path, executed_shards
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        state, paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=2
        )
        # Corrupt one committed shard's state payload: resume must delete the
        # shard and re-run it rather than trust unreadable bytes.
        (out / "shards" / "shard_01" / "shard_state.pkl").write_bytes(b"garbage")
        executed_shards.clear()
        resumed_state, resumed_paths, executor = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=2, policy=ExecutionPolicy(resume=True),
        )
        assert executed_shards == [1]
        assert resumed_state == state
        for tag in STREAM_TAGS:
            assert _file_bytes(paths[tag]) == _file_bytes(resumed_paths[tag]), tag
        assert _shard_entries(out) == ["shard_00", "shard_01"]

    def test_resume_reruns_a_wip_leftover_and_a_deleted_shard_alone(
        self, fitted_model_and_dataset, scenario, tmp_path, executed_shards
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        state, paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=3
        )
        reference = {tag: _file_bytes(paths[tag]) for tag in STREAM_TAGS}
        shards = out / "shards"
        before = self._shard_snapshot(shards / "shard_00")
        # Shard 1 is gone; shard 2 was killed before its commit rename.
        shutil.rmtree(shards / "shard_01")
        (shards / "shard_02").rename(shards / "shard_02.wip")
        executed_shards.clear()
        resumed_state, resumed_paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=3, policy=ExecutionPolicy(resume=True),
        )
        assert executed_shards == [1, 2]
        assert resumed_state == state
        for tag in STREAM_TAGS:
            assert _file_bytes(resumed_paths[tag]) == reference[tag], tag
        assert self._shard_snapshot(shards / "shard_00") == before
        assert _shard_entries(out) == ["shard_00", "shard_01", "shard_02"]

    def test_resume_reruns_a_shard_committed_without_a_configuration_digest(
        self, fitted_model_and_dataset, scenario, tmp_path, executed_shards
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        state, paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=2
        )
        reference = {tag: _file_bytes(paths[tag]) for tag in STREAM_TAGS}
        # The payload format of shards committed before payloads carried a
        # digest: state and file names only.  Nothing proves which campaign
        # wrote it, so it is re-run.
        state_path = out / "shards" / "shard_01" / "shard_state.pkl"
        with open(state_path, "rb") as handle:
            payload = pickle.load(handle)
        atomic_write_pickle(state_path, {"state": payload["state"], "files": payload["files"]})
        executed_shards.clear()
        resumed_state, resumed_paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=2, policy=ExecutionPolicy(resume=True),
        )
        assert executed_shards == [1]
        assert resumed_state == state
        for tag in STREAM_TAGS:
            assert _file_bytes(resumed_paths[tag]) == reference[tag], tag
        with open(state_path, "rb") as handle:
            rewritten = pickle.load(handle)
        assert rewritten["config_digest"] == payload["config_digest"]
        assert (rewritten["start"], rewritten["stop"]) == (6, 12)

    def test_a_run_without_resume_starts_from_empty_shards(
        self, fitted_model_and_dataset, scenario, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        _run_campaign(out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=3)
        _run_campaign(out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=2)
        assert _shard_entries(out) == ["shard_00", "shard_01"]

    def test_resume_of_a_finished_campaign_runs_nothing(
        self, fitted_model_and_dataset, scenario, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        state, paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=2
        )
        shard_dirs = sorted((out / "shards").iterdir())
        before = [self._shard_snapshot(d) for d in shard_dirs]

        resumed_state, resumed_paths, _ = _run_campaign(
            out, model, dataset, scenario, ClassificationTask(),
            workers=1, num_shards=2, policy=ExecutionPolicy(resume=True),
        )
        assert resumed_state == state
        for tag in STREAM_TAGS:
            assert _file_bytes(paths[tag]) == _file_bytes(resumed_paths[tag]), tag
        assert [self._shard_snapshot(d) for d in shard_dirs] == before

    def test_resume_refuses_a_different_campaign_configuration(
        self, fitted_model_and_dataset, scenario, tmp_path
    ):
        model, dataset = fitted_model_and_dataset
        out = tmp_path / "run"
        _run_campaign(
            out, model, dataset, scenario, ClassificationTask(), workers=1, num_shards=2
        )
        changed = default_scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=8, model_name="chaos"
        )
        with pytest.raises(ValueError, match="different"):
            _run_campaign(
                out, model, dataset, changed, ClassificationTask(),
                workers=1, num_shards=2, policy=ExecutionPolicy(resume=True),
            )

    def test_resume_requires_a_result_writer(self, fitted_model_and_dataset, scenario):
        model, dataset = fitted_model_and_dataset
        core = CampaignCore(model, dataset, ClassificationTask(), scenario=scenario)
        executor = ShardedCampaignExecutor(
            core, workers=1, num_shards=2, policy=ExecutionPolicy(resume=True)
        )
        with pytest.raises(ValueError, match="writer"):
            executor.run()
