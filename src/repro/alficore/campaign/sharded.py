"""Sharded campaign execution: :class:`ShardedCampaignExecutor`.

A campaign is cut into contiguous step ranges, each run through its own
:class:`~repro.alficore.campaign.core.CampaignCore` under the supervised
scheduler of :mod:`repro.alficore.resilience`, and the shard states and
record files are merged byte-identically to a single-process run.
"""

from __future__ import annotations

import os
import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.alficore.campaign.core import CampaignCore
from repro.alficore.campaign.tasks import CampaignTask
from repro.alficore.goldencache import GoldenCache
from repro.alficore.resilience import (
    ExecutionPolicy,
    RunManifest,
    ShardSupervisor,
    atomic_write_pickle,
)
from repro.alficore.results import (
    CampaignResultWriter,
    merge_csv_files,
    merge_json_array_files,
)
from repro.alficore.wrapper import ptfiwrap


@dataclass
class _ShardJob:
    """Self-contained, picklable description of one campaign shard."""

    index: int
    start: int
    stop: int
    #: :meth:`CampaignCore.shard_arguments` of the campaign being sharded
    core_arguments: dict
    task: CampaignTask
    fault_matrix: object
    shard_dir: str | None
    campaign_name: str
    cache_budget: int | None = None
    cache_spill_dir: str | None = None


def _execute_shard(job: _ShardJob) -> tuple[int, object, dict[str, str]]:
    """Run one shard (in a worker process or in-process) and return its state."""
    arguments = job.core_arguments
    # A fresh, unstarted task copy per attempt: an in-process retry must not
    # inherit the partial state a failed attempt accumulated into job.task.
    task = job.task.fresh()
    writer = (
        CampaignResultWriter(job.shard_dir, campaign_name=job.campaign_name)
        if job.shard_dir is not None
        else None
    )
    wrapper = ptfiwrap(
        arguments["model"],
        scenario=arguments["scenario"],
        input_shape=arguments["input_shape"],
        fault_matrix=job.fault_matrix,
    )
    golden_cache = None
    if job.cache_budget is not None and (
        job.cache_spill_dir is not None or arguments["scenario"].num_runs > 1
    ):
        # Without a spill directory the cache is private to this shard, and
        # a single-epoch shard visits every batch once: it could never hit.
        golden_cache = GoldenCache(job.cache_budget, spill_dir=job.cache_spill_dir)
    core = CampaignCore(
        task=task, writer=writer, wrapper=wrapper, golden_cache=golden_cache, **arguments
    )
    stream_paths = core.run(start=job.start, stop=job.stop)
    return job.index, task.state, stream_paths


class ShardedCampaignExecutor:
    """Partition a campaign into contiguous shards and run them in parallel.

    The campaign's global step sequence is split into ``num_shards``
    contiguous, balanced ranges.  Each shard re-derives its exact slice of
    the work deterministically — the seeded epoch permutations, the shared
    pre-generated fault matrix and the shard's fault-group range — runs it
    through its own :class:`CampaignCore`, and streams records into a
    per-shard directory (``<output>/shards/shard_XX``).  Afterwards the shard
    states are merged in shard order and the per-shard record files are
    concatenated byte-identically to a single-process run.

    Execution is fault tolerant: shards are dispatched through a
    :class:`~repro.alficore.resilience.ShardSupervisor`, so a worker that
    raises, hangs past the per-shard timeout or dies (e.g. is OOM-killed) is
    re-queued by its deterministic step range with capped exponential
    backoff until the retry budget of the :class:`ExecutionPolicy` is
    exhausted — at which point a structured
    :class:`~repro.alficore.resilience.ShardError` is raised.  When a writer
    is configured, each shard streams into a ``shard_XX.wip`` directory that
    is atomically renamed to ``shard_XX`` on completion, and a crash-safe
    run manifest (``<campaign>_manifest.json``) tracks completed shard
    ranges; ``policy.resume=True`` skips the recorded shards and merges
    byte-identically to an uninterrupted run.

    ``workers=1`` executes the shards sequentially in-process (no
    subprocesses, no pickling) with the same retry budget and
    ``ShardError`` semantics; ``workers>1`` uses supervised worker
    processes.

    Args:
        core: the configured campaign (model, dataset, task, scenario...).
        workers: number of worker processes (1 = in-process execution).
        num_shards: number of shards (defaults to ``workers``).
        policy: retry/timeout/backoff/resume configuration (defaults to
            :class:`~repro.alficore.resilience.ExecutionPolicy`).
    """

    SHARD_STATE_FILENAME = "shard_state.pkl"

    def __init__(
        self,
        core: CampaignCore,
        workers: int = 1,
        num_shards: int | None = None,
        policy: ExecutionPolicy | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.core = core
        self.workers = int(workers)
        num_shards = self.workers if num_shards is None else int(num_shards)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = min(num_shards, core.total_steps)
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.policy.validate()
        #: per-shard failure history of the last run (index -> attempts)
        self.attempt_log: dict[int, list[dict]] = {}

    def shard_bounds(self) -> list[tuple[int, int]]:
        """Contiguous, balanced ``[start, stop)`` step ranges of the shards."""
        total = self.core.total_steps
        n = self.num_shards
        return [(i * total // n, (i + 1) * total // n) for i in range(n)]

    def run(self) -> tuple[object, dict[str, str]]:
        """Execute all shards and return ``(merged_state, merged_stream_paths)``.

        The merged state is also installed as ``core.task.state`` so callers
        can keep reading results from the task they configured.
        """
        core = self.core
        policy = self.policy
        if policy.resume and core.writer is None:
            raise ValueError(
                "resume=True requires a result writer: the run manifest and the "
                "per-shard record files live under the campaign output directory"
            )
        if self.num_shards <= 1 and not policy.resume:
            stream_paths = core.run()
            return core.task.state, stream_paths

        bounds = self.shard_bounds()
        manifest: RunManifest | None = None
        shards_root: Path | None = None
        scratch_dir: Path | None = None
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        if core.writer is not None:
            shards_root = core.writer.output_dir / "shards"
            manifest_path = (
                core.writer.output_dir / f"{core.writer.campaign_name}_manifest.json"
            )
            config = self._manifest_config(bounds)
            existing = RunManifest.load(manifest_path) if policy.resume else None
            if existing is not None:
                if not existing.matches(config):
                    raise ValueError(
                        f"cannot resume from {manifest_path}: it records a different "
                        "campaign configuration (model, scenario or shard geometry "
                        "changed); delete the manifest or re-run without resume"
                    )
                manifest = existing
                completed = self._load_completed(manifest, shards_root)
            else:
                manifest = RunManifest.fresh(manifest_path, config)
            self._clean_stale_wip(shards_root)
            scratch_dir = core.writer.output_dir / ".supervisor"

        cache = core.golden_cache
        cache_budget = cache.byte_budget if cache is not None else None
        cache_spill_dir = None
        if cache is not None:
            # Shards are separate processes: a shared spillover directory is
            # what lets them reuse each other's golden passes.
            if cache.spill_dir is not None:
                cache_spill_dir = str(cache.spill_dir)
            elif core.writer is not None:
                cache_spill_dir = str(core.writer.output_dir / "golden_cache")
        core_arguments = core.shard_arguments()
        jobs = []
        for index, (start, stop) in enumerate(bounds):
            if index in completed:
                continue
            shard_dir = None
            if shards_root is not None:
                # Shards stream into a .wip directory that the finalizer
                # renames atomically on completion: a half-written shard is
                # never mistaken for a finished one.
                shard_dir = str(shards_root / f"shard_{index:02d}.wip")
            jobs.append(
                _ShardJob(
                    index=index,
                    start=start,
                    stop=stop,
                    core_arguments=core_arguments,
                    task=core.task.fresh(),
                    fault_matrix=core.wrapper.get_fault_matrix(),
                    shard_dir=shard_dir,
                    campaign_name=core.writer.campaign_name if core.writer is not None else "campaign",
                    cache_budget=cache_budget,
                    cache_spill_dir=cache_spill_dir,
                )
            )

        results: dict[int, tuple[int, object, dict[str, str]]] = dict(completed)
        if jobs:
            supervisor = ShardSupervisor(
                jobs,
                _execute_shard,
                workers=self.workers,
                policy=policy,
                scratch_dir=scratch_dir,
                prepare=self._prepare_attempt,
                finalize=self._make_finalizer(manifest, shards_root),
            )
            run_results = supervisor.run() if self.workers > 1 else supervisor.run_serial()
            self.attempt_log = supervisor.attempt_log
            for index, state, paths in run_results:
                results[index] = (index, state, paths)

        ordered = [results[index] for index in sorted(results)]
        merged_state = type(core.task).merge_states([state for _, state, _ in ordered])
        core.task.state = merged_state
        merged_paths: dict[str, str] = {}
        if core.writer is not None:
            merged_paths = self._merge_stream_files([paths for _, _, paths in ordered])
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
        return merged_state, merged_paths

    # ------------------------------------------------------------------ #
    # fault tolerance plumbing
    # ------------------------------------------------------------------ #
    def _manifest_config(self, bounds: list[tuple[int, int]]) -> dict:
        """Campaign configuration the manifest digest is derived from.

        Execution-policy knobs (retries, timeout, resume itself) are
        deliberately excluded: changing them between the interrupted run and
        the resume is legitimate and must not invalidate the manifest.
        """
        core = self.core
        return {
            "campaign_name": core.writer.campaign_name if core.writer is not None else "campaign",
            "task": type(core.task).__name__,
            "total_steps": core.total_steps,
            "num_shards": self.num_shards,
            "bounds": [[start, stop] for start, stop in bounds],
            "scenario": core.scenario.as_dict(),
        }

    @staticmethod
    def _prepare_attempt(job: _ShardJob, attempt: int) -> None:
        """Reset the shard's .wip directory before every (re-)attempt."""
        if job.shard_dir is None:
            return
        wip = Path(job.shard_dir)
        if wip.exists():
            shutil.rmtree(wip)
        wip.mkdir(parents=True, exist_ok=True)

    def _make_finalizer(self, manifest: RunManifest | None, shards_root: Path | None):
        """Parent-side success hook: commit the shard dir, update the manifest."""

        def finalize(
            job: _ShardJob, result: tuple[int, object, dict[str, str]]
        ) -> tuple[int, object, dict[str, str]]:
            index, state, stream_paths = result
            if job.shard_dir is None or shards_root is None:
                return result
            wip = Path(job.shard_dir)
            final = shards_root / f"shard_{index:02d}"
            files = {tag: Path(path).name for tag, path in stream_paths.items()}
            # The shard's merged-state payload travels with its record files
            # so a resumed run can rebuild the full result without re-running
            # the shard.
            atomic_write_pickle(
                wip / self.SHARD_STATE_FILENAME, {"state": state, "files": files}
            )
            if final.exists():
                shutil.rmtree(final)
            os.replace(wip, final)
            new_paths = {tag: str(final / name) for tag, name in files.items()}
            if manifest is not None:
                manifest.mark_completed(index, job.start, job.stop)
            return index, state, new_paths

        return finalize

    def _load_completed(
        self, manifest: RunManifest, shards_root: Path
    ) -> dict[int, tuple[int, object, dict[str, str]]]:
        """Rebuild results of manifest-recorded shards from their directories.

        A recorded shard whose directory or state pickle is missing or
        unreadable is demoted back to pending and simply re-run — resume
        never trusts bytes it cannot load.
        """
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        for index in manifest.completed_indices():
            final = shards_root / f"shard_{index:02d}"
            try:
                with open(final / self.SHARD_STATE_FILENAME, "rb") as handle:
                    payload = pickle.load(handle)
                state = payload["state"]
                files = dict(payload["files"])
            except Exception:
                manifest.mark_pending(index)
                continue
            paths = {tag: str(final / name) for tag, name in files.items()}
            completed[index] = (index, state, paths)
        return completed

    @staticmethod
    def _clean_stale_wip(shards_root: Path) -> None:
        """Remove .wip leftovers of attempts killed before completion."""
        if not shards_root.exists():
            return
        for leftover in shards_root.glob("shard_*.wip"):
            shutil.rmtree(leftover, ignore_errors=True)

    def _merge_stream_files(self, shard_paths: list[dict[str, str]]) -> dict[str, str]:
        """Concatenate the shards' record files into the campaign directory."""
        merged: dict[str, str] = {}
        tags: list[str] = []
        for paths in shard_paths:
            for tag in paths:
                if tag not in tags:
                    tags.append(tag)
        for tag in tags:
            parts = [Path(paths[tag]) for paths in shard_paths if tag in paths]
            out_path = self.core.writer.output_dir / parts[0].name
            if parts[0].suffix == ".csv":
                merge_csv_files(parts, out_path)
            else:
                merge_json_array_files(parts, out_path)
            merged[tag] = str(out_path)
        return merged
