"""Sharded campaign execution: :class:`ShardedCampaignExecutor`.

A campaign is cut into contiguous step ranges, each run by a copy of the
campaign's own :class:`~repro.alficore.campaign.core.CampaignCore`
(:meth:`~repro.alficore.campaign.core.CampaignCore.for_shard`) under the
supervised scheduler of :mod:`repro.alficore.resilience`, and the shard
states and record files are merged byte-identically to a single-process run.
"""

from __future__ import annotations

import pickle
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.alficore.campaign.core import CampaignCore
from repro.alficore.digests import config_digest
from repro.alficore.goldencache import GoldenCache
from repro.alficore.resilience import (
    ExecutionPolicy,
    ShardSupervisor,
    atomic_write_pickle,
    commit_directory,
    fsync_directory,
    fsync_files,
)
from repro.alficore.results import CampaignResultWriter, merge_record_files


@dataclass
class _ShardJob:
    """Self-contained, picklable description of one campaign shard."""

    index: int
    start: int
    stop: int
    #: the campaign's core as every shard starts from it
    #: (:meth:`CampaignCore.for_shard`: a fresh task, no writer, no cache)
    core: CampaignCore
    shard_dir: str | None
    campaign_name: str
    cache_budget: int | None = None
    cache_spill_dir: str | None = None


def _execute_shard(job: _ShardJob) -> tuple[int, object, dict[str, str]]:
    """Run one shard (in a worker process or in-process) and return its state."""
    template = job.core
    writer = (
        CampaignResultWriter(job.shard_dir, campaign_name=job.campaign_name)
        if job.shard_dir is not None
        else None
    )
    golden_cache = None
    if job.cache_budget is not None and (
        job.cache_spill_dir is not None or template.scenario.num_runs > 1
    ):
        # Without a spill directory the cache is private to this shard, and
        # a single-epoch shard visits every batch once: it could never hit.
        golden_cache = GoldenCache(job.cache_budget, spill_dir=job.cache_spill_dir)
    # A fresh, unstarted task copy per attempt: an in-process retry must not
    # inherit the partial state a failed attempt accumulated.
    core = template.for_shard(template.task.fresh(), writer, golden_cache)
    stream_paths = core.run(start=job.start, stop=job.stop)
    return job.index, core.task.state, stream_paths


class ShardedCampaignExecutor:
    """Partition a campaign into contiguous shards and run them in parallel.

    The campaign's global step sequence is split into ``num_shards``
    contiguous, balanced ranges.  A shard is the campaign's core on a step
    range: a copy of it (:meth:`CampaignCore.for_shard`) that shares its
    model, dataset, wrappers and options and has its own task, writer and
    golden cache, runs ``run(start, stop)`` — the seeded epoch permutations
    and the shard's fault-group range of the campaign's one fault matrix,
    read by the wrapper that drew it — and streams records into a
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
    is committed as ``shard_XX`` on completion, with its state payload
    (``shard_state.pkl``: task state, record file names, step range and a
    digest of the campaign configuration) written last.  A committed shard
    directory is the record that the shard is done: ``policy.resume=True``
    merges the ones committed for this campaign from disk and runs the rest,
    byte-identically to an uninterrupted run; a run without it starts from
    an empty ``shards/``.

    ``workers=1`` executes the shards sequentially in-process (no
    subprocesses, no pickling) with the same retry budget and
    ``ShardError`` semantics; ``workers>1`` uses supervised worker
    processes.

    Args:
        core: the configured campaign (model, dataset, task, scenario...);
            every shard runs a copy of it.
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
                "resume=True requires a result writer: the committed shard "
                "directories live under the campaign output directory"
            )
        if self.num_shards <= 1 and not policy.resume:
            stream_paths = core.run()
            return core.task.state, stream_paths

        bounds = self.shard_bounds()
        digest = self._config_digest(bounds)
        shards_root: Path | None = None
        scratch_dir: Path | None = None
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        if core.writer is not None:
            shards_root = core.writer.output_dir / "shards"
            if policy.resume:
                completed = self._load_committed(shards_root, digest)
            elif shards_root.exists():
                # Another campaign's shards must never pass for this one's.
                shutil.rmtree(shards_root)
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
        template = core.for_shard(core.task.fresh(), None, None)
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
                    core=template,
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
                finalize=self._make_finalizer(shards_root, digest),
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
            merged_paths = merge_record_files(
                [paths for _, _, paths in ordered], core.writer.output_dir
            )
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)
        return merged_state, merged_paths

    # ------------------------------------------------------------------ #
    # fault tolerance plumbing
    # ------------------------------------------------------------------ #
    def _config_digest(self, bounds: list[tuple[int, int]]) -> str:
        """Digest of the campaign configuration a committed shard records.

        Execution-policy knobs (retries, timeout, resume itself) are
        deliberately excluded: changing them between the interrupted run and
        the resume is legitimate and must not invalidate committed shards.
        """
        core = self.core
        return config_digest(
            {
                "campaign_name": core.writer.campaign_name if core.writer is not None else "campaign",
                "task": type(core.task).__name__,
                "total_steps": core.total_steps,
                "num_shards": self.num_shards,
                "bounds": [[start, stop] for start, stop in bounds],
                "scenario": core.scenario.as_dict(),
            }
        )

    @staticmethod
    def _prepare_attempt(job: _ShardJob, attempt: int) -> None:
        """Reset the shard's .wip directory before every (re-)attempt."""
        if job.shard_dir is None:
            return
        wip = Path(job.shard_dir)
        if wip.exists():
            shutil.rmtree(wip)
        wip.mkdir(parents=True, exist_ok=True)

    def _make_finalizer(self, shards_root: Path | None, digest: str):
        """Parent-side success hook: record the shard in its directory, commit it."""

        def finalize(
            job: _ShardJob, result: tuple[int, object, dict[str, str]]
        ) -> tuple[int, object, dict[str, str]]:
            index, state, stream_paths = result
            if job.shard_dir is None or shards_root is None:
                return result
            wip = Path(job.shard_dir)
            final = shards_root / f"shard_{index:02d}"
            files = {tag: Path(path).name for tag, path in stream_paths.items()}
            # Written last, behind the data of every record file: a shard
            # directory with a readable payload holds everything a resumed
            # run needs to merge it without re-running.
            fsync_files(wip, files.values())
            atomic_write_pickle(
                wip / self.SHARD_STATE_FILENAME,
                {
                    "state": state,
                    "files": files,
                    "config_digest": digest,
                    "start": job.start,
                    "stop": job.stop,
                },
            )
            fsync_directory(wip)
            commit_directory(wip, final)
            return index, state, {tag: str(final / name) for tag, name in files.items()}

        return finalize

    def _load_committed(
        self, shards_root: Path, digest: str
    ) -> dict[int, tuple[int, object, dict[str, str]]]:
        """Results of the shards a previous run committed for this campaign.

        A shard directory whose payload is unreadable, names record files
        that are missing, or predates payloads carrying a configuration
        digest is deleted and its shard re-run — resume never trusts bytes it
        cannot load.  A readable payload of another campaign configuration
        is refused with ``ValueError``.
        """
        completed: dict[int, tuple[int, object, dict[str, str]]] = {}
        for index in range(self.num_shards):
            final = shards_root / f"shard_{index:02d}"
            if not final.is_dir():
                continue
            try:
                with open(final / self.SHARD_STATE_FILENAME, "rb") as handle:
                    payload = pickle.load(handle)
                recorded, state = payload["config_digest"], payload["state"]
                paths = {tag: str(final / name) for tag, name in payload["files"].items()}
                intact = all(Path(path).is_file() for path in paths.values())
            except Exception:
                intact = False
            if not intact:
                shutil.rmtree(final)
                continue
            if recorded != digest:
                raise ValueError(
                    f"cannot resume from {final}: it records a different campaign "
                    "configuration (model, scenario or shard geometry changed); "
                    "re-run without resume"
                )
            completed[index] = (index, state, paths)
        return completed
