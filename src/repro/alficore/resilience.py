"""Fault-tolerant shard execution: supervision, retries and crash-safe resume.

The fault-injection campaigns this repo reproduces run for hours, yet until
this module existed a single OOM-killed, crashed or hung worker aborted the
whole run with an opaque pool exception and nothing resumable on disk.  The
layer below fixes that with two cooperating pieces:

* :class:`ShardSupervisor` — supervised dispatch replacing the bare
  ``pool.map``.  Every shard attempt runs in its own ``multiprocessing``
  process whose result (or pickled traceback) comes back through an
  atomically-written scratch file, so the parent can tell the three failure
  modes apart: the worker *raised* (error file present), *died* (killed by a
  signal or exited without reporting) or *timed out* (exceeded the per-shard
  wall-clock deadline and was killed by the supervisor).  Failed shards are
  re-queued by their deterministic ``(start, stop)`` step range with capped
  exponential backoff until a configurable retry budget is exhausted; a shard
  that repeatedly fails *by raising* degrades gracefully to one in-process
  attempt (a shard that hangs or gets killed is never pulled in-process — it
  would take the parent down with it).  Permanent failures surface as a
  structured :class:`ShardError` carrying the shard index, step range,
  attempt count and the worker traceback.

* Atomic commits — :func:`commit_directory` publishes a finished
  work-in-progress directory by rename and fsyncs its parent, and
  :func:`atomic_write_pickle` / :func:`atomic_replace_json` write single
  files the same way, so a reader sees the old or the new complete version,
  never a partial write, even across a power loss.  A committed shard
  directory is therefore its own record of completion: ``resume=True``
  merges the shards a previous run committed for the same campaign and
  re-runs the rest, byte-identically to an uninterrupted run, which is sound
  because every shard's work is a pure function of its step range (the
  fault matrix is pre-drawn and the loader's epoch permutations depend only
  on ``(seed, epoch)``).

Retry correctness rests on the same determinism argument: a re-executed
shard replays exactly the inferences of its step range, so a campaign that
needed retries is byte-identical to one that did not.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import multiprocessing

#: failure taxonomy of one shard attempt
KIND_RAISED = "raised"  # worker raised a Python exception (traceback known)
KIND_DIED = "died"  # worker vanished: signal-killed / exited without result
KIND_TIMEOUT = "timeout"  # worker exceeded the wall-clock deadline, was killed


# --------------------------------------------------------------------------- #
# structured failure
# --------------------------------------------------------------------------- #
class ShardError(RuntimeError):
    """A campaign shard failed permanently (its retry budget is exhausted).

    Carries everything a caller needs to reason about (or re-run) the lost
    work: the shard ``index``, its deterministic ``[start, stop)`` step
    range, the number of ``attempts`` made, the failure ``kind`` (one of
    ``"raised"``, ``"died"``, ``"timeout"``) and ``cause`` — the worker's
    full traceback text when the shard raised, or a description of how the
    worker was lost otherwise.
    """

    def __init__(
        self,
        index: int,
        start: int,
        stop: int,
        attempts: int,
        kind: str,
        cause: str = "",
    ) -> None:
        self.index = index
        self.start = start
        self.stop = stop
        self.attempts = attempts
        self.kind = kind
        self.cause = cause
        detail = cause.strip().splitlines()[-1] if cause.strip() else kind
        super().__init__(
            f"shard {index} (steps [{start}, {stop})) failed permanently "
            f"after {attempts} attempt(s) [{kind}]: {detail}"
        )


# --------------------------------------------------------------------------- #
# execution policy
# --------------------------------------------------------------------------- #
@dataclass
class ExecutionPolicy:
    """Knobs of the supervised executor (retry budget, timeout, resume).

    Args:
        retries: extra attempts per shard after the first one fails.
        shard_timeout: per-shard wall-clock deadline in seconds; a shard
            still running past it is killed and counted as a ``"timeout"``
            failure.  ``None`` disables the deadline.  Only enforced for
            subprocess execution — an in-process shard cannot be killed.
        backoff: base re-queue delay in seconds; attempt ``k`` waits
            ``min(backoff * 2**(k-1), backoff_cap)`` before re-running.
        backoff_cap: upper bound on the exponential backoff delay.
        resume: merge the shards a previous run of the same campaign
            committed (``shards/shard_XX``) from disk instead of re-running
            them.
        in_process_fallback: after the retry budget is exhausted by *raised*
            failures, make one last in-process attempt (never applied to
            died/timed-out shards, which could take the parent down).
    """

    retries: int = 2
    shard_timeout: float | None = None
    backoff: float = 0.5
    backoff_cap: float = 30.0
    resume: bool = False
    in_process_fallback: bool = True

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range settings."""
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be positive, got {self.shard_timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")

    def backoff_delay(self, attempt: int) -> float:
        """Capped exponential re-queue delay after failed attempt ``attempt``."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * (2 ** (attempt - 1)), self.backoff_cap)


# --------------------------------------------------------------------------- #
# atomic file helpers
# --------------------------------------------------------------------------- #
def _fsync_directory(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # e.g. platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace_json(path: str | Path, document: Any) -> Path:
    """Write ``document`` as JSON via fsync'd write-temp-then-rename.

    Readers either see the previous complete file or the new complete file,
    never a partial write — even across a crash or power loss (the file is
    fsync'd before the rename and the directory entry after it).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    return path


def atomic_write_pickle(path: str | Path, payload: Any) -> Path:
    """Pickle ``payload`` via fsync'd write-temp-then-rename (crash-safe)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def commit_directory(wip: str | Path, final: str | Path) -> Path:
    """Publish the finished directory ``wip`` as ``final`` (crash-safe).

    Whatever ``final`` held is replaced, ``wip`` is renamed into place and the
    parent directory is fsync'd, so after a crash or power loss ``final``
    either does not exist or is complete.  Shard and sweep-point commits
    both go through here.
    """
    final = Path(final)
    if final.exists():
        shutil.rmtree(final)
    os.replace(wip, final)
    _fsync_directory(final.parent)
    return final


_LOAD_FAILED = object()


def _read_pickle(path: Path) -> Any:
    """Load a pickle, returning the ``_LOAD_FAILED`` sentinel on any error."""
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:
        return _LOAD_FAILED


# --------------------------------------------------------------------------- #
# subprocess plumbing
# --------------------------------------------------------------------------- #
def _subprocess_entry(
    execute: Callable[[Any], Any],
    job: Any,
    result_path: str,
    error_path: str,
) -> None:
    """Child-process entry point: run the shard, report through scratch files.

    The result (or the formatted traceback) is written with an atomic
    temp-then-rename, so the parent never reads a half-written report — a
    worker killed mid-write simply leaves no report at all, which the parent
    classifies as ``"died"``.
    """
    try:
        result = execute(job)
    except BaseException:
        atomic_write_pickle(error_path, {"traceback": traceback.format_exc()})
        raise SystemExit(1)
    atomic_write_pickle(result_path, result)


def _kill_process(process: "multiprocessing.process.BaseProcess") -> None:
    """Terminate a worker, escalating to SIGKILL if it ignores SIGTERM."""
    if not process.is_alive():
        return
    process.terminate()
    process.join(0.5)
    if process.is_alive():
        process.kill()
        process.join()


@dataclass
class _Attempt:
    """One queued (re-)execution of a shard."""

    job: Any
    attempt: int  # 1-based
    ready_at: float  # monotonic time the attempt may start (backoff)


@dataclass
class _Running:
    """Book-keeping of one in-flight worker process."""

    process: Any
    attempt: _Attempt
    deadline: float | None
    result_path: Path
    error_path: Path


# --------------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------------- #
class ShardSupervisor:
    """Supervised shard execution with retry, timeout and backoff.

    Jobs only need ``index`` / ``start`` / ``stop`` attributes and must be
    picklable (they are shipped to worker processes); ``execute`` must be a
    picklable callable (a module-level function) returning the shard result.

    Args:
        jobs: the shard jobs to run (any order; results come back sorted by
            ``job.index``).
        execute: ``execute(job) -> result``, run in a worker process (or
            in-process via :meth:`run_serial`).
        workers: maximum number of concurrently running worker processes.
        policy: retry/timeout/backoff configuration.
        mp_context: ``multiprocessing`` context (defaults to fork when
            available, else spawn).
        scratch_dir: directory for the per-attempt result/error scratch
            files; a private temporary directory is used (and cleaned up)
            when omitted.
        prepare: optional parent-side hook ``prepare(job, attempt)`` called
            before every attempt — the place to clear a previous attempt's
            partial output.
        finalize: optional parent-side hook ``finalize(job, result) ->
            result`` called once per shard on success — the place to commit
            the shard's output atomically.  Runs in the parent, so closures
            over unpicklable state are fine.
    """

    def __init__(
        self,
        jobs: list[Any],
        execute: Callable[[Any], Any],
        *,
        workers: int = 2,
        policy: ExecutionPolicy | None = None,
        mp_context: Any | None = None,
        scratch_dir: str | Path | None = None,
        prepare: Callable[[Any, int], None] | None = None,
        finalize: Callable[[Any, Any], Any] | None = None,
    ) -> None:
        self.jobs = list(jobs)
        self.execute = execute
        self.workers = max(1, int(workers))
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.policy.validate()
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self.mp_context = mp_context
        self._scratch_dir = Path(scratch_dir) if scratch_dir is not None else None
        self.prepare = prepare
        self.finalize = finalize
        #: per-shard failure history: index -> [{"attempt", "kind"}, ...]
        self.attempt_log: dict[int, list[dict]] = {}

    # ------------------------------------------------------------------ #
    # serial (in-process) execution
    # ------------------------------------------------------------------ #
    def run_serial(self) -> list[Any]:
        """Run all jobs in-process, sequentially, with the same retry budget.

        No subprocesses and no pickling — but also no timeout enforcement
        (an in-process shard cannot be killed).  Failures are Python
        exceptions only; a shard that exhausts its budget raises
        :class:`ShardError` exactly like the parallel path.
        """
        results = []
        for job in sorted(self.jobs, key=lambda j: j.index):
            results.append(self._run_in_process(job, first_attempt=1, backoff=True))
        return results

    def _run_in_process(self, job: Any, first_attempt: int, backoff: bool) -> Any:
        budget = self.policy.retries + 1
        attempt = first_attempt
        while True:
            if self.prepare is not None:
                self.prepare(job, attempt)
            try:
                result = self.execute(job)
            except Exception as exc:
                self._log_failure(job.index, attempt, KIND_RAISED)
                if attempt >= budget:
                    raise ShardError(
                        job.index, job.start, job.stop, attempt, KIND_RAISED,
                        traceback.format_exc(),
                    ) from exc
                if backoff:
                    time.sleep(self.policy.backoff_delay(attempt))
                attempt += 1
            else:
                return self._finish(job, result)

    # ------------------------------------------------------------------ #
    # supervised parallel execution
    # ------------------------------------------------------------------ #
    def run(self) -> list[Any]:
        """Run all jobs in supervised worker processes; results by index."""
        if not self.jobs:
            return []
        scratch = self._scratch_dir
        owns_scratch = scratch is None
        if owns_scratch:
            scratch = Path(tempfile.mkdtemp(prefix="shard_supervisor_"))
        else:
            scratch.mkdir(parents=True, exist_ok=True)
        results: dict[int, Any] = {}
        pending: list[_Attempt] = [_Attempt(job, 1, 0.0) for job in self.jobs]
        running: dict[int, _Running] = {}
        try:
            while pending or running:
                self._launch_ready(pending, running, scratch)
                progressed = self._poll(pending, running, results)
                if not progressed and (pending or running):
                    self._wait(pending, running)
        finally:
            for record in running.values():
                _kill_process(record.process)
            if owns_scratch:
                shutil.rmtree(scratch, ignore_errors=True)
        return [results[job.index] for job in sorted(self.jobs, key=lambda j: j.index)]

    # ------------------------------------------------------------------ #
    # scheduler internals
    # ------------------------------------------------------------------ #
    def _launch_ready(
        self,
        pending: list[_Attempt],
        running: dict[int, _Running],
        scratch: Path,
    ) -> None:
        now = time.monotonic()
        ready = [att for att in pending if att.ready_at <= now]
        for att in ready:
            if len(running) >= self.workers:
                break
            pending.remove(att)
            job = att.job
            if self.prepare is not None:
                self.prepare(job, att.attempt)
            token = f"{job.index:04d}_{att.attempt}"
            result_path = scratch / f"result_{token}.pkl"
            error_path = scratch / f"error_{token}.pkl"
            for path in (result_path, error_path):
                if path.exists():
                    path.unlink()
            process = self.mp_context.Process(
                target=_subprocess_entry,
                args=(self.execute, job, str(result_path), str(error_path)),
                daemon=True,
            )
            process.start()
            deadline = (
                time.monotonic() + self.policy.shard_timeout
                if self.policy.shard_timeout is not None
                else None
            )
            running[job.index] = _Running(process, att, deadline, result_path, error_path)

    def _wait(self, pending: list[_Attempt], running: dict[int, _Running]) -> None:
        """Block until a worker exits, a shard deadline passes or a retry falls due."""
        from multiprocessing.connection import wait  # imported by supervised runs only

        wakeups = [record.deadline for record in running.values() if record.deadline is not None]
        if len(running) < self.workers:  # a free slot: the next retry's backoff ends a wait
            wakeups += [att.ready_at for att in pending]
        timeout = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
        sentinels = [record.process.sentinel for record in running.values()]
        if sentinels:
            wait(sentinels, timeout)
        else:
            time.sleep(timeout)

    def _poll(
        self,
        pending: list[_Attempt],
        running: dict[int, _Running],
        results: dict[int, Any],
    ) -> bool:
        progressed = False
        for index, record in list(running.items()):
            process = record.process
            if process.is_alive():
                if record.deadline is not None and time.monotonic() >= record.deadline:
                    _kill_process(process)
                    del running[index]
                    progressed = True
                    self._handle_failure(
                        pending, results, record, KIND_TIMEOUT,
                        f"shard exceeded the {self.policy.shard_timeout}s "
                        "wall-clock deadline and was killed by the supervisor",
                    )
                continue
            process.join()
            del running[index]
            progressed = True
            kind, cause, result = self._classify_exit(process, record)
            if kind is None:
                results[index] = self._finish(record.attempt.job, result)
            else:
                self._handle_failure(pending, results, record, kind, cause)
        return progressed

    def _classify_exit(
        self, process: Any, record: _Running
    ) -> tuple[str | None, str, Any]:
        """Map a finished worker to (failure kind | None-on-success, cause, result)."""
        if process.exitcode == 0 and record.result_path.exists():
            result = _read_pickle(record.result_path)
            record.result_path.unlink(missing_ok=True)
            if result is not _LOAD_FAILED:
                return None, "", result
            return KIND_DIED, "worker reported success but its result file is unreadable", None
        if record.error_path.exists():
            report = _read_pickle(record.error_path)
            record.error_path.unlink(missing_ok=True)
            if isinstance(report, dict) and "traceback" in report:
                return KIND_RAISED, str(report["traceback"]), None
            return KIND_RAISED, "worker raised but its error report is unreadable", None
        exitcode = process.exitcode
        if exitcode is not None and exitcode < 0:
            cause = f"worker process was killed by signal {-exitcode}"
        else:
            cause = f"worker process exited with code {exitcode} without reporting a result"
        return KIND_DIED, cause, None

    def _handle_failure(
        self,
        pending: list[_Attempt],
        results: dict[int, Any],
        record: _Running,
        kind: str,
        cause: str,
    ) -> None:
        att = record.attempt
        job = att.job
        self._log_failure(job.index, att.attempt, kind)
        budget = self.policy.retries + 1
        if att.attempt < budget:
            ready_at = time.monotonic() + self.policy.backoff_delay(att.attempt)
            pending.append(_Attempt(job, att.attempt + 1, ready_at))
            return
        if kind == KIND_RAISED and self.policy.in_process_fallback:
            # Graceful degradation: the shard failed by raising in every
            # subprocess attempt — give it one in-process attempt so e.g. a
            # pathological multiprocessing environment cannot sink the
            # campaign.  Died/timed-out shards are excluded: pulling a shard
            # that hangs or gets OOM-killed in-process would take the
            # supervisor down with it.
            results[job.index] = self._run_in_process(
                job, first_attempt=att.attempt + 1, backoff=False
            )
            return
        raise ShardError(job.index, job.start, job.stop, att.attempt, kind, cause)

    def _finish(self, job: Any, result: Any) -> Any:
        if self.finalize is not None:
            return self.finalize(job, result)
        return result

    def _log_failure(self, index: int, attempt: int, kind: str) -> None:
        self.attempt_log.setdefault(index, []).append({"attempt": attempt, "kind": kind})
