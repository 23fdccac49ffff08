"""What one child process of the benchmark does: set up, then measure, check or trace.

Each phase runs in its own process (``run.py --phase ...``, started by
``harness.py``) so that set-up time and peak memory belong to one phase, and
the trace wrappers never touch a measured run.  A phase prints one JSON
document as its last line of standard output.

The timed region of a repeat is ``load_spec(path)`` to ``run(spec)`` (or
``run_sweep(spec)``) returning: the program receives only the generated spec
file.  Every repeat gets a fresh work directory, with ``HOME``,
``XDG_CACHE_HOME`` and ``TMPDIR`` pointed into it, so no on-disk state carries
from one repeat to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from typing import Any

import numpy as np

import repro.experiments as experiments
from repro.alficore.monitoring import InferenceMonitor
from repro.nn.forward_plan import ForwardPlan

from . import spans
from .workloads import WORKLOADS, materialise

STREAM_TAGS = ("golden_csv", "corrupted_csv", "golden_json", "corrupted_json", "applied_faults")


# --------------------------------------------------------------------------- #
# one campaign
# --------------------------------------------------------------------------- #
def _isolate(workdir: Path) -> None:
    for variable in ("HOME", "XDG_CACHE_HOME", "TMPDIR"):
        directory = workdir / variable.lower()
        directory.mkdir(parents=True, exist_ok=True)
        os.environ[variable] = str(directory)
    tempfile.tempdir = None  # forget the cached TMPDIR


def _cpu_seconds() -> float:
    """User+system CPU of this process and its waited-for children (os.times
    counts the same, in coarser ticks)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def output_files(result: Any) -> dict[str, Path]:
    """``{tag: path}`` of every result file except ``meta``.

    The meta file records the execution knobs, which the oracle changes on
    purpose.  Sweep points are keyed by grid index, next to the KPI table.
    """
    if isinstance(result, experiments.SweepResult):
        files = dict(result.table_files)
        for outcome in result.outcomes:
            for tag, path in outcome.stored.output_files.items():
                files[f"p{outcome.point.index:03d}.{tag}"] = path
    else:
        files = dict(result.output_files)
    return {tag: Path(path) for tag, path in files.items() if tag.split(".")[-1] != "meta"}


def _count_records(files: dict[str, Path]) -> int:
    """Records that reached the ``corrupted`` stream(s)."""
    records = 0
    for tag, path in files.items():
        if not tag.split(".")[-1].startswith("corrupted"):
            continue
        if path.suffix == ".csv":
            with open(path, "rb") as handle:
                records += sum(1 for _ in handle) - 1  # header
        else:
            records += len(json.loads(path.read_text(encoding="utf-8")))
    return records


def digest_files(files: dict[str, Path]) -> dict[str, str]:
    """sha256 of every file, by tag."""
    return {tag: hashlib.sha256(path.read_bytes()).hexdigest() for tag, path in files.items()}


def run_once(name: str, images: int, seed: int, workdir: Path, oracle: bool = False):
    """Run one campaign (or sweep) of workload ``name`` in ``workdir``.

    Returns ``(repeat, result)``: ``repeat`` holds the timings, the number of
    records that reached the corrupted stream and the sha256 of every output
    file; ``result`` is what the program returned (``None`` if it raised, in
    which case the repeat has no records and no digests, so all its ops fail).
    """
    _isolate(workdir)
    path = materialise(name, images, seed, workdir, oracle)
    result = None
    cpu = _cpu_seconds()
    start = time.perf_counter()
    try:
        spec = experiments.load_spec(path)
        result = experiments.run_sweep(spec) if spec.sweep is not None else experiments.run(spec)
    except Exception:
        traceback.print_exc()
    wall = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu
    files = output_files(result) if result is not None else {}
    repeat = {
        "wall_s": wall,
        "cpu_s": cpu_s,
        "records": _count_records(files),
        "digests": digest_files(files),
    }
    return repeat, result


def _repeat(args: argparse.Namespace, images: int, label: str):
    workdir = Path(args.scratch) / label
    repeat, result = run_once(args.workload, images, args.seed, workdir)
    return repeat, result, workdir


def _until_budget(seconds: float):
    """Repeat indices: one, then more until ``seconds`` are spent."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        yield index
        index += 1


# --------------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------------- #
def set_up(args: argparse.Namespace) -> float:
    """Warm-up at a tenth of the size; returns ``setup_s``: process start to
    here, so the interpreter start and ``import repro`` are in it."""
    workload = WORKLOADS[args.workload]
    _, _, workdir = _repeat(args, workload.sized(args.scale / 10), "warmup")
    shutil.rmtree(workdir)
    return time.time() - args.spawned_at


def measure(args: argparse.Namespace) -> dict:
    """Set up, then one timed repeat with tracing off.

    One repeat per process: the program's speed differs from process to
    process by more than from repeat to repeat within one, so the harness
    takes its samples from fresh processes, which is also how a user runs
    ``pytorchalfi run``.
    """
    setup_s = set_up(args)
    repeat, _, workdir = _repeat(args, WORKLOADS[args.workload].sized(args.scale), "repeat")
    shutil.rmtree(workdir)
    # ru_maxrss is KiB on Linux: this process plus its largest waited-for child.
    peak = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return {"setup_s": setup_s, "peak_rss_mb": peak / 1024, "repeat": repeat}


def oracle(args: argparse.Namespace) -> dict:
    """One run through the naive path: no prefix reuse, no cache, module executor, serial."""
    images = WORKLOADS[args.workload].sized(args.scale)
    workdir = Path(args.scratch) / "oracle"
    repeat, _ = run_once(args.workload, images, args.seed, workdir, oracle=True)
    return repeat


def traced(args: argparse.Namespace) -> dict:
    """Set up, then pairs of one untraced and one traced repeat, then the probes.

    The untraced repeat of a pair is the base of ``trace.overhead_share``; a
    time metric is the median over the traced repeats, and counts are the
    same in every one.
    """
    set_up(args)
    images = WORKLOADS[args.workload].sized(args.scale)
    spans_dir = Path(args.scratch) / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(spans_dir)
    repeats, samples = [], []
    for index in _until_budget(args.seconds):
        untraced, _, workdir = _repeat(args, images, f"untraced-{index}")
        shutil.rmtree(workdir)
        recorder.install()
        try:
            repeat, result, workdir = _repeat(args, images, f"traced-{index}")
            processes = recorder.take()
            metrics = spans.derive(processes, args.workload)
            if isinstance(result, experiments.SweepResult):
                # Read side of the store: the same sweep again, every point a hit.
                start = time.perf_counter()
                experiments.run_sweep(experiments.load_spec(workdir / "spec.yml"))
                metrics["sweep.warm_rerun_ms"] = (time.perf_counter() - start) * 1e3
                metrics["store.lookup_hits"] = spans.warm_lookup_hits(recorder.take())
        finally:
            recorder.uninstall()
        metrics["trace.overhead_share"] = repeat["wall_s"] / untraced["wall_s"] - 1
        stream_bytes = sum(
            path.stat().st_size
            for tag, path in output_files(result).items()
            if tag.split(".")[-1] in STREAM_TAGS
        )
        metrics["stream.mb"] = stream_bytes / 2**20
        shutil.rmtree(workdir)
        repeats += [untraced, repeat]
        samples.append(metrics)
    if args.spans:
        spans.write_spans(processes, Path(args.spans))
    per_layer = {key: statistics.median(sample[key] for sample in samples) for key in spans.UNITS}
    per_layer.update(_probe(result, passes=10 if args.scale >= 1 else 1))
    return {"repeats": repeats, "per_layer": per_layer}


def _pass_ms(plan: ForwardPlan, x: np.ndarray) -> float:
    start = time.perf_counter()
    plan.resume(0, x)
    return (time.perf_counter() - start) * 1e3


def _probe(result: Any, passes: int) -> dict[str, float]:
    """Full-pass time under each executor, the silent executor fallback, and
    what the monitor's NaN/Inf scan adds to a pass, on the workload's model and batch."""
    if isinstance(result, experiments.SweepResult):
        spec = result.plan.base
        model, dataset = result.plan.artifacts[0]
    else:
        spec, model, dataset = result.spec, result.core.model, result.core.dataset
    x = np.stack(
        [np.asarray(dataset[i][0], dtype=np.float32) for i in range(spec.scenario.batch_size)]
    )
    metrics = {}
    for executor in ("module", "interpreter", "fused"):
        plan = ForwardPlan.trace(model, x, executor=executor)
        metrics[f"exec.full_pass_ms.{executor}"] = statistics.median(
            _pass_ms(plan, x) for _ in range(passes)
        )
    requested = spec.execution.executor
    plan = ForwardPlan.trace(model, x, executor=requested)
    metrics["exec.fallback"] = int(plan.executor_name != requested)
    # The campaign keeps its monitor attached and flips ``enabled``; alternating
    # the two states pass by pass keeps drift out of the difference.
    scans = []
    with InferenceMonitor(model) as monitor:
        for _ in range(passes):
            monitor.enabled = False
            idle = _pass_ms(plan, x)
            monitor.enabled = True
            scans.append(_pass_ms(plan, x) - idle)
            monitor.reset()
    metrics["monitor.scan_ms_per_pass"] = statistics.median(scans)
    return metrics


PHASES = {"measure": measure, "oracle": oracle, "trace": traced}


def main(argv: list[str]) -> None:
    """Entry point of a phase process."""
    parser = argparse.ArgumentParser(prog="run.py --phase")
    parser.add_argument("--phase", choices=sorted(PHASES), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    # NaN logits from exponent flips are the campaigns' subject, not a defect.
    warnings.simplefilter("ignore", RuntimeWarning)
    print(json.dumps(PHASES[args.phase](args)), flush=True)
