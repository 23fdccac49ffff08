"""Span recorders installed from outside, and the per-layer metrics they yield.

``TARGETS`` lists every public callable the benchmark wraps, by dotted path.
``install`` resolves all of them first and fails with the missing name if one
no longer exists, so a rename in ``src/`` breaks the benchmark loudly instead
of reporting zeros.  A wrapper is applied by attribute replacement (on the
defining module or class, and on every ``repro`` module that imported the
function by name) and records one span ``(name, start, end, parent, note)``
per call into an in-memory list.  Forked shard workers inherit the wrappers;
each worker appends its spans to ``spans-<pid>-<ns>.jsonl`` whenever one of its
root spans closes, because worker processes leave through ``os._exit``.

A layer's self time is its span's duration minus the part its child spans
cover, so the self times of one process add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

ALL = frozenset(
    {"cls_weights_cached", "cls_neurons_batched", "det_weights_sharded", "sweep_bitpos_grid"}
)
CLASSIFIERS = ALL - {"det_weights_sharded"}
CWC, DWS, SBG = (
    frozenset({"cls_weights_cached"}),
    frozenset({"det_weights_sharded"}),
    frozenset({"sweep_bitpos_grid"}),
)


def _is_hit(args: tuple, result: Any) -> bool:
    return result is not None


def _cache_bytes(args: tuple, result: Any) -> int:
    return args[0].nbytes


def _suffix(args: tuple, result: Any) -> tuple[int, int]:
    plan, start = args[0], args[1]
    return plan.num_segments - start, plan.num_segments


def _failed_attempts(args: tuple, result: Any) -> tuple[int, int]:
    supervisor = args[0]
    return len(supervisor.jobs), sum(len(log) for log in supervisor.attempt_log.values())


# (span name, dotted path, note taken after the call or None).
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("spec.load", "repro.experiments.spec.load_spec", None),
    ("runner.build", "repro.experiments.runner.run", None),
    ("models.fit_head", "repro.models.pretrained.fit_classifier_head", None),
    ("wrapper.init", "repro.alficore.wrapper.ptfiwrap.__init__", None),
    ("session.patch", "repro.pytorchfi.core.WeightPatchSession.__enter__", None),
    ("session.patch", "repro.pytorchfi.core.WeightPatchSession.__exit__", None),
    ("session.patch", "repro.pytorchfi.core.NeuronFaultGroup.__enter__", None),
    ("session.patch", "repro.pytorchfi.core.NeuronFaultGroup.__exit__", None),
    (
        "faultmatrix.generate",
        "repro.alficore.faultmatrix.FaultMatrixGenerator.generate",
        lambda args, result: result.num_faults,
    ),
    ("plan.trace", "repro.nn.forward_plan.ForwardPlan.trace", None),
    ("plan.golden_pass", "repro.nn.forward_plan.ForwardPlan.run_recording", None),
    ("plan.resume", "repro.nn.forward_plan.ForwardPlan.resume", _suffix),
    ("plan.run_prefix", "repro.nn.forward_plan.ForwardPlan.run_prefix", None),
    ("core.run", "repro.alficore.campaign.CampaignCore.run", None),
    ("task.infer", "repro.alficore.campaign.CampaignTask.infer", None),
    ("task.consume", "repro.alficore.campaign.ClassificationTask.consume", None),
    ("task.consume", "repro.alficore.campaign.DetectionTask.consume", None),
    ("exec.segment", "repro.nn.ir.ModuleExecutor.run_segment", None),
    ("exec.segment", "repro.nn.ir.InterpreterExecutor.run_segment", None),
    ("exec.segment", "repro.nn.fuse.FusedExecutor.run_segment", None),
    ("kernel.conv2d", "repro.nn.functional.conv2d", None),
    ("kernel.im2col", "repro.nn.functional.im2col", None),
    ("kernel.pool2d", "repro.nn.functional.max_pool2d", None),
    ("kernel.pool2d", "repro.nn.functional.avg_pool2d", None),
    ("kernel.pool2d", "repro.nn.functional.adaptive_avg_pool2d", None),
    ("kernel.batch_norm2d", "repro.nn.functional.batch_norm2d", None),
    ("kernel.linear", "repro.nn.functional.linear", None),
    ("kernel.elementwise", "repro.nn.functional.relu", None),
    ("kernel.elementwise", "repro.nn.functional.leaky_relu", None),
    ("kernel.elementwise", "repro.nn.functional.sigmoid", None),
    ("kernel.elementwise", "repro.nn.functional.tanh", None),
    ("cache.get", "repro.alficore.goldencache.GoldenCache.get", _is_hit),
    ("cache.put", "repro.alficore.goldencache.GoldenCache.put", _cache_bytes),
    ("cache.put", "repro.alficore.goldencache.GoldenCache.add_boundary", _cache_bytes),
    ("stream.write", "repro.alficore.results.CsvRecordStream.write", None),
    ("stream.write", "repro.alficore.results.JsonArrayStream.write", None),
    ("results.merge", "repro.alficore.results.merge_csv_files", None),
    ("results.merge", "repro.alficore.results.merge_json_array_files", None),
    ("outputs.write", "repro.experiments.tasks.ExperimentTask.write_outputs", None),
    ("eval.evaluate", "repro.experiments.tasks.ClassificationExperimentTask.evaluate", None),
    ("eval.evaluate", "repro.experiments.tasks.DetectionExperimentTask.evaluate", None),
    ("supervisor.run", "repro.alficore.campaign.ShardedCampaignExecutor.run", None),
    ("supervisor.run", "repro.alficore.resilience.ShardSupervisor.run", _failed_attempts),
    ("sweep.expand", "repro.experiments.sweep.expand", None),
    ("sweep.resolve", "repro.experiments.sweep.SweepPlan.resolve", None),
    ("sweep.overhead", "repro.experiments.sweep.run_sweep", None),
    ("sweep.table", "repro.experiments.sweep.SweepResult.write_table", None),
    ("store.begin", "repro.experiments.campaigns.store.CampaignStore.begin", None),
    ("store.commit", "repro.experiments.campaigns.store.CampaignStore.commit", None),
    ("store.lookup", "repro.experiments.campaigns.store.CampaignStore.lookup", _is_hit),
]

# Workloads on which each span name must be recorded at least once
# (``trace.unhit`` counts the misses).  plan.run_prefix is required nowhere: it
# only runs when a cache hit lacks the boundary a fault group needs.
EXPECTED: dict[str, frozenset[str]] = {
    "spec.load": ALL,
    "runner.build": ALL,
    "models.fit_head": CLASSIFIERS,
    "wrapper.init": ALL,
    "session.patch": ALL,
    "faultmatrix.generate": ALL,
    "plan.trace": CLASSIFIERS,
    "plan.golden_pass": CLASSIFIERS,
    "plan.resume": CWC | SBG,
    "core.run": ALL,
    "task.infer": frozenset({"cls_neurons_batched"}) | DWS,
    "task.consume": ALL,
    "exec.segment": CLASSIFIERS,
    "kernel.conv2d": ALL,
    "kernel.im2col": ALL,
    "kernel.pool2d": ALL,
    "kernel.batch_norm2d": ALL - CWC - SBG,
    "kernel.linear": CLASSIFIERS,
    "kernel.elementwise": ALL,
    "cache.get": CWC,
    "cache.put": CWC,
    "stream.write": ALL,
    "results.merge": DWS,
    "outputs.write": ALL,
    "eval.evaluate": ALL,
    "supervisor.run": DWS,
    "sweep.expand": SBG,
    "sweep.resolve": SBG,
    "sweep.overhead": SBG,
    "sweep.table": SBG,
    "store.begin": SBG,
    "store.commit": SBG,
    "store.lookup": SBG,
}

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
UNITS: dict[str, str] = {
    "spec.load_ms": "ms",
    "runner.build_ms": "ms",
    "models.fit_head_ms": "ms",
    "wrapper.init_ms": "ms",
    "session.patch_ms": "ms",
    "session.groups": "count",
    "faultmatrix.generate_ms": "ms",
    "faultmatrix.faults": "count",
    "plan.trace_ms": "ms",
    "plan.trace.calls": "count",
    "plan.golden_pass_ms": "ms",
    "plan.golden_pass.calls": "count",
    "plan.resume_ms": "ms",
    "plan.resume.calls": "count",
    "plan.suffix_share": "ratio",
    "plan.run_prefix_ms": "ms",
    "core.run_ms": "ms",
    "task.infer_ms": "ms",
    "task.infer.calls": "count",
    "task.consume_ms": "ms",
    "exec.segment_ms": "ms",
    "exec.segments": "count",
    "exec.full_pass_ms.module": "ms",
    "exec.full_pass_ms.interpreter": "ms",
    "exec.full_pass_ms.fused": "ms",
    "exec.fallback": "count",
    "kernel.conv2d_ms": "ms",
    "kernel.conv2d.calls": "count",
    "kernel.im2col_ms": "ms",
    "kernel.im2col.calls": "count",
    "kernel.pool2d_ms": "ms",
    "kernel.pool2d.calls": "count",
    "kernel.batch_norm2d_ms": "ms",
    "kernel.batch_norm2d.calls": "count",
    "kernel.linear_ms": "ms",
    "kernel.linear.calls": "count",
    "kernel.elementwise_ms": "ms",
    "kernel.elementwise.calls": "count",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.peak_mb": "MiB",
    "monitor.scan_ms_per_pass": "ms",
    "stream.write_ms": "ms",
    "stream.records": "count",
    "stream.mb": "MiB",
    "results.merge_ms": "ms",
    "outputs.write_ms": "ms",
    "eval.evaluate_ms": "ms",
    "supervisor.run_ms": "ms",
    "supervisor.attempts": "count",
    "supervisor.retries": "count",
    "shard.run_ms.max": "ms",
    "shard.run_ms.sum": "ms",
    "shard.imbalance": "ratio",
    "sweep.expand_ms": "ms",
    "sweep.resolve_ms": "ms",
    "sweep.overhead_ms": "ms",
    "sweep.table_ms": "ms",
    "store.begin_ms": "ms",
    "store.commit_ms": "ms",
    "store.commits": "count",
    "store.lookup_ms": "ms",
    "store.lookup_hits": "count",
    "sweep.warm_rerun_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unhit": "count",
}

Span = tuple  # (name, start, end, parent index or None, note)


class Recorder:
    """In-memory span list of one process; see the module docstring."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[Span | None] = []
        self.current: int | None = None
        self._flushed = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, function: Callable, note: Callable | None) -> Callable:
        """``function`` recording one span named ``name`` per call."""
        clock = time.perf_counter
        getpid = os.getpid

        def traced(*args, **kwargs):
            if getpid() != self.pid:
                self._enter_worker()
            spans = self.spans
            index = len(spans)
            spans.append(None)  # reserved, so that children index after it
            parent, self.current = self.current, index
            raised = True
            start = clock()
            try:
                result = function(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                self.current = parent
                taken = note(args, result) if note is not None and not raised else None
                spans[index] = (name, start, end, parent, taken)
                if parent is None and self.pid != self.main_pid:
                    self._flush_worker()

        return functools.wraps(function)(traced)

    def _enter_worker(self) -> None:
        # First wrapped call after a fork: drop the parent's inherited spans.
        self.pid = os.getpid()
        self.spans = []
        self.current = None
        self._flushed = 0
        # The time keeps a reused pid from appending to an earlier worker's file.
        self._worker_file = self.worker_dir / f"spans-{self.pid}-{time.time_ns()}.jsonl"

    def _flush_worker(self) -> None:
        base = self._flushed
        with open(self._worker_file, "a", encoding="utf-8") as handle:
            for name, start, end, parent, note in self.spans:
                handle.write(
                    json.dumps([name, start, end, None if parent is None else parent + base, note])
                    + "\n"
                )
        self._flushed += len(self.spans)
        self.spans = []

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every target; raise ``LookupError`` naming a missing one."""
        resolved = [(name, *_resolve(path), note) for name, path, note in TARGETS]
        for name, owner, attribute, note in resolved:
            raw = owner.__dict__[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(self.wrap(name, raw.__func__, note))
            else:
                replacement = self.wrap(name, raw, note)
            self._replace(owner, attribute, replacement)
            if not isinstance(owner, type):
                # ``from module import function`` made copies of the binding.
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, alias, replacement)

    def _replace(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        """Put every original attribute back."""
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []

    # ------------------------------------------------------------------ #
    # collection
    # ------------------------------------------------------------------ #
    def take(self) -> list[list[Span]]:
        """Spans recorded since the last call: this process first, then one
        list per worker file (which is deleted)."""
        processes = [self.spans]
        self.spans, self.current = [], None
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                processes.append([tuple(json.loads(line)) for line in handle])
            path.unlink()
        return processes


def _resolve(path: str) -> tuple[Any, str]:
    """``(owner, attribute)`` of a dotted path: module.function or module.Class.method."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            if parts[-1] not in vars(owner):
                raise AttributeError(parts[-1])
        except AttributeError:
            break
        return owner, parts[-1]
    raise LookupError(f"traced target {path} no longer exists; update benchmarks/e2e/spans.py")


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def _self_times(spans: list[Span]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _inside(spans: list[Span], ancestor: str) -> list[bool]:
    """Whether each span has an ancestor named ``ancestor`` (parents come first)."""
    inside = [False] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            inside[index] = inside[parent] or spans[parent][0] == ancestor
    return inside


def derive(processes: list[list[Span]], workload: str) -> dict[str, float]:
    """Per-layer metrics of one traced run (main process first, then workers).

    Every key of ``UNITS`` is present; the ones a run's spans cannot give
    (probes, warm re-run, overhead) stay 0 for the caller to fill.
    """
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    campaign_calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    for spans in processes:
        validating = _inside(spans, "plan.trace")
        for (name, _, _, _, note), own, replay in zip(spans, _self_times(spans), validating):
            self_ms[name] = self_ms.get(name, 0.0) + own * 1e3
            calls[name] = calls.get(name, 0) + 1
            if not replay:
                # plan.trace replays resume(0, x) to validate a plan; that is not campaign work.
                campaign_calls[name] = campaign_calls.get(name, 0) + 1
                if note is not None:
                    notes.setdefault(name, []).append(note)
    metrics: dict[str, float] = dict.fromkeys(UNITS, 0.0)
    for name, value in self_ms.items():
        metrics[f"{name}_ms"] = value
    for key in UNITS:
        if key.endswith(".calls"):
            metrics[key] = calls.get(key[: -len(".calls")], 0)
    metrics["plan.golden_pass.calls"] = campaign_calls.get("plan.golden_pass", 0)
    metrics["plan.resume.calls"] = campaign_calls.get("plan.resume", 0)
    suffixes = notes.get("plan.resume", [])
    if suffixes:
        metrics["plan.suffix_share"] = sum(ran for ran, _ in suffixes) / sum(
            total for _, total in suffixes
        )
    metrics["session.groups"] = calls.get("session.patch", 0) // 2  # enter + exit
    metrics["faultmatrix.faults"] = sum(notes.get("faultmatrix.generate", []))
    metrics["exec.segments"] = calls.get("exec.segment", 0)
    lookups = notes.get("cache.get", [])
    metrics["cache.hits"] = sum(lookups)
    metrics["cache.misses"] = len(lookups) - sum(lookups)
    if lookups:
        metrics["cache.hit_ratio"] = sum(lookups) / len(lookups)
    metrics["cache.peak_mb"] = max(notes.get("cache.put", [0])) / 2**20
    metrics["stream.records"] = calls.get("stream.write", 0)
    metrics["store.commits"] = calls.get("store.commit", 0)
    supervised = notes.get("supervisor.run", [])
    metrics["supervisor.retries"] = sum(failed for _, failed in supervised)
    metrics["supervisor.attempts"] = sum(jobs + failed for jobs, failed in supervised)
    shards = [
        (end - start) * 1e3
        for spans in processes[1:]
        for name, start, end, _, _ in spans
        if name == "core.run"
    ]
    if shards:
        metrics["shard.run_ms.max"] = max(shards)
        metrics["shard.run_ms.sum"] = sum(shards)
        metrics["shard.imbalance"] = max(shards) / statistics.mean(shards)
    metrics["trace.unhit"] = sum(
        1 for name, where in EXPECTED.items() if workload in where and name not in calls
    )
    return metrics


def warm_lookup_hits(processes: list[list[Span]]) -> int:
    """Store lookups that returned a committed point."""
    return sum(
        1 for spans in processes for name, _, _, _, note in spans if name == "store.lookup" and note
    )


def write_spans(processes: list[list[Span]], path: Path) -> None:
    """One JSON line per span: ``[process, name, start, end, parent, note]``."""
    with open(path, "w", encoding="utf-8") as handle:
        for process, spans in enumerate(processes):
            for span in spans:
                handle.write(json.dumps([process, *span]) + "\n")
