"""Orchestrates one workload: start the phase processes, verify, summarise.

Load shape: closed loop, one campaign at a time, one driver process per
phase.  BLAS is pinned to one thread before numpy is imported (threading on
these batch-1 matrices halves throughput and adds noise); only
``det_weights_sharded`` starts workers.  The oracle runs once per workload and
seed through the naive path; every repeat's result files must be sha256-equal
to the oracle's, which also makes the repeats agree with each other.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .spans import UNITS
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = HERE / "out"
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# End-to-end metric -> (unit, better, regression bound as a share of the parent's median).
# failed_share is reported beside them; any increase is a regression.  The time bounds
# are wide because the reference box is a shared 2-core VM: across ten runs the quartile
# spread of a time metric was 3-6 % in quiet periods and 7-20 % when the host was busy.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "inferences_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}


def _phase(
    phase: str,
    workload: str,
    seed: int,
    scale: float,
    scratch: Path,
    deadline: float | None,
    **options,
) -> dict:
    """Run one phase process to its end (or to the ``time.monotonic()``
    ``deadline``) and return the document it printed."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--phase", phase, "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--scratch", str(scratch / phase), "--spawned-at", repr(time.time()),
    ]  # fmt: skip
    for option, value in options.items():
        command += [f"--{option.replace('_', '-')}", str(value)]
    # Own session, so that a timeout also reaches the shard workers.
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, **THREAD_PIN},
        start_new_session=True,
    )
    timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload}: phase {phase} ran past the time limit") from None
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: phase {phase} exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def summarise(samples: list[float], unit: str) -> dict:
    """Median with min, max, quartiles and the sample count.

    With the handful of repeats a run holds no percentile has ten samples
    beyond it, so none is reported.
    """
    summary = {
        "value": statistics.median(samples),
        "unit": unit,
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
        "samples": samples,
    }
    if len(samples) >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(samples, n=4)
    return summary


def failed_ops(repeat: dict, reference: dict, ops: int) -> int:
    """Ops of ``repeat`` that failed: all of them if any result file differs
    from the oracle's, else the records missing from the corrupted stream."""
    if not reference["digests"] or repeat["digests"] != reference["digests"]:
        return ops
    return max(0, ops - repeat["records"])


def run_workload(
    name: str,
    seed: int,
    *,
    scale: float = 1.0,
    seconds: float = 0.0,
    min_repeats: int = 5,
    measure: bool = True,
    trace: bool = True,
    out: Path = DEFAULT_OUT,
    keep_spans: bool = False,
    time_limit: float | None = None,
) -> dict:
    """Measure and/or trace workload ``name`` and verify it against the oracle.

    Measuring takes at least ``min_repeats`` timed repeats and goes on while
    another one fits into ``seconds``; tracing gets the same ``seconds``.
    Returns the workload's report: sizes, ``attempted``/``failed`` ops,
    ``failed_share``, ``oracle_s``, and the ``end_to_end`` and/or
    ``per_layer`` metrics.  With a ``time_limit`` (seconds) a phase still
    running when it is spent is killed, workers included, and the run fails.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    workload = WORKLOADS[name]
    images = workload.sized(scale)
    ops = workload.ops(images)
    out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"scratch-{name}-", dir=out))
    report: dict = {"images": images, "ops": ops, "seed": seed, "scale": scale}
    try:
        repeats = []
        if measure:
            # One fresh process per timed repeat, until the repeats fill ``seconds``.
            measured: list[dict] = []
            walls: list[float] = []
            while len(walls) < min_repeats or sum(walls) + statistics.median(walls) <= seconds:
                measured.append(_phase("measure", name, seed, scale, scratch, deadline))
                walls.append(measured[-1]["repeat"]["wall_s"])
            repeats += [process["repeat"] for process in measured]
            report["end_to_end"] = {
                "wall_s": summarise(walls, "s"),
                "inferences_per_s": summarise([ops / wall for wall in walls], "1/s"),
                "cpu_s": summarise([repeat["cpu_s"] for repeat in repeats], "s"),
                "peak_rss_mb": summarise([p["peak_rss_mb"] for p in measured], "MiB"),
                "setup_s": summarise([p["setup_s"] for p in measured], "s"),
            }
        reference = _phase("oracle", name, seed, scale, scratch, deadline)
        report["oracle_s"] = reference["wall_s"]
        if trace:
            options = {"spans": out / f"{name}.spans.jsonl"} if keep_spans else {}
            traced = _phase(
                "trace", name, seed, scale, scratch, deadline, seconds=seconds, **options
            )
            repeats += traced["repeats"]
            report["per_layer"] = {
                key: {"value": traced["per_layer"][key], "unit": unit}
                for key, unit in UNITS.items()
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["attempted"] = ops * len(repeats)
    report["failed"] = sum(failed_ops(repeat, reference, ops) for repeat in repeats)
    report["failed_share"] = report["failed"] / report["attempted"]
    return report
