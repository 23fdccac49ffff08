"""``python -m benchmarks.e2e``: run the benchmark by hand, or compare two runs.

    python -m benchmarks.e2e [--workload NAME]... [--seed N] [--repeats N] [--smoke] [--out DIR]
    python -m benchmarks.e2e compare A.json B.json

A run measures and traces every chosen workload, verifies each repeat against
the naive oracle, prints every metric by name with its unit, writes
``run-<utc>-<commit>.json`` plus one line of ``history.jsonl`` under ``--out``
and exits non-zero on any verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from .compare import compare
from .harness import DEFAULT_OUT, END_TO_END, ROOT, THREAD_PIN, run_workload
from .workloads import WORKLOADS


def _git(*arguments: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *arguments], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint() -> dict:
    """What a number depends on besides the code: CPU, cores, Python, numpy, BLAS, thread pin."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_PIN,
    }


def _print_report(name: str, report: dict) -> None:
    print(
        f"== {name}: {report['images']} images, {report['ops']} ops per repeat,"
        f" seed {report['seed']}"
    )
    for metric, stats in report["end_to_end"].items():
        quartiles = f" q1={stats['q1']:.4f} q3={stats['q3']:.4f}" if "q1" in stats else ""
        print(
            f"  {metric:34s} {stats['value']:12.4f} {stats['unit']:6s}"
            f" n={stats['n']} min={stats['min']:.4f}{quartiles} max={stats['max']:.4f}"
        )
    print(
        f"  {'failed_share':34s} {report['failed_share']:12.4f} ratio "
        f" ops={report['attempted']} failed_ops={report['failed']}"
    )
    print(f"  {'oracle_s (information)':34s} {report['oracle_s']:12.4f} s")
    for metric, value in report["per_layer"].items():
        print(f"  {metric:34s} {value['value']:12.4f} {value['unit']}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5, help="timed repeats per workload")
    parser.add_argument(
        "--smoke", action="store_true", help="a quarter of every size, one timed repeat"
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    commit = _git("rev-parse", "--short", "HEAD") or "nogit"
    status = _git("status", "--porcelain")
    document = {
        "schema": 1,
        "utc": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "commit": commit,
        "dirty": bool(status) if status is not None else None,
        "machine": fingerprint(),
        "seed": args.seed,
        "bounds": {metric: bound for metric, (_, _, bound) in END_TO_END.items()},
        "workloads": {},
    }
    for name in args.workload or list(WORKLOADS):
        report = run_workload(
            name,
            args.seed,
            scale=0.25 if args.smoke else 1.0,
            min_repeats=1 if args.smoke else args.repeats,
            out=args.out,
            keep_spans=True,
        )
        _print_report(name, report)
        document["workloads"][name] = report
    run_file = args.out / f"run-{document['utc']}-{commit}.json"
    run_file.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    with open(args.out / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(document) + "\n")
    print(f"wrote {run_file}")
    return 1 if any(report["failed"] for report in document["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
