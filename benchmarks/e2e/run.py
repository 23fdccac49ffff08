"""The command ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures (``--trace 0``: the end-to-end metrics) or traces (``--trace 1``: the
per-layer metrics) one workload, verifies every repeat against the naive
oracle and prints one JSON object as the last line of standard output.  It
exits non-zero, without a result, when the program under ``src/`` is missing
or a phase process fails.  ``--phase`` is the harness's own child entry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # This directory must not shadow top-level modules; the package is imported from the root.
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    if "--phase" in argv:
        # BLAS is pinned before numpy is imported, also when a phase is started by hand.
        from benchmarks.e2e.harness import THREAD_PIN

        os.environ.update(THREAD_PIN)
        from benchmarks.e2e.phases import main as phase_main

        phase_main(argv)
        return 0
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run_workload(
        args.workload,
        args.seed,
        seconds=args.seconds,
        min_repeats=3,
        measure=not args.trace,
        trace=bool(args.trace),
        time_limit=170.0,  # the driver allows 180 s
    )
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0  # the verdict is the result line's "correct"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
