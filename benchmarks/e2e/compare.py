"""``python -m benchmarks.e2e compare A.json B.json``: did B regress against A?

Per workload and end-to-end metric it prints both medians, by how much of A's
median B is worse, the bound and a verdict:

* ``unresolved`` when the run-to-run quartile spread of either side exceeds
  the bound and the two sides' samples are not strictly separated;
* ``regressed`` / ``improved`` when B's median is worse / better than A's by
  more than the bound;
* ``ok`` otherwise.

The exit code is 1 on any ``regressed`` or on a higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from .harness import END_TO_END


def spread(samples: list[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[float, str]:
    """``(change, verdict)``; ``change`` is B's median relative to A's, positive = worse."""
    change = statistics.median(b) / statistics.median(a) - 1
    if better == "higher":
        change = -change
    separated = max(a) < min(b) or max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not separated:
        return change, "unresolved"
    if change > bound:
        return change, "regressed"
    if change < -bound:
        return change, "improved"
    return change, "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """Print the comparison table; return the exit code."""
    a = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    b = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    failed = False
    print(
        f"{'workload':22s} {'metric':18s} {'A':>12s} {'B':>12s} {'unit':6s}"
        f" {'worse by':>9s} {'bound':>6s}  verdict"
    )
    for workload in a:
        if workload not in b:
            print(f"{workload:22s} missing from {path_b}")
            failed = True
            continue
        for metric, (unit, better, bound) in END_TO_END.items():
            left = a[workload]["end_to_end"][metric]
            right = b[workload]["end_to_end"][metric]
            change, word = verdict(left["samples"], right["samples"], better, bound)
            failed |= word == "regressed"
            print(
                f"{workload:22s} {metric:18s} {left['value']:12.4f} {right['value']:12.4f}"
                f" {unit:6s} {change:+9.1%} {bound:6.0%}  {word}"
            )
        left, right = a[workload]["failed_share"], b[workload]["failed_share"]
        failed |= right > left
        print(
            f"{workload:22s} {'failed_share':18s} {left:12.4f} {right:12.4f} {'ratio':6s}"
            f" {'':9s} {'any':>6s}  {'regressed' if right > left else 'ok'}"
        )
    return 1 if failed else 0
