"""Experiment ``scale_fused_ops`` — fused segment execution vs the interpreter.

PR 10 turned the flat segment chain of :class:`~repro.nn.forward_plan.
ForwardPlan` into a per-segment op graph: elementwise runs collapse into
single in-place chains inside a liveness-planned arena, and conv+bias+relu
triples execute as one kernel (see ``docs/ir.md``).  This benchmark tracks
that replacement on the elementwise-heavy :func:`~repro.models.elemnet`
reference model:

* end-to-end full-model forward under the unfused interpreter executor vs
  the fused executor — both absolute times are recorded, and acceptance
  requires that fusing is not slower (a wall-clock claim, judged by the
  ``timing``-marked test, which tier-1 deselects).  The two executors share the
  ``repro.nn.functional`` kernels, so their *ratio* falls whenever a shared
  kernel gets cheaper (the tap-loop pooling and single-buffer batch-norm
  kernels took it from 1.4x to ~1.2x while making both sides faster: 29.7
  vs 21.2 ms became 14.9 vs 12.7 ms); a ratio floor above 1 would punish
  exactly that, so none is asserted;
* per-region rows (segment ranges grouped by submodule: stem, towers,
  mixing convs, head) comparing both executors over identical activations;
* the bit-exactness contract: fused outputs must be byte-identical to the
  interpreter for the full pass and for every ``resume(k)`` suffix entry;
* the memory contract: the fused executor's fresh allocations per pass plus
  its arena footprint stay below the interpreter's per-pass allocations
  (O(peak) vs O(sum), asserted precisely in ``tests/test_nn_fuse.py``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_QUICK, record_benchmark, report
from repro.models import elemnet
from repro.nn.forward_plan import ForwardPlan
from repro.visualization import comparison_table

BATCH = 4 if BENCH_QUICK else 8
ROUNDS = 5 if BENCH_QUICK else 15


def _input(batch: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)


def _regions(plan: ForwardPlan) -> list[tuple[str, int, int]]:
    """Contiguous segment ranges grouped by top-level submodule name."""
    regions: list[tuple[str, int, int]] = []
    for index, name in enumerate(plan.segment_names):
        top = name.split(".", 1)[0]
        if regions and regions[-1][0] == top:
            regions[-1] = (top, regions[-1][1], index + 1)
        else:
            regions.append((top, index, index + 1))
    return regions


def _time_range(plan: ForwardPlan, start: int, stop: int, act: np.ndarray, rounds: int) -> float:
    executor = plan._executor
    executor.run_range(start, stop, act)  # warm: build programs, grow arena
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        executor.run_range(start, stop, act)
        best = min(best, time.perf_counter() - t0)
    return best


def _plans() -> tuple[np.ndarray, ForwardPlan, ForwardPlan]:
    """The input batch and elemnet's plans under the interpreter and the fused executor."""
    model = elemnet().eval()
    x = _input(BATCH)
    interp = ForwardPlan.trace(model, x, executor="interpreter")
    fused = ForwardPlan.trace(model, x, executor="fused")
    return x, interp, fused


def _best_forward(plan: ForwardPlan, x: np.ndarray) -> float:
    """Best-of-``ROUNDS`` seconds of a full forward through ``plan``."""
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        plan.resume(0, x)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.timing
def test_fused_beats_interpreter_elemnet():
    """The fused executor is not slower than the interpreter end to end on elemnet.

    A wall-clock claim, so host load can fail it: tier-1 deselects the
    ``timing`` marker, and CI's bench job runs it.
    """
    x, interp, fused = _plans()
    interp.resume(0, x)  # warm
    fused.resume(0, x)
    interp_seconds, fused_seconds = _best_forward(interp, x), _best_forward(fused, x)
    if interp_seconds <= fused_seconds:
        # Shield against transient load: one re-measurement of both paths
        # (best-of-N each) before judging.
        interp_seconds = min(interp_seconds, _best_forward(interp, x))
        fused_seconds = min(fused_seconds, _best_forward(fused, x))
    assert interp_seconds > fused_seconds, (
        f"fused executor is slower than the interpreter end-to-end on elemnet: "
        f"fused {fused_seconds * 1e3:.2f} ms vs interpreter {interp_seconds * 1e3:.2f} ms"
    )


def test_fused_vs_interpreter_elemnet(benchmark):
    """Fused executor is byte-identical to the interpreter on elemnet; the times are reported.

    :func:`test_fused_beats_interpreter_elemnet` judges the end-to-end ratio.
    """
    x, interp, fused = _plans()
    assert interp.valid and interp.executor_name == "interpreter"
    assert fused.valid and fused.executor_name == "fused"
    num_segments = len(interp.segments)

    # Bit-exactness contract: full pass and every suffix entry byte-identical.
    assert fused.resume(0, x).tobytes() == interp.resume(0, x).tobytes()
    boundaries = list(range(num_segments)) if not BENCH_QUICK else [0, 1, num_segments // 2]
    for k in boundaries:
        a_k = interp.run_prefix(x, k)
        assert fused.resume(k, a_k).tobytes() == interp.resume(k, a_k).tobytes(), (
            f"fused suffix resume({k}) diverged from the interpreter"
        )

    def fused_forward():
        return fused.resume(0, x)

    benchmark.pedantic(fused_forward, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    fused_seconds = benchmark.stats.stats.min

    interp.resume(0, x)  # warm
    interp_seconds = _best_forward(interp, x)
    speedup = interp_seconds / fused_seconds

    # Per-region rows: identical boundary activations, both executors.
    rows = []
    for top, start, stop in _regions(interp):
        a_start = interp.run_prefix(x, start)
        t_interp = _time_range(interp, start, stop, a_start, ROUNDS)
        t_fused = _time_range(fused, start, stop, a_start, ROUNDS)
        rows.append(
            {
                "region": f"{top} [{start}:{stop})",
                "interpreter ms": t_interp * 1e3,
                "fused ms": t_fused * 1e3,
                "speedup": t_interp / t_fused,
            }
        )
    rows.append(
        {
            "region": "end-to-end",
            "interpreter ms": interp_seconds * 1e3,
            "fused ms": fused_seconds * 1e3,
            "speedup": speedup,
        }
    )
    record_benchmark(
        "scale_fused_ops_end_to_end",
        wall_time=fused_seconds,
        throughput=BATCH / fused_seconds,
        speedup_vs_reference=speedup,
        reference_wall_time=interp_seconds,
    )
    for row in rows[:-1]:
        record_benchmark(
            f"scale_fused_ops_region_{row['region'].split(' ')[0]}",
            wall_time=row["fused ms"] / 1e3,
            speedup_vs_reference=row["speedup"],
        )
    report(
        "scale_fused_ops",
        comparison_table(
            rows,
            ["region", "interpreter ms", "fused ms", "speedup"],
            title=(
                f"Fused vs interpreter executor: elemnet, batch {BATCH}, "
                f"{num_segments} segments; outputs byte-identical"
            ),
        ),
    )
