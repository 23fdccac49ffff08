"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark reproduces one table, figure or described test goal of the
paper (see DESIGN.md for the experiment index).  The campaigns are scaled to
synthetic datasets so the whole harness runs in minutes on a laptop, but the
parameters (fault model, bit ranges, injection policy, KPIs) match the paper.

Each benchmark both *times* the campaign (pytest-benchmark) and *reports* the
reproduced rows/series: the tables are always printed, and with
``REPRO_BENCH_RECORD=1`` also written to ``benchmarks/results/<experiment>.txt``
(and ``BENCH_campaign.json``) so they can be compared against the values
quoted in EXPERIMENTS.md.  Without the variable the benchmarks still run —
tier-1 collects them as correctness smoke — but leave the tracked result
files, and with them ``git status``, untouched.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path

import pytest

from repro.data import CocoLikeDetectionDataset, SyntheticClassificationDataset
from repro.experiments import Artifacts, Experiment, run
from repro.models import alexnet, resnet50, vgg16
from repro.models.pretrained import fit_classifier_head

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_campaign.json"

# Quick mode (set REPRO_BENCH_QUICK=1): smaller campaigns for CI smoke jobs.
BENCH_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

# Record mode (set REPRO_BENCH_RECORD=1): persist tables and timings under
# benchmarks/results/.  Off by default so a test run leaves the tree clean.
BENCH_RECORD = os.environ.get("REPRO_BENCH_RECORD", "") not in ("", "0")

# Campaign sizes: large enough for stable rates, small enough for minutes.
CLASSIFICATION_IMAGES = 40
DETECTION_IMAGES = 15
NUM_CLASSES = 10
DET_CLASSES = 5


def run_campaign(
    task: str,
    model,
    dataset,
    scenario,
    *,
    resil_model=None,
    model_name: str | None = None,
    fault_file: str = "",
    num_faults: int | None = None,
    inj_policy: str | None = None,
    num_runs: int | None = None,
    input_shape: tuple[int, ...] | None = None,
    dl_shuffle: bool = False,
    output_dir=None,
    workers: int = 1,
    num_shards: int | None = None,
    prefix_reuse: bool = True,
    writer=None,
    error_model=None,
    golden_cache=None,
    num_classes: int | None = None,
    **task_options,
):
    """Run one campaign on in-memory objects: ``run(spec, Artifacts(...))``.

    The helper tests and benchmarks share.  ``model_name`` / ``fault_file`` /
    ``num_faults`` / ``inj_policy`` / ``num_runs`` (the paper's
    ``test_rand_*_SBFs_inj`` arguments) override the scenario when given;
    any sharding request selects the sharded backend; model and dataset in
    the spec are placeholders for the objects handed over as artifacts.
    Extra keywords are ``task_options`` (``collect_outputs=False`` for a
    streaming run).  Returns the :class:`~repro.experiments.CampaignResult`.
    """
    overrides = {
        "model_name": model_name,
        "fault_file": fault_file or None,
        "max_faults_per_image": num_faults,
        "inj_policy": inj_policy,
        "num_runs": num_runs,
    }
    scenario = scenario.copy(
        **{key: value for key, value in overrides.items() if value is not None}
    )
    sharded = workers > 1 or (num_shards or 1) > 1
    spec = (
        Experiment.builder()
        .name(scenario.model_name)
        .task(task)
        .model(scenario.model_name)
        .dataset("in-memory")
        .scenario(scenario)
        .backend("sharded" if sharded else "serial", workers, num_shards)
        .caching(prefix_reuse=prefix_reuse)
        .input_shape(*(input_shape or ()))
        .shuffle(dl_shuffle)
        .output_dir(output_dir)
        .options(**task_options)
        .build()
    )
    return run(
        spec,
        Artifacts(
            model=model.eval(),
            resil_model=resil_model.eval() if resil_model is not None else None,
            dataset=dataset,
            writer=writer,
            error_model=error_model,
            golden_cache=golden_cache,
            num_classes=num_classes,
        ),
    )


# A classification campaign that keeps aggregate counters only.
run_streaming = functools.partial(run_campaign, "classification", collect_outputs=False)


def streaming_kpis(result):
    """What a streaming campaign reports besides its file paths."""
    return result.summary["corrupted"], result.state


def report(experiment_id: str, text: str) -> None:
    """Print a reproduced table/series; in record mode persist it under benchmarks/results/."""
    banner = f"\n=== {experiment_id} ===\n{text}\n"
    print(banner)
    if BENCH_RECORD:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{experiment_id}.txt").write_text(text + "\n")


def record_benchmark(
    name: str,
    wall_time: float | None = None,
    throughput: float | None = None,
    speedup_vs_reference: float | None = None,
    **extra,
) -> None:
    """Append/update one machine-readable entry in ``BENCH_campaign.json``.

    The free-form ``.txt`` tables are for humans; this file tracks the perf
    trajectory (wall-time, throughput, speedup vs the reference strategy)
    across PRs so regressions are diffable.  A no-op outside record mode.
    """
    if not BENCH_RECORD:
        return
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    entries: list[dict] = []
    if BENCH_JSON.exists():
        try:
            loaded = json.loads(BENCH_JSON.read_text())
        except (ValueError, OSError):
            loaded = []
        if isinstance(loaded, list):
            # Drop malformed (e.g. hand-edited) entries instead of tripping
            # over them on every later benchmark run.
            entries = [item for item in loaded if isinstance(item, dict) and "name" in item]
    entry = next((item for item in entries if item["name"] == name), None)
    if entry is None:
        entry = {"name": name}
        entries.append(entry)
    if wall_time is not None:
        entry["wall_time"] = wall_time
    if throughput is not None:
        entry["throughput"] = throughput
    if speedup_vs_reference is not None:
        entry["speedup_vs_reference"] = speedup_vs_reference
    entry.update(extra)
    entries.sort(key=lambda item: item["name"])
    BENCH_JSON.write_text(json.dumps(entries, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _bench_json_autorecord(request):
    """Record wall-time of every ``test_bench_*`` entry that timed something.

    Entries that also report throughput/speedup call :func:`record_benchmark`
    themselves; this fixture merges into the same JSON entry by test name.
    """
    yield
    bench = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(bench, "stats", None)
    if stats is not None:
        record_benchmark(request.node.name, wall_time=stats.stats.mean)


@pytest.fixture(scope="session")
def classification_dataset() -> SyntheticClassificationDataset:
    """Shared synthetic classification dataset (ImageNet stand-in)."""
    return SyntheticClassificationDataset(
        num_samples=CLASSIFICATION_IMAGES, num_classes=NUM_CLASSES, noise=0.25, seed=11
    )


@pytest.fixture(scope="session")
def detection_dataset() -> CocoLikeDetectionDataset:
    """Shared synthetic CoCo-style detection dataset."""
    return CocoLikeDetectionDataset(
        num_samples=DETECTION_IMAGES, num_classes=DET_CLASSES, seed=13
    )


@pytest.fixture(scope="session")
def fitted_classifiers(classification_dataset):
    """The three classification models of Fig. 2a with fitted heads."""
    models = {}
    for name, factory in (("alexnet", alexnet), ("vgg16", vgg16), ("resnet50", resnet50)):
        model = factory(num_classes=NUM_CLASSES, seed=3)
        fit_classifier_head(model, classification_dataset, NUM_CLASSES)
        models[name] = model
    return models
