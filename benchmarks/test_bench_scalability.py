"""Experiment ``scale`` — large-scale campaign efficiency (Sections I and IV).

The paper's motivation for PyTorchALFI is *validation efficiency*: campaigns
over many fault locations must be cheap to define, reproducible, and must not
pay a reconfiguration penalty per inference.  This benchmark quantifies the
mechanisms that provide that efficiency on this reproduction:

* fault pre-generation throughput (faults/second) for campaigns of growing
  size — the cost is paid once, before the inference run;
* the per-inference overhead of obtaining the next faulty model from the
  iterator versus re-building a wrapper from scratch for every image (the
  naive baseline the pre-generated fault matrix replaces);
* fault file reuse: storing and reloading a fault matrix is orders of
  magnitude cheaper than regenerating and guarantees identical faults.
"""

import pytest

from benchmarks.conftest import report
from repro.alficore import FaultMatrix, FaultMatrixGenerator, default_scenario, ptfiwrap
from repro.models import vgg16
from repro.pytorchfi import FaultInjection
from repro.visualization import comparison_table


@pytest.fixture(scope="module")
def profiled_vgg():
    model = vgg16(num_classes=10, seed=0).eval()
    return model, FaultInjection(model, input_shape=(3, 32, 32))


def test_scale_fault_pregeneration_throughput(benchmark, profiled_vgg):
    """The batched bit-flip draw must produce >200k faults/s on VGG-16.

    (The seed's per-column generator, frozen as the test oracle
    ``tests/oracles/faultmatrix_v0.py``, recorded ~80k faults/s on this
    benchmark; the one batched ``rng.integers`` call is bit-identical to it
    per seed and targets >=20x that.)
    """
    _, fi = profiled_vgg
    scenario = default_scenario(
        dataset_size=10_000, num_runs=10, injection_target="weights", random_seed=7
    )
    generator = FaultMatrixGenerator(fi, scenario)

    matrix = benchmark.pedantic(
        lambda: generator.generate(100_000), rounds=3, iterations=1, warmup_rounds=1
    )
    assert matrix.num_faults == 100_000

    elapsed = benchmark.stats.stats.mean
    throughput = matrix.num_faults / elapsed
    assert throughput > 200_000
    report(
        "scale_pregeneration",
        comparison_table(
            [
                {
                    "faults": matrix.num_faults,
                    "seconds": elapsed,
                    "faults/s": throughput,
                    "bytes/fault": matrix.matrix.nbytes / matrix.num_faults,
                }
            ],
            ["faults", "seconds", "faults/s", "bytes/fault"],
            title="Large-scale campaign: one-off fault pre-generation cost (VGG-16, weight faults)",
        ),
    )


def test_scale_iterator_vs_naive_reconfiguration(benchmark, profiled_vgg):
    """The clone-free session iterator must beat the clone-per-group iterator

    (the seed implementation of Listing 1) by >=5x and the naive per-image
    re-wrap by a wide margin."""
    model, _ = profiled_vgg
    images = 20
    scenario = default_scenario(
        dataset_size=images, injection_target="weights", random_seed=8, batch_size=1
    )

    def session_path():
        # The campaign engine: faults patched in place, restored bit-exactly.
        wrapper = ptfiwrap(model, scenario=scenario)
        groups = 0
        for group in wrapper.get_fault_group_iter():
            with group:
                groups += 1
        return groups

    def clone_path():
        # The seed iterator: one full model deep copy per fault group.
        wrapper = ptfiwrap(model, scenario=scenario)
        fault_iter = wrapper.get_fimodel_iter()
        return [next(fault_iter) for _ in range(images)]

    def naive_path():
        # The anti-pattern PyTorchALFI avoids: full reconfiguration per image.
        corrupted = []
        for index in range(images):
            wrapper = ptfiwrap(model, scenario=scenario.copy(random_seed=1000 + index))
            corrupted.append(next(wrapper.get_fimodel_iter()))
        return corrupted

    groups = benchmark.pedantic(session_path, rounds=1, iterations=1)
    assert groups == images
    session_seconds = benchmark.stats.stats.mean

    import time

    start = time.perf_counter()
    clone_models = clone_path()
    clone_seconds = time.perf_counter() - start
    assert len(clone_models) == images

    start = time.perf_counter()
    naive_models = naive_path()
    naive_seconds = time.perf_counter() - start
    assert len(naive_models) == images

    speedup_vs_clone = clone_seconds / session_seconds
    speedup_vs_naive = naive_seconds / session_seconds
    assert speedup_vs_clone > 5  # acceptance: >=5x over the seed iterator path
    assert speedup_vs_naive > 1.5
    report(
        "scale_iterator_vs_naive",
        comparison_table(
            [
                {
                    "strategy": "ptfiwrap patch-session iterator (clone-free)",
                    "seconds for 20 faulty models": session_seconds,
                },
                {
                    "strategy": "ptfiwrap clone-per-group iterator (seed path)",
                    "seconds for 20 faulty models": clone_seconds,
                },
                {
                    "strategy": "naive re-wrap per image",
                    "seconds for 20 faulty models": naive_seconds,
                },
                {"strategy": "speedup vs clone-per-group", "seconds for 20 faulty models": speedup_vs_clone},
                {"strategy": "speedup vs naive re-wrap", "seconds for 20 faulty models": speedup_vs_naive},
            ],
            ["strategy", "seconds for 20 faulty models"],
            title="Large-scale campaign: clone-free sessions vs clone-per-group vs per-image reconfiguration (VGG-16)",
        ),
    )


def test_scale_fault_file_reuse(benchmark, profiled_vgg, tmp_path):
    """Reloading a stored fault file is cheap and bit-identical to the original."""
    _, fi = profiled_vgg
    scenario = default_scenario(dataset_size=5_000, injection_target="weights", random_seed=9)
    matrix = FaultMatrixGenerator(fi, scenario).generate()
    path = matrix.save(tmp_path / "campaign_faults.npz")

    loaded = benchmark(lambda: FaultMatrix.load(path))
    assert loaded == matrix

    regeneration_cost = None
    import time

    start = time.perf_counter()
    FaultMatrixGenerator(fi, scenario).generate()
    regeneration_cost = time.perf_counter() - start
    reload_cost = benchmark.stats.stats.mean
    assert reload_cost < regeneration_cost
    report(
        "scale_fault_file_reuse",
        comparison_table(
            [
                {"operation": "regenerate 5000 faults", "seconds": regeneration_cost},
                {"operation": "reload stored fault file", "seconds": reload_cost},
                {"operation": "speedup", "seconds": regeneration_cost / reload_cost},
            ],
            ["operation", "seconds"],
            title="Fault persistence: reuse of stored fault sets across experiments",
        ),
    )
