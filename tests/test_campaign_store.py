"""Unit tests for the content-addressed campaign store layer.

Covers the commit/lookup lifecycle, the demote-to-pending semantics for
every flavor of defective point directory and the read-only skip guarantee
(bytes + mtimes untouched).
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import (
    Artifacts,
    CampaignStore,
    Experiment,
    StoreError,
    run_sweep,
)
from repro.experiments.campaigns.store import canonical_spec_document, point_run_id


def sweep_builder(images=6, axes=None):
    return (
        Experiment.builder()
        .name("store-test")
        .model("lenet5", num_classes=10, seed=0)
        .dataset(
            "synthetic-classification",
            num_samples=images, num_classes=10, noise=0.25, seed=1,
        )
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30),
            random_seed=3, model_name="lenet5", dataset_size=images,
        )
        .sweep(axes=axes or {"scenario.layer_range": [[0, 0]]})
    )


@pytest.fixture(scope="module")
def committed_store(tmp_path_factory):
    """One executed single-point sweep, shared by the read-only tests."""
    store = CampaignStore(tmp_path_factory.mktemp("campaigns") / "store")
    result = run_sweep(sweep_builder().build(), store=store)
    assert result.executed == 1
    return store, result.outcomes[0].run_id


def _snapshot(directory: Path) -> dict[str, tuple[int, bytes]]:
    return {
        str(path.relative_to(directory)): (path.stat().st_mtime_ns, path.read_bytes())
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestLookup:
    def test_hit_returns_point_with_summary_and_files(self, committed_store):
        store, run_id = committed_store
        point = store.lookup(run_id)
        assert point is not None
        assert point.run_id == run_id
        assert "corrupted" in point.summary
        for path in point.output_files.values():
            assert Path(path).is_file()

    def test_missing_point_is_none(self, committed_store):
        store, _ = committed_store
        assert store.lookup("0" * 16) is None

    def test_completed_run_ids_lists_committed_points(self, committed_store):
        store, run_id = committed_store
        assert store.completed_run_ids() == [run_id]

    def test_lookup_is_read_only(self, committed_store):
        store, run_id = committed_store
        before = _snapshot(store.point_dir(run_id))
        assert store.lookup(run_id) is not None
        assert _snapshot(store.point_dir(run_id)) == before


class TestDemoteToPending:
    """Every defective point directory reads as 'not committed'."""

    @pytest.fixture()
    def store(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        result = run_sweep(sweep_builder().build(), store=store)
        return store, result.outcomes[0].run_id

    def test_truncated_point_json(self, store):
        store, run_id = store
        marker = store.point_dir(run_id) / "point.json"
        marker.write_text(marker.read_text()[: len(marker.read_text()) // 2])
        assert store.lookup(run_id) is None

    def test_digest_mismatch_forces_recompute(self, store):
        store, run_id = store
        marker = store.point_dir(run_id) / "point.json"
        document = json.loads(marker.read_text())
        # Tamper with the result-determining content but keep the address.
        document["canonical_spec"]["scenario"]["random_seed"] += 1
        marker.write_text(json.dumps(document))
        assert store.lookup(run_id) is None
        result = run_sweep(sweep_builder().build(), store=store)
        assert result.executed == 1  # recomputed, not served from the store

    def test_wrong_schema_version(self, store):
        store, run_id = store
        marker = store.point_dir(run_id) / "point.json"
        document = json.loads(marker.read_text())
        document["schema_version"] = 999
        marker.write_text(json.dumps(document))
        assert store.lookup(run_id) is None

    def test_missing_record_file(self, store):
        store, run_id = store
        point = store.lookup(run_id)
        os.unlink(next(iter(point.output_files.values())))
        assert store.lookup(run_id) is None

    def test_missing_state_pickle(self, store):
        store, run_id = store
        os.unlink(store.point_dir(run_id) / "point_state.pkl")
        assert store.lookup(run_id) is None

    def test_corrupt_state_pickle_fails_lazy_load_loudly(self, store):
        store, run_id = store
        (store.point_dir(run_id) / "point_state.pkl").write_bytes(b"not a pickle")
        point = store.lookup(run_id)  # the commit marker itself is intact
        assert point is not None
        with pytest.raises(StoreError, match="no readable state"):
            point.load_result()

    def test_demoted_point_is_recomputed_on_rerun(self, store):
        store, run_id = store
        (store.point_dir(run_id) / "point.json").write_text("{}")
        result = run_sweep(sweep_builder().build(), store=store)
        assert result.executed == 1
        assert store.lookup(run_id) is not None


class TestSkipSemantics:
    def test_rerun_executes_zero_points_and_touches_nothing(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        spec = sweep_builder(axes={"scenario.layer_range": [[0, 0], [1, 1]]}).build()
        first = run_sweep(spec, store=store)
        assert (first.executed, first.cached) == (2, 0)
        snapshots = {
            outcome.run_id: _snapshot(store.point_dir(outcome.run_id))
            for outcome in first.outcomes
        }
        second = run_sweep(spec, store=store)
        assert (second.executed, second.cached) == (0, 2)
        for outcome in second.outcomes:
            assert _snapshot(store.point_dir(outcome.run_id)) == snapshots[outcome.run_id]

    def test_different_weights_do_not_share_points(self, tmp_path):
        from repro.models import lenet5

        store = CampaignStore(tmp_path / "store")
        spec = sweep_builder().build()
        dataset_params = spec.dataset.params
        from repro.experiments import DATASETS

        dataset = DATASETS.get(spec.dataset.name)(**dataset_params)
        first = run_sweep(
            spec, Artifacts(model=lenet5(num_classes=10, seed=0).eval(), dataset=dataset),
            store=store,
        )
        second = run_sweep(
            spec, Artifacts(model=lenet5(num_classes=10, seed=7).eval(), dataset=dataset),
            store=store,
        )
        assert first.outcomes[0].run_id != second.outcomes[0].run_id
        assert second.executed == 1  # different fingerprint, no false hit


class TestRunIdAddressing:
    def test_execution_knobs_do_not_change_the_address(self):
        spec = sweep_builder().build()
        document = canonical_spec_document(spec)
        assert "backend" not in document
        assert "execution" not in document
        assert "caching" not in document
        assert "output_dir" not in document
        assert "name" not in document
        workers4 = spec.copy()
        workers4.backend.workers = 4
        workers4.backend.name = "sharded"
        assert canonical_spec_document(workers4) == document

    def test_run_id_is_short_digest(self):
        spec = sweep_builder().build()
        run_id = point_run_id(canonical_spec_document(spec), "f" * 16)
        assert len(run_id) == 16
        assert run_id != point_run_id(canonical_spec_document(spec), "0" * 16)

