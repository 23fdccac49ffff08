"""Content-addressed store for executed sweep grid points.

Layout of a store directory::

    store/
      <run_id>/              # one committed grid point
        point.json           # schema_version, run_id, spec doc, summary, files
        point_state.pkl      # picklable task state + evaluation context
        <record files...>    # the campaign's streamed CSV/JSON outputs
      <run_id>.wip/          # a point currently executing (atomically renamed
                             # to <run_id>/ on commit; leftovers are harmless)
      golden/                # golden-pass spill files shared by every point of
                             # every sweep on this store; a pure cache, safe to
                             # delete at any time (entries are recomputed)

The run ID is content-addressed: a short digest over the point's *canonical*
spec document (everything that affects the numbers — model, dataset,
scenario, protection, task, options; **not** execution knobs like worker
count or retry policy) together with the model identity (its
fingerprint).  Equal run ID ⟹ bit-identical campaign, so a lookup hit is
always safe to reuse and a committed point directory is never rewritten
(its bytes and mtimes stay untouched across re-runs).

Crash safety follows the repo-wide idiom: all execution happens in a
``<run_id>.wip`` directory; ``point.json`` is the commit marker, written
last via an fsync'd atomic replace, behind the data of every file it names,
before the directory itself is renamed into place.  A corrupt, truncated or digest-mismatched point directory is
*demoted to pending* — :meth:`CampaignStore.lookup` returns ``None`` and the
next run recomputes and atomically replaces it.  The committed directories
are the store's only record of progress: a sweep asks :meth:`lookup` for
each of its points, so any sweep on the store reuses any point another one
committed.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.alficore.digests import SHORT_DIGEST_LENGTH, config_digest
from repro.alficore.resilience import (
    atomic_replace_json,
    atomic_write_pickle,
    commit_directory,
    fsync_directory,
    fsync_files,
)
from repro.nn import functional as F

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.result import CampaignResult
    from repro.experiments.spec import ExperimentSpec

POINT_SCHEMA_VERSION = 1


class StoreError(RuntimeError):
    """Raised for unusable campaign-store directories or handles."""


def canonical_spec_document(spec: "ExperimentSpec") -> dict:
    """The result-determining subset of a spec, as a plain document.

    Two specs with equal canonical documents (and equal model weights)
    produce bit-identical campaigns.  Fields that change *how* a campaign
    runs but not *what* it computes (name, backend, caching, execution,
    output_dir, sweep — the ones not declared ``canonical``) are dropped, so
    e.g. ``--workers 4`` still reuses the points a serial run committed.
    """
    document = spec.as_dict()
    return {
        declared.name: document[declared.name]
        for declared in dataclasses.fields(spec)
        if declared.metadata["canonical"]
    }


def point_run_id(canonical_document: dict, weights_fingerprint: str) -> str:
    """Content-addressed run ID of one grid point.

    The kernel generation is part of the address: a point computed by other
    ``repro.nn.functional`` kernels is another point.
    """
    return config_digest(
        {
            "spec": canonical_document,
            "weights": weights_fingerprint,
            "kernels": F.KERNEL_GENERATION,
        }
    )[:SHORT_DIGEST_LENGTH]


@dataclass
class StoredPoint:
    """Read handle on one committed grid point.

    ``document`` is the verified ``point.json`` body; ``path`` the committed
    point directory.  :meth:`load_result` rebuilds a full
    :class:`~repro.experiments.result.CampaignResult` lazily from the
    persisted task state — nothing heavy is loaded until asked for.
    """

    run_id: str
    path: Path
    document: dict = field(default_factory=dict)

    @property
    def summary(self) -> dict:
        """The point's persisted KPI summary (parsed lazily from disk)."""
        return dict(self.document.get("summary") or {})

    @property
    def overrides(self) -> dict:
        """The axis-path → value assignment that produced this point."""
        return dict(self.document.get("overrides") or {})

    @property
    def output_files(self) -> dict[str, str]:
        """Absolute paths of the point's record files, keyed by tag."""
        return {
            tag: str(self.path / name)
            for tag, name in (self.document.get("files") or {}).items()
        }

    def load_result(self) -> "CampaignResult":
        """Rebuild the point's :class:`CampaignResult` from the store.

        The persisted aggregate task state is unpickled and re-evaluated
        through the task plug-in, so the handle behaves exactly like the one
        :func:`repro.experiments.run` returned when the point first ran.
        """
        from repro.experiments.registry import TASKS
        from repro.experiments.result import CampaignResult
        from repro.experiments.spec import ExperimentSpec

        state_path = self.path / "point_state.pkl"
        try:
            with open(state_path, "rb") as handle:
                payload = pickle.load(handle)
            state = payload["state"]
            context = dict(payload["context"])
        except Exception as error:
            raise StoreError(
                f"point {self.run_id} has no readable state ({state_path}): {error}"
            ) from error
        plugin = TASKS.get(self.document["task"])
        evaluated, extras = plugin.evaluate(state, context)
        return CampaignResult(
            spec=ExperimentSpec.from_dict(self.document["spec"]),
            task=self.document["task"],
            summary=self.summary,
            output_files=self.output_files,
            state=state,
            results=evaluated,
            extras=extras,
            context=context,
        )


class CampaignStore:
    """Directory of committed grid points, addressed by run ID."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def point_dir(self, run_id: str) -> Path:
        """Directory of one stored grid point (keyed by its content digest)."""
        return self.root / run_id

    def wip_dir(self, run_id: str) -> Path:
        """Scratch directory a point writes into before its atomic publish."""
        return self.root / f"{run_id}.wip"

    def golden_dir(self) -> Path:
        """Spill directory of the golden cache the store's sweeps share.

        Not a point (it holds no ``point.json``, so :meth:`lookup` and
        :meth:`completed_run_ids` pass over it), and deleting it only costs
        recomputation.
        """
        return self.root / "golden"

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def lookup(self, run_id: str) -> StoredPoint | None:
        """The committed point for ``run_id``, or ``None`` if it must run.

        Any defect — missing directory, unreadable/torn ``point.json``,
        wrong schema, a run ID that no longer matches the stored canonical
        document (tampering), or a missing record file — demotes the point
        to pending rather than raising: the sweep simply recomputes it.
        The lookup is read-only; a hit leaves the directory's bytes and
        mtimes untouched.
        """
        path = self.point_dir(run_id)
        marker = path / "point.json"
        try:
            with open(marker, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        if document.get("schema_version") != POINT_SCHEMA_VERSION:
            return None
        if document.get("run_id") != run_id:
            return None
        try:
            derived = point_run_id(
                document["canonical_spec"], document["weights_fingerprint"]
            )
        except (KeyError, TypeError):
            return None
        if derived != run_id:
            return None  # stored inputs no longer hash to this address
        files = document.get("files") or {}
        if not isinstance(files, dict):
            return None
        for name in files.values():
            if not (path / str(name)).is_file():
                return None
        if not (path / "point_state.pkl").is_file():
            return None
        return StoredPoint(run_id=run_id, path=path, document=document)

    def completed_run_ids(self) -> list[str]:
        """Run IDs of every verifiably committed point in the store."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and not entry.name.endswith(".wip"):
                if self.lookup(entry.name) is not None:
                    found.append(entry.name)
        return found

    # ------------------------------------------------------------------ #
    # execution lifecycle
    # ------------------------------------------------------------------ #
    def begin(self, run_id: str, resume: bool = False) -> Path:
        """Open (and return) the work-in-progress directory for a point.

        Without ``resume`` any leftover ``.wip`` directory from a crashed
        run is discarded so the campaign starts clean; with ``resume`` it is
        kept so a sharded campaign merges the shard directories committed in
        it instead of re-running them.
        """
        wip = self.wip_dir(run_id)
        if not resume and wip.exists():
            shutil.rmtree(wip)
        wip.mkdir(parents=True, exist_ok=True)
        return wip

    def commit(
        self,
        run_id: str,
        result: "CampaignResult",
        *,
        canonical_spec: dict,
        weights_fingerprint: str,
        overrides: dict,
    ) -> StoredPoint:
        """Promote the point's ``.wip`` directory to its committed address.

        Persists the task state, makes the data of every file of the point
        durable, then writes ``point.json`` (the commit marker) with an
        fsync'd atomic replace, then renames the directory into place — a
        crash or power loss at any step leaves either the old committed
        point or a demoted-to-pending leftover, never a half-valid point.
        A point of N files costs N + 3 fsyncs: the N files,
        ``point_state.pkl``, ``point.json`` and the ``.wip`` directory (the
        entries of all of them).  The rename is durable once :meth:`sync`
        ran (one more fsync, of the store root), which a caller runs once
        after committing a group of points; lost, it costs a recomputation,
        never a wrong point.
        """
        wip = self.wip_dir(run_id)
        if not wip.is_dir():
            raise StoreError(f"no work-in-progress directory for point {run_id}")
        atomic_write_pickle(
            wip / "point_state.pkl",
            {"state": result.state, "context": dict(result.context)},
        )
        files = {}
        for tag, file_path in result.output_files.items():
            file_path = Path(file_path)
            try:
                name = file_path.relative_to(wip)
            except ValueError:
                # A file outside the wip dir (pre-existing artifact) is
                # copied in so the committed point is self-contained.
                name = Path(file_path.name)
                shutil.copy2(file_path, wip / name)
            files[tag] = str(name)
        fsync_files(wip, files.values())
        summary = dict(result.summary)
        if "output_files" in summary:
            # The campaign ran in the .wip directory; after the rename those
            # paths are stale.  Record the committed-relative names instead.
            summary["output_files"] = dict(files)
        document = {
            "schema_version": POINT_SCHEMA_VERSION,
            "run_id": run_id,
            "task": result.task,
            "canonical_spec": canonical_spec,
            "weights_fingerprint": weights_fingerprint,
            "spec": result.spec.as_dict(),
            "overrides": _json_plain(overrides),
            "summary": _json_plain(summary),
            "files": files,
        }
        atomic_replace_json(wip / "point.json", document)
        commit_directory(wip, self.point_dir(run_id), sync_parent=False)
        point = self.lookup(run_id)
        if point is None:  # pragma: no cover - defensive
            raise StoreError(f"point {run_id} failed post-commit verification")
        return point

    def sync(self) -> None:
        """Make the renames of the points committed so far durable."""
        fsync_directory(self.root)

    def discard(self, run_id: str) -> None:
        """Drop a point's work-in-progress directory (failed execution)."""
        wip = self.wip_dir(run_id)
        if wip.exists():
            shutil.rmtree(wip)


def _json_plain(value: Any) -> Any:
    """Round-trip through JSON so in-memory and store-loaded values format
    identically (tuples become lists, numpy scalars become numbers, ...)."""
    return json.loads(json.dumps(value, sort_keys=True, default=_coerce))


def _coerce(value: Any) -> Any:
    item = getattr(value, "item", None)
    if callable(item):
        return item()  # numpy scalar
    return str(value)
