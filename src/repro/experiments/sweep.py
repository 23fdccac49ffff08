"""Sweep grids: declarative multi-run campaigns over one experiment spec.

A spec with a ``sweep:`` section (see
:class:`~repro.experiments.spec.SweepSpec`) describes a *family* of
campaigns: a cartesian grid over scenario/model/protection/task fields plus
optional explicit extra points.  This module turns that declaration into a
deterministic :class:`SweepPlan` of concrete child specs and runs the points
the store does not hold yet in *groups*: points that differ only in their
faults (:func:`~repro.experiments.runner.group_key`) run as one campaign
over the images through :func:`repro.experiments.run`, each step's golden
pass once for all of them, and every point's files are those a lone
:func:`repro.experiments.run` of it writes.  Every completed point is
persisted in a content-addressed
:class:`~repro.experiments.campaigns.CampaignStore` — re-running a finished
sweep recomputes **zero** points, and an interrupted sweep resumed with
``resume=True`` produces a byte-identical aggregate table.  A group that
fails commits none of its points.  Every group of a sweep shares one
:class:`~repro.alficore.goldencache.GoldenCache` (spilling to
``<store>/golden/``), so the fault-free pass of an image runs once per
sweep, not once per group.  Points that run as shards (``workers > 1``,
``resume``) and points of the naive reference path (``caching:
{prefix_reuse: false}``) run as groups of one, through the same code.

Typical use::

    spec = ExperimentSpec.load("layer_sweep.yml")     # has a sweep: section
    outcome = run_sweep(spec)                          # skip-completed
    print(outcome.format_table())                      # one row per point
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from repro.alficore.campaign.core import MAX_POINTS
from repro.alficore.digests import config_digest, model_fingerprint
from repro.alficore.goldencache import DEFAULT_BYTE_BUDGET, GoldenCache
from repro.experiments.campaigns.store import (
    CampaignStore,
    StoredPoint,
    canonical_spec_document,
    point_run_id,
)
from repro.experiments.result import CampaignResult
from repro.experiments.runner import Artifacts, group_key, run
from repro.experiments.spec import ExperimentSpec

TABLE_SCHEMA_VERSION = 1


class SweepError(RuntimeError):
    """Raised for invalid sweep declarations or unusable sweep state."""


# --------------------------------------------------------------------------- #
# grid expansion
# --------------------------------------------------------------------------- #
@dataclass
class SweepPoint:
    """One concrete grid point: axis assignment plus materialized spec."""

    index: int
    overrides: dict[str, Any]
    spec: ExperimentSpec
    run_id: str | None = None  # filled by SweepPlan.resolve()


@dataclass
class SweepPlan:
    """The deterministic expansion of one sweep declaration."""

    base: ExperimentSpec
    points: list[SweepPoint]
    axis_order: list[str]
    #: per-point (model, dataset) instances, filled by :meth:`resolve`
    artifacts: dict[int, tuple[Any, Any]] = field(default_factory=dict)
    fingerprints: dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.points)

    def resolve(self, artifacts: Artifacts | None = None) -> None:
        """Assign content-addressed run IDs to every point.

        Builds each point's model/dataset (deduplicated by configuration, so
        a scenario-only grid builds the model exactly once), takes the
        model's identity (:func:`model_fingerprint`; a model without one
        raises :class:`SweepError`), and derives ``run_id`` from the
        canonical spec document plus the identity.  With pre-built
        ``artifacts`` the supplied model/dataset are used for every point —
        only legal when no axis changes the model, dataset or task.  A point
        runs with nothing else of them, so any other artifact is refused
        rather than dropped.
        """
        from repro.experiments.registry import DATASETS, TASKS

        unsupported = [
            name
            for name in (item.name for item in fields(Artifacts))
            if name not in ("model", "dataset") and getattr(artifacts, name, None) is not None
        ]
        if unsupported:
            raise SweepError(
                f"sweep artifacts are model and dataset only; got {', '.join(unsupported)}"
            )
        supplied = artifacts is not None and (
            artifacts.model is not None or artifacts.dataset is not None
        )
        if supplied:
            component_axes = [
                path
                for point in self.points
                for path in point.overrides
                if path == "task" or path.split(".")[0] in ("model", "dataset")
            ]
            if component_axes:
                raise SweepError(
                    "pre-built model/dataset artifacts cannot be combined with "
                    f"sweep axes over {sorted(set(component_axes))}: each grid "
                    "point would need its own build"
                )
        datasets: dict[str, Any] = {}
        models: dict[str, tuple[Any, str]] = {}
        for point in self.points:
            spec = point.spec
            plugin = TASKS.get(spec.task)
            if supplied and artifacts.dataset is not None:
                dataset = artifacts.dataset
            else:
                dataset_key = config_digest(spec.dataset.as_dict())
                if dataset_key not in datasets:
                    datasets[dataset_key] = DATASETS.get(spec.dataset.name)(
                        **spec.dataset.params
                    )
                dataset = datasets[dataset_key]
            if supplied and artifacts.model is not None:
                model_key = "supplied"
                if model_key not in models:
                    models[model_key] = _identified(artifacts.model)
            else:
                model_key = config_digest(
                    {
                        "task": spec.task,
                        "model": spec.model.as_dict(),
                        "dataset": spec.dataset.as_dict(),
                    }
                )
                if model_key not in models:
                    models[model_key] = _identified(plugin.build_model(spec, dataset))
            model, fingerprint = models[model_key]
            point.run_id = point_run_id(canonical_spec_document(spec), fingerprint)
            self.artifacts[point.index] = (model, dataset)
            self.fingerprints[point.index] = fingerprint


def _identified(model: Any) -> tuple[Any, str]:
    """``model`` and its identity, which names its points' run IDs."""
    try:
        return model, model_fingerprint(model)
    except TypeError as error:
        raise SweepError(f"a sweep names its points by the model's identity: {error}") from None


def expand(spec: ExperimentSpec) -> SweepPlan:
    """Materialize a sweep declaration into concrete child specs.

    The grid is the cartesian product of the declared axes in declaration
    order (the last axis varies fastest), followed by the explicit
    ``points`` entries.  Expansion is fully deterministic: the same spec
    always yields the same points in the same order.  Each child spec is
    validated (so a grid value that breaks scenario invariants fails here,
    before anything runs), has its ``sweep`` section stripped, and is named
    ``<base>-p<index>``.
    """
    if spec.sweep is None:
        raise SweepError("spec has no sweep: section; use repro.experiments.run()")
    sweep = spec.sweep
    base = spec.copy()  # validates, the sweep section included
    base.sweep = None
    assignments: list[dict[str, Any]] = []
    if sweep.axes:
        paths = list(sweep.axes)
        for combination in itertools.product(*(sweep.axes[p] for p in paths)):
            assignments.append(dict(zip(paths, combination)))
    assignments.extend(dict(point) for point in sweep.points)
    axis_order = list(sweep.axes)
    for point in sweep.points:
        for path in point:
            if path not in axis_order:
                axis_order.append(path)
    points = []
    for index, overrides in enumerate(assignments):
        try:
            child = base.updated({**overrides, "name": f"{base.name}-p{index:03d}"})
        except (ValueError, TypeError) as error:
            raise SweepError(f"point {index} ({overrides!r}) is invalid: {error}") from error
        points.append(SweepPoint(index=index, overrides=dict(overrides), spec=child))
    return SweepPlan(base=base, points=points, axis_order=axis_order)


# --------------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------------- #
@dataclass
class SweepPointOutcome:
    """What one grid point contributed to the sweep."""

    point: SweepPoint
    run_id: str
    cached: bool
    summary: dict
    stored: StoredPoint | None = None
    _result: CampaignResult | None = None

    def load_result(self) -> CampaignResult:
        """The point's full campaign result.

        With a store it is rebuilt from the committed point directory, for
        executed and cached points alike; without one it is the in-memory
        result of the run, minus its live ``core``.
        """
        if self.stored is not None:
            return self.stored.load_result()
        if self._result is None:
            raise SweepError(f"point {self.run_id} ran without a store; no result kept")
        return self._result


def _flatten_summary(summary: dict, prefix: str = "") -> dict[str, Any]:
    """Dotted-path scalars of a nested KPI summary.

    Non-scalars are dropped, as is the ``output_files`` map — file locations
    are machine-local bookkeeping, not KPIs, and would break the table's
    byte-for-byte determinism across store locations.
    """
    flat: dict[str, Any] = {}
    for key, value in summary.items():
        if not prefix and key == "output_files":
            continue
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_summary(value, prefix=f"{path}."))
        elif isinstance(value, (int, float, str, bool)) or value is None:
            flat[path] = value
    return flat


class SweepResult:
    """Aggregate of one sweep run: per-point outcomes plus comparison table.

    ``executed`` / ``cached`` count how many points actually ran versus were
    served from the content-addressed store.  :meth:`table_rows` aggregates
    every point's KPI scalars into one comparison table (axis columns in
    declaration order, then sorted KPI columns); :meth:`write_table`
    persists it as CSV and JSON.  Per-point campaign results stay lazy —
    :meth:`SweepPointOutcome.load_result` unpickles a stored point's task
    state only on demand.  ``golden_cache_stats`` is
    :meth:`GoldenCache.stats() <repro.alficore.goldencache.GoldenCache.stats>`
    of the cache the points shared; it describes this invocation only and is
    written to no file.  It is ``None`` when the sweep ran without one, and
    when points ran as shards: each shard opens its own handle on the spill
    directory, and their counts are not collected.
    """

    def __init__(
        self,
        plan: SweepPlan,
        outcomes: list[SweepPointOutcome],
        store: CampaignStore | None,
        golden_cache_stats: dict[str, Any] | None = None,
    ) -> None:
        self.plan = plan
        self.outcomes = outcomes
        self.store = store
        self.golden_cache_stats = golden_cache_stats
        self.executed = sum(1 for outcome in outcomes if not outcome.cached)
        self.cached = sum(1 for outcome in outcomes if outcome.cached)
        self.table_files: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self.outcomes)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def table_columns(self) -> list[str]:
        """``point``, ``run_id``, the axes in declaration order, then the sorted KPI columns."""
        kpi_columns: set[str] = set()
        for outcome in self.outcomes:
            kpi_columns.update(_flatten_summary(outcome.summary))
        return ["point", "run_id", *self.plan.axis_order, *sorted(kpi_columns)]

    def table_rows(self) -> list[dict[str, Any]]:
        """One comparison row per grid point (JSON-friendly values)."""
        columns = self.table_columns()
        rows = []
        for outcome in self.outcomes:
            flat = _flatten_summary(outcome.summary)
            row: dict[str, Any] = {
                "point": outcome.point.index,
                "run_id": outcome.run_id,
            }
            for axis in self.plan.axis_order:
                row[axis] = _json_value(outcome.point.overrides.get(axis))
            for column in columns:
                if column not in row:
                    row[column] = flat.get(column)
            rows.append(row)
        return rows

    def write_table(self, directory: str | Path, name: str | None = None) -> dict[str, str]:
        """Write the comparison table as ``<name>_sweep_table.{csv,json}``.

        Output is fully deterministic (stable column order, JSON-formatted
        cells), so a resumed sweep's table is byte-identical to an
        uninterrupted run's.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        name = name or self.plan.base.name
        columns = self.table_columns()
        rows = self.table_rows()
        csv_path = directory / f"{name}_sweep_table.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(row.get(column)) for column in columns])
        json_path = directory / f"{name}_sweep_table.json"
        json_path.write_text(
            json.dumps(
                {
                    "schema_version": TABLE_SCHEMA_VERSION,
                    "name": name,
                    "columns": columns,
                    "rows": rows,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        self.table_files = {"table_csv": str(csv_path), "table_json": str(json_path)}
        return dict(self.table_files)

    def format_table(self, columns: list[str] | None = None) -> str:
        """A fixed-width text rendering of (a column subset of) the table."""
        columns = columns or self.table_columns()
        rows = self.table_rows()
        cells = [[_csv_cell(row.get(column)) for column in columns] for row in rows]
        widths = [
            max(len(column), *(len(line[i]) for line in cells)) if cells else len(column)
            for i, column in enumerate(columns)
        ]
        out = ["  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))]
        for line in cells:
            out.append("  ".join(value.ljust(widths[i]) for i, value in enumerate(line)))
        return "\n".join(out)


def _json_value(value: Any) -> Any:
    """JSON round-trip so in-memory and store-loaded values render alike."""
    return json.loads(json.dumps(value, default=str))


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _execute_group(
    specs: list[ExperimentSpec], model: Any, dataset: Any, golden_cache: GoldenCache | None
) -> list[CampaignResult]:
    """Run one group of grid points, under their :func:`_point_spec`, as one campaign."""
    return run(specs, Artifacts(model=model, dataset=dataset, golden_cache=golden_cache))


def _groups(
    pending: list[tuple[SweepPoint, ExperimentSpec]],
) -> list[list[tuple[SweepPoint, ExperimentSpec]]]:
    """The pending points, each with its child spec, cut into the groups that run as one.

    Points of one :func:`~repro.experiments.runner.group_key` form groups,
    in grid order, of at most :data:`~repro.alficore.campaign.core.MAX_POINTS`
    points.  A point that runs as shards, or on the naive reference path, is
    a group of one.
    """
    groups: list[list[tuple[SweepPoint, ExperimentSpec]]] = []
    filling: dict[str, list[tuple[SweepPoint, ExperimentSpec]]] = {}
    for point, child in pending:
        if _runs_as_shards(child) or not child.caching.prefix_reuse:
            groups.append([(point, child)])
            continue
        key = group_key(child)
        group = filling.get(key)
        if group is None or len(group) >= MAX_POINTS:
            group = filling[key] = []
            groups.append(group)
        group.append((point, child))
    return groups


def _point_spec(
    point: SweepPoint, output_dir: Path | None, workers: int | None, resume: bool
) -> ExperimentSpec:
    """The spec one grid point runs under, with the worker/resume overrides applied.

    Worker/resume overrides touch only execution policy — never the
    canonical (run-ID-addressed) content — so a ``--workers 4`` re-run still
    reuses a serial run's committed points.  With ``resume`` the child runs
    the supervised sharded backend with ``execution.resume``, composing
    shard-level crash recovery with point-level skip.
    """
    child = point.spec.copy()
    if output_dir is not None:
        child.output_dir = output_dir
    if workers is not None and workers > 1:
        child.backend.name = "sharded"
        child.backend.workers = workers
        child.backend.step_range = None
    if resume and output_dir is not None:
        child.execution.resume = True
        if child.backend.name == "serial":
            child.backend.name = "sharded"
    child.validate()
    return child


def _runs_as_shards(spec: ExperimentSpec) -> bool:
    """Whether a campaign of ``spec`` runs as shards, each with its own golden-cache handle."""
    backend = spec.backend
    return backend.name == "sharded" and (
        spec.execution.resume or (backend.num_shards or backend.workers) > 1
    )


def _shared_golden_cache(base: ExperimentSpec, store: CampaignStore | None) -> GoldenCache | None:
    """The one golden cache every point of a sweep runs with.

    Keys hold the model identity (weights, module types and the settings a
    forward reads, such as a detector's ``score_threshold``), the custom
    monitors and the batch digest but nothing of the scenario, so points
    that share a model and dataset share golden passes and points that do
    not simply miss.  With a store the cache spills to
    :meth:`CampaignStore.golden_dir`, which is how shard worker processes,
    a resumed sweep and a later sweep on the same store reuse it; without
    one it lives in memory for this call.  ``caching.prefix_reuse: false``
    selects the naive reference path and gets no cache.
    """
    if not base.caching.prefix_reuse:
        return None
    budget_mb = base.caching.golden_cache_mb
    return GoldenCache(
        byte_budget=budget_mb * 2**20 if budget_mb > 0 else DEFAULT_BYTE_BUDGET,
        spill_dir=store.golden_dir() if store is not None else None,
    )


def run_sweep(
    spec: ExperimentSpec,
    artifacts: Artifacts | None = None,
    *,
    store: CampaignStore | str | Path | None = None,
    workers: int | None = None,
    resume: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Execute a sweep spec: expand, skip completed points, aggregate.

    Args:
        spec: an :class:`ExperimentSpec` with a ``sweep:`` section.
        artifacts: optional pre-built model/dataset shared by every point
            (only legal when no axis varies model, dataset or task); any
            other :class:`Artifacts` field raises :class:`SweepError`.
        store: campaign-store directory (or instance).  Defaults to the
            sweep's declared ``store``, then ``<output_dir>/sweep_store``;
            with neither, the sweep runs without persistence (every point
            executes, nothing can be skipped, and the shared golden cache is
            in-memory only).
        workers: override worker count for point execution (sharded backend
            when > 1); excluded from run IDs, so cached points still match.
        resume: resume an interrupted sweep — the in-flight point keeps its
            work-in-progress directory and merges the shards committed there
            instead of re-running them.  Committed points are skipped with
            or without it, whichever sweep on the store committed them.
        progress: optional callback receiving one line per point.

    Returns:
        A :class:`SweepResult`; with a store, the comparison table has also
        been written to the store root.
    """
    plan = expand(spec)
    plan.resolve(artifacts)
    emit = progress if progress is not None else (lambda line: None)
    campaign_store = resolve_store(spec, store)
    golden_cache = _shared_golden_cache(plan.base, campaign_store)
    outcomes: dict[int, SweepPointOutcome] = {}
    pending = []
    for point in plan.points:
        run_id = point.run_id
        assert run_id is not None  # plan.resolve() filled it
        stored = campaign_store.lookup(run_id) if campaign_store is not None else None
        if stored is not None:
            outcomes[point.index] = SweepPointOutcome(
                point=point, run_id=run_id, cached=True, summary=stored.summary,
                stored=stored,
            )
            emit(f"point {point.index:>3} {run_id}  cached    {point.overrides}")
            continue
        output_dir = campaign_store.wip_dir(run_id) if campaign_store is not None else None
        pending.append((point, _point_spec(point, output_dir, workers, resume)))
    sharded = False
    for group in _groups(pending):
        points = [point for point, _ in group]
        model, dataset = plan.artifacts[points[0].index]
        if campaign_store is not None:
            for point in points:
                campaign_store.begin(point.run_id, resume=resume)
        sharded |= _runs_as_shards(group[0][1])
        # A failure here commits none of the group's points and leaves their
        # .wip directories in place: a later --resume merges the shards
        # committed in them; a plain re-run discards them.
        results = _execute_group([child for _, child in group], model, dataset, golden_cache)
        for point, result in zip(points, results):
            if campaign_store is not None:
                # The result's paths point into the .wip directory the commit
                # renames away; the committed point is the one way back to it.
                stored = campaign_store.commit(
                    point.run_id,
                    result,
                    canonical_spec=canonical_spec_document(point.spec),
                    weights_fingerprint=plan.fingerprints[point.index],
                    overrides=point.overrides,
                )
                outcome = SweepPointOutcome(
                    point=point, run_id=point.run_id, cached=False, summary=stored.summary,
                    stored=stored,
                )
            else:
                # Keep the records, not the engine: a core pins its wrappers,
                # their fault matrices and its lanes' monitors.
                result.core = None
                outcome = SweepPointOutcome(
                    point=point, run_id=point.run_id, cached=False,
                    summary=_json_value(result.summary), _result=result,
                )
            outcomes[point.index] = outcome
        if campaign_store is not None:
            # One fsync of the store root makes every rename of the group durable.
            campaign_store.sync()
        for point in points:
            emit(f"point {point.index:>3} {point.run_id}  executed  {point.overrides}")
    # Shards open their own handles on the spill directory; their counts are
    # not this cache's.
    stats = golden_cache.stats() if golden_cache is not None and not sharded else None
    ordered = [outcomes[point.index] for point in plan.points]
    sweep_result = SweepResult(plan, ordered, campaign_store, golden_cache_stats=stats)
    if campaign_store is not None:
        sweep_result.write_table(campaign_store.root)
    return sweep_result


def resolve_store(
    spec: ExperimentSpec, store: CampaignStore | str | Path | None = None
) -> CampaignStore | None:
    """The campaign store of a sweep: the argument, then the spec's
    ``sweep.store``, then ``<output_dir>/sweep_store``, else none."""
    if isinstance(store, CampaignStore):
        return store
    if store is not None:
        return CampaignStore(store)
    if spec.sweep is not None and spec.sweep.store is not None:
        return CampaignStore(spec.sweep.store)
    if spec.output_dir is not None:
        return CampaignStore(Path(spec.output_dir) / "sweep_store")
    return None
