"""Structured campaign result handle.

:class:`CampaignResult` replaces the former dict-of-paths returns: it
bundles the JSON-friendly KPI ``summary``, the output-file map, the
picklable aggregate task ``state``, the evaluated KPI objects and lazy
iterators over the streamed record files, and can :meth:`merge` the results
of complementary campaign slices (e.g. ``backend.step_range`` shards run on
different machines) into one campaign-level result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.alficore.results import iter_record_file, merge_record_files


@dataclass
class CampaignResult:
    """Everything one :func:`repro.experiments.run` invocation produced.

    Attributes:
        spec: the (validated) spec the campaign ran with.
        task: registry name of the task plug-in that produced the result.
        summary: JSON-friendly KPI summary (task-shaped).
        output_files: ``{tag: path}`` of every file written (empty without
            an ``output_dir``).
        state: the picklable aggregate task state (shard-mergeable).
        results: evaluated KPI objects, e.g. ``{"corrupted":
            ClassificationCampaignResult, "resil": ...}``.
        extras: task-specific in-memory artifacts (raw logit arrays,
            prediction lists, ...).
        context: evaluation context (``model_name``, ``num_classes``, ...)
            needed to re-evaluate a merged state.
    """

    spec: Any
    task: str
    summary: dict
    output_files: dict[str, str] = field(default_factory=dict)
    state: Any = None
    results: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    context: dict[str, Any] = field(default_factory=dict)
    # Live handles of the run that produced the result; ``None`` on a result
    # rebuilt from a store.  Not part of the serialisable surface.
    wrapper: Any = None
    core: Any = None

    # ------------------------------------------------------------------ #
    # record access
    # ------------------------------------------------------------------ #
    def record_tags(self) -> list[str]:
        """Tags of the streamed record files (CSV/JSON array outputs)."""
        return sorted(
            tag
            for tag, path in self.output_files.items()
            if Path(path).suffix in (".csv", ".json") and tag != "kpis"
        )

    def iter_records(self, tag: str) -> Iterator[Any]:
        """Lazily iterate the records of one streamed output file.

        See :func:`~repro.alficore.results.iter_record_file`: CSV rows come
        as dicts of the stored strings, JSON array entries as parsed objects,
        one record in memory at a time.
        """
        if tag not in self.output_files:
            raise KeyError(
                f"no output file tagged {tag!r}; available: {sorted(self.output_files)}"
            )
        return iter_record_file(self.output_files[tag])

    def as_dict(self) -> dict:
        """JSON-friendly view (summary + file map)."""
        return {
            "name": getattr(self.spec, "name", "experiment"),
            "task": self.task,
            "summary": dict(self.summary),
            "output_files": dict(self.output_files),
        }

    # ------------------------------------------------------------------ #
    # shard merging
    # ------------------------------------------------------------------ #
    @classmethod
    def merge(
        cls,
        results: list["CampaignResult"],
        output_dir: str | Path | None = None,
    ) -> "CampaignResult":
        """Merge complementary campaign slices into one campaign result.

        The slices must come from the same task and be passed in campaign
        (step) order; their aggregate states are merged with the task's
        ``merge_states`` and re-evaluated, so the merged summary equals the
        summary of an unsliced run.  With ``output_dir``, record files
        present in every slice are concatenated there (byte-identical to an
        unsliced run's streams).
        """
        from repro.experiments.registry import TASKS

        if not results:
            raise ValueError("need at least one CampaignResult to merge")
        tasks = {result.task for result in results}
        if len(tasks) != 1:
            raise ValueError(f"cannot merge results of different tasks: {sorted(tasks)}")
        plugin = TASKS.get(results[0].task)
        merged_state = plugin.campaign_task_cls.merge_states(
            [result.state for result in results]
        )
        context = dict(results[0].context)
        evaluated, extras = plugin.evaluate(merged_state, context)
        output_files: dict[str, str] = {}
        if output_dir is not None:
            output_files = merge_record_files(
                [
                    {tag: result.output_files[tag] for tag in result.record_tags()}
                    for result in results
                ],
                output_dir,
            )
        return cls(
            spec=results[0].spec,
            task=results[0].task,
            summary=plugin.summarize(evaluated, output_files),
            output_files=output_files,
            state=merged_state,
            results=evaluated,
            extras=extras,
            context=context,
        )
