"""Structured campaign result handle.

:class:`CampaignResult` replaces the former dict-of-paths returns: it
bundles the JSON-friendly KPI ``summary``, the output-file map, the
picklable aggregate task ``state``, the evaluated KPI objects and lazy
iterators over the streamed record files, and can :meth:`merge` the results
of complementary campaign slices (e.g. ``backend.step_range`` shards run on
different machines) into one campaign-level result.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.alficore.results import merge_record_files

_JSON_CHUNK = 1 << 20


def _iter_json_array(path: Path) -> Iterator:
    """Incrementally yield the elements of a JSON array file.

    Parses with :meth:`json.JSONDecoder.raw_decode` over a sliding buffer, so
    memory stays bounded by the chunk size plus one element — a multi-GB
    detection record stream never has to fit in memory.  An empty file yields
    nothing; anything that is not a JSON array is an error.
    """
    decoder = json.JSONDecoder()
    with open(path, "r", encoding="utf-8") as handle:
        buffer = ""
        eof = False

        def ensure(position: int) -> int:
            """Grow the buffer until ``position`` is readable (or EOF)."""
            nonlocal buffer, eof
            while not eof and position >= len(buffer):
                chunk = handle.read(_JSON_CHUNK)
                if chunk:
                    buffer += chunk
                else:
                    eof = True
            return len(buffer)

        def skip_ws(position: int) -> int:
            while ensure(position) > position and buffer[position] in " \t\r\n":
                position += 1
            return position

        pos = skip_ws(0)
        if ensure(pos) <= pos:
            return  # empty file: no records
        if buffer[pos] != "[":
            raise ValueError(f"{path} is not a record array")
        pos += 1
        while True:
            pos = skip_ws(pos)
            if ensure(pos) <= pos:
                raise ValueError(f"{path}: unterminated record array")
            if buffer[pos] == "]":
                return
            if buffer[pos] == ",":
                pos += 1
                continue
            while True:
                try:
                    element, end = decoder.raw_decode(buffer, pos)
                except ValueError:
                    # An element that fails to parse may simply extend past the
                    # buffered chunk; read more and retry.  (On corrupt — not
                    # truncated — content this keeps buffering until EOF before
                    # erroring: incomplete and malformed input are
                    # indistinguishable until the file ends.)
                    if eof:
                        raise ValueError(
                            f"{path}: truncated or malformed record array"
                        ) from None
                    ensure(len(buffer) + 1)
                    continue
                if not eof and buffer.find(",", end) == -1 and buffer.find("]", end) == -1:
                    # A complete array element is always followed by "," or
                    # "]".  Neither is buffered yet, so the parse may have
                    # stopped mid-number at the chunk boundary (e.g. the "3"
                    # of "3.5"); extend the buffer and re-parse to be sure.
                    before = len(buffer)
                    ensure(before + 1)
                    if len(buffer) > before:
                        continue
                break
            yield element
            pos = end
            if pos >= _JSON_CHUNK:
                # Trim the consumed prefix once per chunk (not per element)
                # so the buffer stays chunk-sized without quadratic copying.
                buffer = buffer[pos:]
                pos = 0


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

    def iter_records(self, tag: str) -> Iterator[dict]:
        """Lazily iterate the records of one streamed output file.

        CSV files yield one dict per row (string values, as stored); JSON
        array files are parsed incrementally and yield one object per entry.
        Memory stays bounded by one record (plus a read chunk) either way.
        """
        if tag not in self.output_files:
            raise KeyError(
                f"no output file tagged {tag!r}; available: {sorted(self.output_files)}"
            )
        path = Path(self.output_files[tag])
        if path.suffix == ".csv":
            with open(path, "r", newline="", encoding="utf-8") as handle:
                yield from csv.DictReader(handle)
            return
        yield from _iter_json_array(path)

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
