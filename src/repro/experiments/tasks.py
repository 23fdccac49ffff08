"""Workload plug-ins of the Experiment API.

An :class:`ExperimentTask` adapts one workload family to the declarative
:func:`repro.experiments.run` entry point: it builds the model from the
``MODELS`` registry, instantiates the matching
:class:`~repro.alficore.campaign.CampaignTask`, evaluates the aggregate
campaign state into KPI objects, writes the workload's result-file set and
renders a terminal report.  Registering a new ``ExperimentTask`` (via
``register_task``) is all it takes to open a new workload — no new facade.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.alficore.campaign import ClassificationTask, DetectionTask
from repro.alficore.results import CampaignResultWriter
from repro.alficore.scenario import ScenarioConfig
from repro.eval.classification import evaluate_classification_campaign
from repro.eval.detection import evaluate_detection_campaign
from repro.experiments.registry import MODELS, PROTECTIONS
from repro.experiments.spec import ExperimentSpec
from repro.nn import functional as F


class ExperimentTask:
    """Base workload plug-in (see module docstring).

    Attributes:
        name: registry key.
        model_kind: ``MODELS`` metadata filter offered for this task
            (drives CLI ``choices``).
        default_input_shape: per-sample input shape used when the spec does
            not pin one.
        campaign_task_cls: the :class:`CampaignTask` class executing the
            lock-step loop (also provides ``merge_states``).
    """

    name = "task"
    model_kind = "classifier"
    default_input_shape: tuple[int, ...] = (3, 32, 32)
    campaign_task_cls = ClassificationTask

    # ------------------------------------------------------------------ #
    # construction hooks
    # ------------------------------------------------------------------ #
    def build_model(self, spec: ExperimentSpec, dataset: Any) -> Any:
        """Build (and prepare) the baseline model from the MODELS registry."""
        raise NotImplementedError

    def build_protection(self, spec: ExperimentSpec, model: Any, dataset: Any) -> Any:
        """Build the hardened ("resil") variant from the PROTECTIONS registry."""
        factory = PROTECTIONS.get(spec.protection.name)
        return factory(model, dataset, **spec.protection.params)

    def make_campaign_task(self, spec: ExperimentSpec) -> Any:
        """Instantiate the lock-step :class:`CampaignTask` for this run."""
        raise NotImplementedError

    def resolve_num_classes(self, spec: ExperimentSpec, dataset: Any, model: Any) -> int | None:
        """Number of classes for evaluation (model params > dataset > model)."""
        for source in (spec.model.params.get("num_classes"), getattr(dataset, "num_classes", None),
                       getattr(model, "num_classes", None)):
            if source is not None:
                return int(source)
        return None

    # ------------------------------------------------------------------ #
    # evaluation / persistence hooks
    # ------------------------------------------------------------------ #
    def evaluate(self, state: Any, context: dict) -> tuple[dict, dict]:
        """Turn the aggregate campaign state into ``(kpi_objects, extras)``.

        ``kpi_objects`` feed the summary/KPI files; ``extras`` are
        task-specific in-memory artifacts (raw arrays, prediction lists)
        exposed on the result — built in the same pass so large buffers are
        materialized once.
        """
        raise NotImplementedError

    def summarize(self, evaluated: dict, output_files: dict[str, str]) -> dict:
        """JSON-friendly summary of the evaluated KPIs."""
        summary: dict = {"output_files": dict(output_files)}
        if "corrupted" in evaluated:
            summary["corrupted"] = evaluated["corrupted"].as_dict()
        if "resil" in evaluated:
            summary["resil"] = evaluated["resil"].as_dict()
        return summary

    def aux_outputs(self, writer: CampaignResultWriter, state: Any, context: dict) -> dict[str, str]:
        """Extra task-specific files written between the fault matrix and the
        record streams (e.g. detection ground truth)."""
        return {}

    def write_outputs(
        self,
        writer: CampaignResultWriter | None,
        scenario: ScenarioConfig,
        wrapper: Any,
        state: Any,
        stream_paths: dict[str, str],
        evaluated: dict,
        context: dict,
    ) -> dict[str, str]:
        """Persist the workload's result-file set; returns ``{tag: path}``."""
        if writer is None:
            return dict(stream_paths)
        meta_extra: dict = {
            "model_name": context["model_name"],
            "kernel_generation": F.KERNEL_GENERATION,
        }
        if context.get("execution"):
            # Fault-tolerance knobs are run-time parameters, so they belong in
            # the meta file (resume is deliberately absent — see the runner).
            meta_extra["execution"] = dict(context["execution"])
        paths = {
            "meta": str(writer.write_meta(scenario, extra=meta_extra)),
            "faults": str(writer.write_fault_matrix(wrapper.get_fault_matrix())),
            **self.aux_outputs(writer, state, context),
            **stream_paths,
        }
        if evaluated:
            kpis = {"corrupted": evaluated["corrupted"].as_dict()}
            if evaluated.get("resil") is not None:
                kpis["resil"] = evaluated["resil"].as_dict()
            paths["kpis"] = str(writer.write_kpi_summary(kpis))
        return paths

    def report(self, result: Any, spec: ExperimentSpec) -> str:
        """Human-readable terminal report of one finished campaign."""
        import json

        return json.dumps(result.summary, indent=2, default=str)


# --------------------------------------------------------------------------- #
# classification
# --------------------------------------------------------------------------- #
class ClassificationExperimentTask(ExperimentTask):
    """Image-classification campaigns (masked/SDE/DUE, top-k accuracy)."""

    name = "classification"
    model_kind = "classifier"
    default_input_shape = (3, 32, 32)
    campaign_task_cls = ClassificationTask

    def build_model(self, spec: ExperimentSpec, dataset: Any) -> Any:
        from repro.models.pretrained import fit_classifier_head

        factory = MODELS.get(spec.model.name)
        model = factory(**spec.model.params)
        if spec.task_options.get("fit_head", True):
            num_classes = self.resolve_num_classes(spec, dataset, model)
            if num_classes is None:
                raise ValueError(
                    "classification needs num_classes (model params or dataset attribute)"
                )
            fit_classifier_head(model, dataset, num_classes)
        return model.eval()

    def make_campaign_task(self, spec: ExperimentSpec) -> ClassificationTask:
        collect_outputs = bool(spec.task_options.get("collect_outputs", True))
        if not collect_outputs and spec.protection is not None:
            import warnings

            warnings.warn(
                "task_options collect_outputs=false drops the resil lane's KPIs "
                "(the streamed resil records are still written); keep "
                "collect_outputs on to evaluate the protection",
                RuntimeWarning,
                stacklevel=4,
            )
        return ClassificationTask(collect_outputs=collect_outputs)

    def evaluate(self, state: Any, context: dict) -> tuple[dict, dict]:
        if not state.golden_logits:
            # Streaming-only run (collect_outputs=False): the per-inference
            # records live in the stream files, but the state's counters are
            # enough to report the campaign KPIs with O(1) memory.
            return self._evaluate_from_counters(state, context), {}
        model_name = context["model_name"]
        golden = np.stack(state.golden_logits)
        corrupted = np.stack(state.corrupted_logits)
        labels = np.asarray(state.labels, dtype=np.int64)
        due = np.asarray(state.due_flags, dtype=bool)
        evaluated = {
            "corrupted": evaluate_classification_campaign(
                golden, corrupted, labels, due, model_name=model_name
            )
        }
        resil = None
        if state.resil_logits:
            resil = np.stack(state.resil_logits)
            resil_golden = np.stack(state.resil_golden_logits)
            evaluated["resil"] = evaluate_classification_campaign(
                resil_golden, resil, labels, model_name=f"{model_name}_resil"
            )
        extras = {
            "golden_logits": golden,
            "corrupted_logits": corrupted,
            "labels": labels,
            "due_flags": due,
            "resil_logits": resil,
        }
        return evaluated, extras

    @staticmethod
    def _evaluate_from_counters(state: Any, context: dict) -> dict:
        """KPIs of a streaming run, computed from the aggregate counters.

        Identical rates to the logit-based evaluation (same per-inference
        outcome classification fed both); the resil lane has no counters in
        streaming mode, so only the corrupted KPIs are reported.
        """
        from repro.eval.classification import ClassificationCampaignResult
        from repro.eval.sdc import FaultOutcome

        n = state.inferences
        if n == 0:
            return {}
        return {
            "corrupted": ClassificationCampaignResult(
                model_name=context["model_name"],
                num_inferences=n,
                golden_top1_accuracy=state.golden_top1_hits / n,
                golden_top5_accuracy=state.golden_top5_hits / n,
                corrupted_top1_accuracy=state.corrupted_top1_hits / n,
                masked_rate=state.outcomes.get(FaultOutcome.MASKED, 0) / n,
                sde_rate=state.outcomes.get(FaultOutcome.SDE, 0) / n,
                due_rate=state.outcomes.get(FaultOutcome.DUE, 0) / n,
            )
        }

    def report(self, result: Any, spec: ExperimentSpec) -> str:
        from repro.visualization import comparison_table

        corrupted = result.results.get("corrupted")
        if corrupted is None:
            return "campaign finished (streaming-only run; see result files)"
        rows = [
            {
                "variant": "corrupted",
                "golden top1": corrupted.golden_top1_accuracy,
                "masked": corrupted.masked_rate,
                "SDE": corrupted.sde_rate,
                "DUE": corrupted.due_rate,
            }
        ]
        resil = result.results.get("resil")
        if resil is not None:
            protection = spec.protection.name if spec.protection is not None else "resil"
            rows.append(
                {
                    "variant": f"resil ({protection})",
                    "golden top1": resil.golden_top1_accuracy,
                    "masked": resil.masked_rate,
                    "SDE": resil.sde_rate,
                    "DUE": resil.due_rate,
                }
            )
        scenario = spec.scenario
        return comparison_table(
            rows,
            ["variant", "golden top1", "masked", "SDE", "DUE"],
            title=(
                f"{spec.model.name}: {scenario.injection_target} fault injection "
                f"({scenario.max_faults_per_image} fault(s)/image)"
            ),
        )


# --------------------------------------------------------------------------- #
# object detection
# --------------------------------------------------------------------------- #
class DetectionExperimentTask(ExperimentTask):
    """Object-detection campaigns (IVMOD vulnerability + CoCo-style mAP)."""

    name = "detection"
    model_kind = "detector"
    default_input_shape = (3, 64, 64)
    campaign_task_cls = DetectionTask

    def build_model(self, spec: ExperimentSpec, dataset: Any) -> Any:
        factory = MODELS.get(spec.model.name)
        return factory(**spec.model.params).eval()

    def make_campaign_task(self, spec: ExperimentSpec) -> DetectionTask:
        return DetectionTask(
            collect_applied_log=bool(spec.task_options.get("collect_applied_log", True))
        )

    def evaluate(self, state: Any, context: dict) -> tuple[dict, dict]:
        model_name = context["model_name"]
        num_classes = context.get("num_classes")
        if num_classes is None:
            raise ValueError("detection evaluation requires num_classes in the context")
        evaluated = {
            "corrupted": evaluate_detection_campaign(
                state.golden_predictions,
                state.corrupted_predictions,
                state.targets,
                num_classes,
                model_name=model_name,
                due_flags=state.due_flags,
            )
        }
        if state.resil_predictions:
            evaluated["resil"] = evaluate_detection_campaign(
                state.resil_golden_predictions,
                state.resil_predictions,
                state.targets,
                num_classes,
                model_name=f"{model_name}_resil",
            )
        extras = {
            "golden_predictions": state.golden_predictions,
            "corrupted_predictions": state.corrupted_predictions,
            "resil_predictions": state.resil_predictions or None,
            "targets": state.targets,
            "due_flags": list(state.due_flags),
        }
        return evaluated, extras

    def aux_outputs(self, writer: CampaignResultWriter, state: Any, context: dict) -> dict[str, str]:
        serialisable_targets = [
            {
                "image_id": int(target["image_id"]),
                "file_name": target["file_name"],
                "boxes": np.asarray(target["boxes"]).tolist(),
                "labels": np.asarray(target["labels"]).tolist(),
            }
            for target in state.targets
        ]
        return {"ground_truth": str(writer.write_ground_truth_json(serialisable_targets))}

    def report(self, result: Any, spec: ExperimentSpec) -> str:
        from repro.visualization import bar_chart

        corrupted = result.results["corrupted"]
        ivmod = corrupted.ivmod
        # The core's scenario carries the normalized dataset_size (aligned to
        # the actual dataset); the raw spec scenario may still hold a default.
        scenario = result.core.scenario if result.core is not None else spec.scenario
        lines = [
            bar_chart(
                {"IVMOD_SDE": ivmod.sde_rate, "IVMOD_DUE": ivmod.due_rate},
                title=(
                    f"{spec.model.name}: {spec.scenario.injection_target} fault injection "
                    f"over {scenario.dataset_size} images"
                ),
                max_value=max(ivmod.sde_rate, 0.1),
            ),
            "",
            f"golden mAP@0.5:    {corrupted.golden_map['mAP']:.4f}",
            f"corrupted mAP@0.5: {corrupted.corrupted_map['mAP']:.4f}",
        ]
        return "\n".join(lines)
