"""PyTorchALFI core (``alficore``): the paper's contribution.

The subpackage provides everything Section IV of the paper describes:

* **Scenario configuration** (:mod:`~repro.alficore.scenario`): the
  ``default.yml`` schema controlling fault count, type and location, with
  validation, persistence and run-time mutation.
* **Fault matrix** (:mod:`~repro.alficore.faultmatrix`): all faults of a
  campaign are pre-generated as a matrix (one column per fault, rows as in
  Table I), stored as a binary file and reusable across experiments.
* **Layer weighting** (:mod:`~repro.alficore.layerweights`): Eq. 1 of the
  paper — random layer selection weighted by relative layer size.
* **Injection policies** (:mod:`~repro.alficore.policies`): ``per_image``,
  ``per_batch`` and ``per_epoch`` fault replacement schedules.
* **The wrapper** (:mod:`~repro.alficore.wrapper`): ``ptfiwrap``, the
  low-level integration point that yields fault-injected model instances via
  an iterator, plus ``get_scenario`` / ``set_scenario`` for iterative
  experiments.
* **Monitors** (:mod:`~repro.alficore.monitoring`): NaN/Inf detection and
  custom hook-based monitors.
* **Protection** (:mod:`~repro.alficore.protection`): Ranger / Clipper
  activation range supervision used as the "enhanced" third model.
* **Result persistence** (:mod:`~repro.alficore.results`): meta yml files,
  binary fault files, CSV (classification) and JSON (detection) outputs.
* **The campaign engine** (:mod:`~repro.alficore.campaign`): the lock-step
  golden/faulty loop, the classification and detection tasks and sharded
  execution.  Campaigns are defined and run through the Experiment API
  (:mod:`repro.experiments`), which replaces the paper's turnkey test
  classes (migration table in ``docs/index.md``).
"""

from repro.alficore.analysis import (
    CampaignAnalysis,
    analyze_classification_campaign,
    analyze_detection_campaign,
    compare_campaigns,
)
from repro.alficore.campaign import (
    CampaignCore,
    CampaignTask,
    ClassificationTask,
    DetectionTask,
    ShardedCampaignExecutor,
)
from repro.alficore.digests import bytes_digest, config_digest, key_digest, model_fingerprint
from repro.alficore.faultmatrix import FaultMatrix, FaultMatrixGenerator, NEURON_ROWS, WEIGHT_ROWS
from repro.alficore.goldencache import GoldenCache, GoldenCacheEntry
from repro.alficore.layerweights import layer_weight_factors, weighted_layer_choice
from repro.alficore.monitoring import InferenceMonitor, MonitorResult, RangeMonitor
from repro.alficore.policies import InjectionPolicy, faults_required, fault_column_for_step
from repro.alficore.protection import Clipper, Ranger, apply_protection, collect_activation_bounds
from repro.alficore.resilience import ExecutionPolicy, ShardError, ShardSupervisor
from repro.alficore.results import CampaignResultWriter
from repro.alficore.scenario import ScenarioConfig, default_scenario, load_scenario, save_scenario
from repro.alficore.wrapper import ptfiwrap

__all__ = [
    "CampaignAnalysis",
    "CampaignCore",
    "CampaignResultWriter",
    "CampaignTask",
    "ClassificationTask",
    "DetectionTask",
    "ExecutionPolicy",
    "ShardError",
    "ShardSupervisor",
    "ShardedCampaignExecutor",
    "analyze_classification_campaign",
    "analyze_detection_campaign",
    "compare_campaigns",
    "Clipper",
    "FaultMatrix",
    "FaultMatrixGenerator",
    "GoldenCache",
    "GoldenCacheEntry",
    "InferenceMonitor",
    "InjectionPolicy",
    "MonitorResult",
    "NEURON_ROWS",
    "Ranger",
    "RangeMonitor",
    "ScenarioConfig",
    "WEIGHT_ROWS",
    "apply_protection",
    "bytes_digest",
    "collect_activation_bounds",
    "config_digest",
    "default_scenario",
    "key_digest",
    "model_fingerprint",
    "fault_column_for_step",
    "faults_required",
    "layer_weight_factors",
    "load_scenario",
    "ptfiwrap",
    "save_scenario",
    "weighted_layer_choice",
]
