"""Task-pluggable clone-free campaign engine with sharded parallel execution.

The engine is three layers, one module each:

* :mod:`~repro.alficore.campaign.core` — :class:`CampaignCore` owns
  everything that is identical for every workload: the golden/faulty
  lock-step loop over the clone-free fault group sessions
  (:meth:`~repro.alficore.wrapper.ptfiwrap.get_fault_group_iter`) and the
  streamed-record plumbing.  It runs a list of *lanes* — the model under
  test and, optionally, its hardened ("resil") variant — each of them one
  model object with one wrapper, one forward plan and (the primary lane) one
  :class:`~repro.alficore.monitoring.InferenceMonitor`, attached once per
  run: golden and faulty pass of a lane run on that same object, patched or
  hooked by the lane's fault groups.  The core never interprets model outputs.
  Each step's golden pass is one
  :class:`~repro.alficore.goldencache.GoldenCacheEntry` (cached, or
  transient without a cache) that serves both ends of the faulty pass: the
  boundary it resumes at (the input batch for a fault in segment 0), and —
  *tail reuse* — the first checkpointed boundary behind the group's last
  faulted segment that the faulty activation reproduces byte for byte,
  where the pass ends with the golden output object.  Both shortcuts run
  only behind a golden pass that raised no monitor event (the entry's
  ``clean``), so a skipped segment never hides one.  A transient entry
  checkpoints exactly those two.
* :mod:`~repro.alficore.campaign.tasks` — :class:`CampaignTask` adapters
  interpret outputs per workload.  :class:`ClassificationTask` classifies
  each inference masked / SDE / DUE against its golden top-1 and streams CSV
  rows;  :class:`DetectionTask` collects per-image predictions for IVMOD /
  mAP evaluation and streams detection JSON records.  Both keep a picklable
  aggregate ``state`` so shard workers can ship partial results back to the
  parent process.  What a record takes from the golden output alone (top-k,
  hit flags, the golden CSV cells) is memoised with the golden pass's cache
  entry, so it is built once per image; a rejoined pass (``corrupted is
  golden``) reuses it too.
* :mod:`~repro.alficore.campaign.sharded` — :class:`ShardedCampaignExecutor`
  partitions a campaign into contiguous ``(epoch, fault-group,
  dataset-index)`` shards and runs them through the supervised scheduler in
  :mod:`repro.alficore.resilience` (or sequentially in-process for
  ``workers=1``): failed, killed or hung shards are re-queued by their
  deterministic step range with capped exponential backoff, shard outputs
  land via atomic directory renames, and a committed shard directory is the
  record that makes interrupted campaigns resumable.  Per-shard result files are merged
  deterministically — the merged output is byte-identical to a
  single-process run of the same seed, because every fault corruption is
  pre-drawn in the fault matrix and the loader's epoch permutations depend
  only on ``(seed, epoch)``.

Campaigns are run through :func:`repro.experiments.run`, which assembles
these pieces from an experiment spec (and in-memory
:class:`~repro.experiments.runner.Artifacts`).  The names below are the
package's public surface.  The two state classes must stay importable from
here: shard states and store points pickled by earlier versions name them
as ``repro.alficore.campaign.<State>``.
"""

from repro.alficore.campaign.core import CampaignCore, normalize_campaign_scenario
from repro.alficore.campaign.sharded import ShardedCampaignExecutor
from repro.alficore.campaign.tasks import (
    CampaignTask,
    ClassificationState,
    ClassificationTask,
    DetectionState,
    DetectionTask,
    StepContext,
)

__all__ = [
    "CampaignCore",
    "CampaignTask",
    "ClassificationState",
    "ClassificationTask",
    "DetectionState",
    "DetectionTask",
    "ShardedCampaignExecutor",
    "StepContext",
    "normalize_campaign_scenario",
]
