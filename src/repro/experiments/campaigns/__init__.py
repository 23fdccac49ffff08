"""Content-addressed campaign store (the sweep persistence layer).

A :class:`CampaignStore` keeps one directory per executed grid point,
addressed by a *run ID* — a digest of the point's canonical spec document
plus the model identity (its fingerprint) — so re-running a sweep skips
every point whose inputs are bit-identical, across processes and machines
sharing one store directory.  A committed point directory is its own record of
completion; nothing else tracks a sweep's progress.
"""

from repro.experiments.campaigns.store import (
    CampaignStore,
    StoredPoint,
    StoreError,
    canonical_spec_document,
    point_run_id,
)

__all__ = [
    "CampaignStore",
    "StoreError",
    "StoredPoint",
    "canonical_spec_document",
    "point_run_id",
]
