"""Classification KPIs: top-k accuracy and SDE / DUE rates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.eval.sdc import FaultOutcome, classify_classification_outcome, outcome_rates


def top_k_predictions(logits: np.ndarray, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Return the top-k classes and their softmax probabilities.

    Non-finite logits are an expected campaign outcome (a DUE), not a
    numerical accident: the whole softmax runs under ``errstate`` and emits
    no ``RuntimeWarning``.

    Args:
        logits: raw model outputs of shape ``(N, num_classes)``.
        k: number of top entries (clipped to the number of classes).

    Returns:
        Tuple ``(classes, probabilities)``, both of shape ``(N, k)``, ordered
        by decreasing probability.  NaN probabilities sort last.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError(f"expected logits of shape (N, classes), got {logits.shape}")
    k = min(k, logits.shape[1])
    with np.errstate(invalid="ignore", over="ignore"):
        # fmax.reduce is the row maximum ignoring NaN (what nanmax computes,
        # minus its all-NaN warning).
        exp = np.exp(logits - np.fmax.reduce(logits, axis=1, keepdims=True))
        nan = np.isnan(exp)
        if nan.any():
            denom = np.where(nan, 0.0, exp).sum(axis=1, keepdims=True)
            probabilities = np.where(denom > 0, exp / denom, 0.0)
            sort_keys = np.where(np.isnan(probabilities), -np.inf, probabilities)
        else:
            # NaN-free rows hold exp(0) = 1 at their maximum, so the
            # denominator is positive and the probabilities sort as they are.
            probabilities = sort_keys = exp / exp.sum(axis=1, keepdims=True)
    order = _stable_top_k_order(sort_keys, k)
    rows = np.arange(len(logits))[:, None]
    return order.astype(np.int64), probabilities[rows, order]


# Up to this many classes a full stable argsort of the row is cheaper than
# partitioning it and repairing the ties.
_ARGSORT_MAX_CLASSES = 64


def _stable_top_k_order(sort_keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest keys per row, ties broken by smallest index.

    This runs on every image of every campaign lane.  For wide rows the
    full ``argsort`` of all classes is replaced by an O(C) ``argpartition``
    followed by a local sort of the k candidates.  The partition is only
    index-stable when the boundary value is unambiguous; rows where ties
    straddle the k-th position fall back to the stable full argsort, so the
    result is always identical to ``argsort(-keys, kind="stable")[:, :k]``.
    """
    num_rows, num_classes = sort_keys.shape
    if k <= 0:
        return np.empty((num_rows, 0), dtype=np.int64)
    if k >= num_classes or num_classes <= _ARGSORT_MAX_CLASSES:
        return np.argsort(-sort_keys, axis=1, kind="stable")[:, :k]
    rows = np.arange(num_rows)[:, None]
    candidates = np.argpartition(-sort_keys, k - 1, axis=1)[:, :k]
    candidates = np.sort(candidates, axis=1)  # ascending index = stable tie order
    candidate_keys = sort_keys[rows, candidates]
    local = np.argsort(-candidate_keys, axis=1, kind="stable")
    order = candidates[rows, local]
    # A row is ambiguous when values equal to its k-th largest ("boundary")
    # key also exist outside the selected set — the partition then picked an
    # arbitrary subset of the tied indices.
    boundary = candidate_keys.min(axis=1, keepdims=True)
    n_ge_selected = (candidate_keys >= boundary).sum(axis=1)
    n_ge_total = (sort_keys >= boundary).sum(axis=1)
    ambiguous = n_ge_total > n_ge_selected
    if np.any(ambiguous):
        exact = np.argsort(-sort_keys[ambiguous], axis=1, kind="stable")[:, :k]
        order[ambiguous] = exact
    return order


def top_k_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of samples whose ground-truth label is within the top-k classes."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    classes, _ = top_k_predictions(logits, k=k)
    if len(labels) != len(classes):
        raise ValueError(f"got {len(labels)} labels for {len(classes)} predictions")
    if len(labels) == 0:
        return 0.0
    hits = (classes == labels[:, None]).any(axis=1)
    return float(hits.mean())


def sde_rate(
    golden_logits: np.ndarray,
    corrupted_logits: np.ndarray,
    due_flags: np.ndarray | None = None,
) -> dict[str, float]:
    """Compute masked / SDE / DUE rates by comparing corrupted to golden outputs.

    The SDE criterion follows the paper: the top-1 class of the corrupted run
    differs from the top-1 class of the *fault-free* run of the same input
    (not from the ground truth — faults are judged by how they change the
    model's behaviour).

    Args:
        golden_logits: fault-free outputs, shape ``(N, classes)``.
        corrupted_logits: fault-injected outputs, same shape.
        due_flags: optional boolean array marking inferences with NaN/Inf.

    Returns:
        Dictionary with ``masked`` / ``sde`` / ``due`` rates and ``total``.
    """
    golden_logits = np.asarray(golden_logits, dtype=np.float64)
    corrupted_logits = np.asarray(corrupted_logits, dtype=np.float64)
    if golden_logits.shape != corrupted_logits.shape:
        raise ValueError(
            f"golden {golden_logits.shape} and corrupted {corrupted_logits.shape} shapes differ"
        )
    golden_top1, _ = top_k_predictions(golden_logits, k=1)
    corrupted_top1, _ = top_k_predictions(corrupted_logits, k=1)
    if due_flags is None:
        due_flags = ~np.isfinite(corrupted_logits).all(axis=1)
    due_flags = np.asarray(due_flags, dtype=bool).reshape(-1)
    outcomes = [
        classify_classification_outcome(int(g), int(c), bool(flag))
        for g, c, flag in zip(golden_top1[:, 0], corrupted_top1[:, 0], due_flags)
    ]
    return outcome_rates(outcomes)


@dataclass
class ClassificationCampaignResult:
    """Aggregated KPIs of a classification fault injection campaign."""

    model_name: str
    num_inferences: int
    golden_top1_accuracy: float
    golden_top5_accuracy: float
    corrupted_top1_accuracy: float
    masked_rate: float
    sde_rate: float
    due_rate: float
    outcomes: list[FaultOutcome] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-friendly summary (outcomes omitted)."""
        return {
            "model_name": self.model_name,
            "num_inferences": self.num_inferences,
            "golden_top1_accuracy": self.golden_top1_accuracy,
            "golden_top5_accuracy": self.golden_top5_accuracy,
            "corrupted_top1_accuracy": self.corrupted_top1_accuracy,
            "masked_rate": self.masked_rate,
            "sde_rate": self.sde_rate,
            "due_rate": self.due_rate,
        }


def evaluate_classification_campaign(
    golden_logits: np.ndarray,
    corrupted_logits: np.ndarray,
    labels: np.ndarray,
    due_flags: np.ndarray | None = None,
    model_name: str = "model",
) -> ClassificationCampaignResult:
    """Compute the full KPI set for a classification campaign.

    Args:
        golden_logits: fault-free outputs, one row per inference.
        corrupted_logits: fault-injected outputs, aligned with the golden rows.
        labels: ground-truth labels.
        due_flags: optional per-inference NaN/Inf flags from the monitors.
        model_name: used for reporting.
    """
    golden_logits = np.asarray(golden_logits, dtype=np.float64)
    corrupted_logits = np.asarray(corrupted_logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    rates = sde_rate(golden_logits, corrupted_logits, due_flags)
    golden_top1, _ = top_k_predictions(golden_logits, k=1)
    corrupted_top1, _ = top_k_predictions(corrupted_logits, k=1)
    if due_flags is None:
        due_flags = ~np.isfinite(corrupted_logits).all(axis=1)
    due_flags = np.asarray(due_flags, dtype=bool).reshape(-1)
    outcomes = [
        classify_classification_outcome(int(g), int(c), bool(flag))
        for g, c, flag in zip(golden_top1[:, 0], corrupted_top1[:, 0], due_flags)
    ]
    return ClassificationCampaignResult(
        model_name=model_name,
        num_inferences=len(labels),
        golden_top1_accuracy=top_k_accuracy(golden_logits, labels, k=1),
        golden_top5_accuracy=top_k_accuracy(golden_logits, labels, k=5),
        corrupted_top1_accuracy=top_k_accuracy(corrupted_logits, labels, k=1),
        masked_rate=rates["masked"],
        sde_rate=rates["sde"],
        due_rate=rates["due"],
        outcomes=outcomes,
    )
