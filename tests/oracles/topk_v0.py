"""Frozen ``repro.eval.classification`` top-k bodies, generation 0 — test oracles only.

``top_k_predictions`` and ``_stable_top_k_order`` as they stood before the
dispatch-count rewrite, copied verbatim (including the ``nanmax`` subtraction
outside its ``errstate`` block, which is why calling this on non-finite
logits emits ``RuntimeWarning``).  ``tests/test_eval_classification.py``
asserts the production functions return the same bytes on seeded inputs.

Production code must never import this module, and nothing here is to be
fixed or sped up: the value of the file is that it does not change.
"""

from __future__ import annotations

import numpy as np


def top_k_predictions(logits: np.ndarray, k: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Return the top-k classes and their softmax probabilities.

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
    num_classes = logits.shape[1]
    k = min(k, num_classes)
    shifted = logits - np.nanmax(logits, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", over="ignore"):
        exp = np.exp(shifted)
        denom = np.nansum(exp, axis=1, keepdims=True)
        probabilities = np.where(denom > 0, exp / denom, 0.0)
    sort_keys = np.where(np.isnan(probabilities), -np.inf, probabilities)
    order = _stable_top_k_order(sort_keys, k)
    rows = np.arange(len(logits))[:, None]
    return order.astype(np.int64), probabilities[rows, order]


def _stable_top_k_order(sort_keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest keys per row, ties broken by smallest index.

    This runs on every image of every campaign lane, so the full
    ``argsort`` of all classes is replaced by an O(C) ``argpartition``
    followed by a local sort of the k candidates.  The partition is only
    index-stable when the boundary value is unambiguous; rows where ties
    straddle the k-th position fall back to the stable full argsort, so the
    result is always identical to ``argsort(-keys, kind="stable")[:, :k]``.
    """
    num_rows, num_classes = sort_keys.shape
    if k <= 0:
        return np.empty((num_rows, 0), dtype=np.int64)
    if k >= num_classes:
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
