"""Unit tests for the classification KPIs (top-k, SDE/DUE rates)."""

import numpy as np
import pytest

from repro.eval import (
    FaultOutcome,
    classify_classification_outcome,
    evaluate_classification_campaign,
    outcome_rates,
    sde_rate,
    top_k_accuracy,
    top_k_predictions,
)


class TestTopK:
    def test_top_k_ordering(self):
        logits = np.array([[0.1, 3.0, 2.0, -1.0]])
        classes, probabilities = top_k_predictions(logits, k=3)
        np.testing.assert_array_equal(classes[0], [1, 2, 0])
        assert probabilities[0, 0] > probabilities[0, 1] > probabilities[0, 2]

    def test_probabilities_sum_below_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 10))
        _, probabilities = top_k_predictions(logits, k=10)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, rtol=1e-6)

    def test_k_clipped_to_classes(self):
        classes, _ = top_k_predictions(np.zeros((2, 3)), k=10)
        assert classes.shape == (2, 3)

    def test_nan_logits_do_not_crash(self):
        logits = np.array([[np.nan, 1.0, 0.5]])
        classes, probabilities = top_k_predictions(logits, k=3)
        assert classes.shape == (1, 3)
        assert np.isfinite(probabilities[0, 0]) or probabilities[0, 0] == 0.0

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            top_k_predictions(np.zeros(5), k=1)

    def test_top1_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 1.0]])
        labels = [0, 1, 1]
        assert top_k_accuracy(logits, labels, k=1) == pytest.approx(2 / 3)

    def test_top5_accuracy_all_hit(self):
        logits = np.random.default_rng(0).normal(size=(10, 5))
        labels = np.random.default_rng(1).integers(0, 5, size=10)
        assert top_k_accuracy(logits, labels, k=5) == 1.0

    def test_accuracy_empty(self):
        assert top_k_accuracy(np.zeros((0, 3)), np.zeros(0), k=1) == 0.0

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), [1, 2, 3])


class TestOutcomeTaxonomy:
    def test_masked(self):
        assert classify_classification_outcome(3, 3) is FaultOutcome.MASKED

    def test_sde(self):
        assert classify_classification_outcome(3, 4) is FaultOutcome.SDE

    def test_due_takes_precedence(self):
        assert classify_classification_outcome(3, 4, nan_or_inf=True) is FaultOutcome.DUE

    def test_outcome_rates_sum_to_one(self):
        outcomes = [FaultOutcome.MASKED] * 5 + [FaultOutcome.SDE] * 3 + [FaultOutcome.DUE] * 2
        rates = outcome_rates(outcomes)
        assert rates["masked"] + rates["sde"] + rates["due"] == pytest.approx(1.0)
        assert rates["total"] == 10
        assert rates["sde"] == pytest.approx(0.3)

    def test_outcome_rates_empty(self):
        rates = outcome_rates([])
        assert rates["total"] == 0
        assert rates["sde"] == 0.0


class TestSdeRate:
    def test_identical_outputs_are_masked(self):
        logits = np.random.default_rng(0).normal(size=(8, 5))
        rates = sde_rate(logits, logits.copy())
        assert rates["masked"] == 1.0
        assert rates["sde"] == 0.0

    def test_flipped_top1_counts_as_sde(self):
        golden = np.array([[5.0, 0.0], [5.0, 0.0]])
        corrupted = np.array([[5.0, 0.0], [0.0, 5.0]])
        rates = sde_rate(golden, corrupted)
        assert rates["sde"] == pytest.approx(0.5)

    def test_nan_output_counts_as_due(self):
        golden = np.array([[5.0, 0.0]])
        corrupted = np.array([[np.nan, 0.0]])
        rates = sde_rate(golden, corrupted)
        assert rates["due"] == 1.0
        assert rates["sde"] == 0.0

    def test_external_due_flags_override(self):
        golden = np.array([[5.0, 0.0]])
        corrupted = np.array([[0.0, 5.0]])
        rates = sde_rate(golden, corrupted, due_flags=np.array([True]))
        assert rates["due"] == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            sde_rate(np.zeros((2, 3)), np.zeros((3, 3)))


class TestCampaignEvaluation:
    def test_full_campaign_summary(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=20)
        golden = np.zeros((20, 5))
        golden[np.arange(20), labels] = 10.0
        corrupted = golden.copy()
        corrupted[:4, :] = 0.0
        corrupted[np.arange(4), (labels[:4] + 1) % 5] = 10.0  # 4 SDEs
        corrupted[4, :] = np.nan  # 1 DUE
        result = evaluate_classification_campaign(golden, corrupted, labels, model_name="demo")
        assert result.model_name == "demo"
        assert result.num_inferences == 20
        assert result.golden_top1_accuracy == 1.0
        assert result.sde_rate == pytest.approx(4 / 20)
        assert result.due_rate == pytest.approx(1 / 20)
        assert result.masked_rate == pytest.approx(15 / 20)
        assert len(result.outcomes) == 20

    def test_as_dict_is_json_friendly(self):
        import json

        golden = np.ones((3, 4))
        result = evaluate_classification_campaign(golden, golden, [0, 1, 2])
        json.dumps(result.as_dict())


class TestStableTopKOrder:
    """argpartition fast path must equal the stable full-argsort reference."""

    @staticmethod
    def _reference(logits, k):
        logits = np.asarray(logits, dtype=np.float64)
        shifted = logits - np.nanmax(logits, axis=1, keepdims=True)
        with np.errstate(invalid="ignore", over="ignore"):
            exp = np.exp(shifted)
            denom = np.nansum(exp, axis=1, keepdims=True)
            probabilities = np.where(denom > 0, exp / denom, 0.0)
        keys = np.where(np.isnan(probabilities), -np.inf, probabilities)
        return np.argsort(-keys, axis=1, kind="stable")[:, : min(k, logits.shape[1])]

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_random_logits_match_stable_argsort(self, k):
        logits = np.random.default_rng(3).normal(size=(64, 10))
        classes, _ = top_k_predictions(logits, k=k)
        np.testing.assert_array_equal(classes, self._reference(logits, k))

    def test_tied_probabilities_keep_index_order(self):
        # Ties straddling the k-th position force the stable fallback.
        logits = np.array(
            [
                [1.0, 2.0, 2.0, 2.0, 0.0],
                [5.0, 5.0, 5.0, 5.0, 5.0],
                [0.0, 0.0, 1.0, 0.0, 0.0],
            ]
        )
        classes, _ = top_k_predictions(logits, k=2)
        np.testing.assert_array_equal(classes, self._reference(logits, 2))
        np.testing.assert_array_equal(classes[1], [0, 1])

    def test_nan_rows_sort_last_in_index_order(self):
        logits = np.array(
            [
                [np.nan, np.nan, np.nan, np.nan],
                [1.0, np.nan, 2.0, np.nan],
                [np.inf, 1.0, 2.0, -np.inf],
            ]
        )
        classes, _ = top_k_predictions(logits, k=3)
        np.testing.assert_array_equal(classes, self._reference(logits, 3))
        np.testing.assert_array_equal(classes[0], [0, 1, 2])

    def test_large_class_count_matches(self):
        logits = np.random.default_rng(9).normal(size=(8, 1000))
        classes, _ = top_k_predictions(logits, k=5)
        np.testing.assert_array_equal(classes, self._reference(logits, 5))

    def test_k_zero_returns_empty(self):
        logits = np.random.default_rng(4).normal(size=(3, 5))
        classes, probabilities = top_k_predictions(logits, k=0)
        assert classes.shape == (3, 0)
        assert probabilities.shape == (3, 0)


class TestTopKAgainstFrozenOracle:
    """``top_k_predictions`` / ``_stable_top_k_order`` were rewritten for fewer
    numpy dispatches; ``tests/oracles/topk_v0.py`` holds the bodies they had."""

    CASES = 400

    @staticmethod
    def _logits(rng, case):
        rows, classes = int(rng.integers(1, 6)), int(rng.integers(1, 200))
        if case % 3 == 0:
            rows, classes = 1, 10  # the shape batch-1 campaigns pass
        logits = (rng.standard_normal((rows, classes)) * rng.choice([1.0, 50.0, 1e30])).astype(
            rng.choice([np.float32, np.float64])
        )
        kind = case % 8
        pick = rng.random(logits.shape)
        if kind == 1:
            logits[pick < 0.2] = np.nan
        elif kind == 2:
            logits[pick < 0.2] = np.inf
        elif kind == 3:
            logits[pick < 0.2] = -np.inf
        elif kind == 4:
            logits[0] = np.nan  # an all-NaN row
        elif kind == 5:
            logits = np.round(logits / (np.abs(logits).max() or 1.0) * 2)  # ties straddling k
        elif kind == 6:
            logits[:] = logits[:, :1]  # every class tied
        elif kind == 7:
            logits[pick < 0.1] = np.nan
            logits[(pick > 0.1) & (pick < 0.2)] = np.inf
            logits[(pick > 0.2) & (pick < 0.3)] = -np.inf
        return logits

    def test_classes_and_probabilities_are_byte_identical(self):
        import warnings

        from tests.oracles import topk_v0

        rng = np.random.default_rng(20260929)
        for case in range(self.CASES):
            logits = self._logits(rng, case)
            k = int(rng.integers(1, 8))  # reaches past num_classes for narrow rows
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # the oracle's, by design
                want_classes, want_probs = topk_v0.top_k_predictions(logits, k)
            classes, probs = top_k_predictions(logits, k)
            assert classes.dtype == want_classes.dtype == np.int64, case
            assert classes.shape == want_classes.shape and probs.shape == want_probs.shape, case
            assert classes.tobytes() == want_classes.tobytes(), case
            assert probs.tobytes() == want_probs.tobytes(), case

    def test_order_matches_the_oracle_on_both_sides_of_the_argsort_threshold(self):
        from repro.eval.classification import _ARGSORT_MAX_CLASSES, _stable_top_k_order
        from tests.oracles import topk_v0

        rng = np.random.default_rng(7)
        for classes in (2, _ARGSORT_MAX_CLASSES, _ARGSORT_MAX_CLASSES + 1, 300):
            for k in (1, 5, classes):
                keys = np.round(rng.standard_normal((4, classes)), 1)
                keys[rng.random(keys.shape) < 0.1] = -np.inf
                want = topk_v0._stable_top_k_order(keys, k)
                assert _stable_top_k_order(keys, k).tobytes() == want.tobytes(), (classes, k)

    def test_a_due_is_not_a_warning(self):
        import warnings

        bad = np.array(
            [[np.nan] * 4, [np.inf, 1.0, -np.inf, np.nan], [3e38, -3e38, 0.0, np.inf]]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for logits in (bad, bad.astype(np.float32), bad[:1], bad[1:2]):
                top_k_predictions(logits, k=3)
                top_k_accuracy(logits, np.zeros(len(logits), dtype=np.int64), k=2)
