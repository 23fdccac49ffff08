"""Tests for the shared content-digest helpers (`repro.alficore.digests`).

The module is the single implementation behind the committed shards'
configuration guard, the golden cache's spillover names, the campaign core's
weight fingerprints and the campaign store's run IDs — so its stability
guarantees are load-bearing for skip/resume correctness everywhere.
"""

import hashlib

import numpy as np
import pytest

from repro.alficore.digests import (
    SHORT_DIGEST_LENGTH,
    bytes_digest,
    config_digest,
    key_digest,
    model_fingerprint,
)
from repro.models import lenet5


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": [2, 3]}) == config_digest({"b": [2, 3], "a": 1})

    def test_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_sensitive_to_keys(self):
        assert config_digest({"a": 1}) != config_digest({"b": 1})

    def test_nested_mappings_sorted(self):
        left = config_digest({"outer": {"x": 1, "y": 2}})
        right = config_digest({"outer": {"y": 2, "x": 1}})
        assert left == right

    def test_non_json_leaves_fall_back_to_str(self):
        from pathlib import Path

        assert config_digest({"p": Path("/tmp/x")}) == config_digest({"p": "/tmp/x"})

    def test_full_sha1_length(self):
        assert len(config_digest({})) == 40


class TestKeyDigest:
    def test_matches_historic_spill_name_derivation(self):
        # The golden-cache spillover files of existing directories must keep
        # resolving: the helper must digest exactly repr(key).
        key = ("golden", "abcd1234", 0, (1, 2, 3), "ffff")
        assert key_digest(key) == hashlib.sha1(repr(key).encode("utf-8")).hexdigest()

    def test_distinct_keys_distinct_digests(self):
        assert key_digest(("a", 1)) != key_digest(("a", 2))


class TestBytesDigest:
    def test_short_form(self):
        digest = bytes_digest(b"payload")
        assert len(digest) == SHORT_DIGEST_LENGTH
        assert digest == hashlib.sha1(b"payload").hexdigest()[:SHORT_DIGEST_LENGTH]

    def test_custom_length(self):
        assert len(bytes_digest(b"payload", length=8)) == 8


class TestModelFingerprint:
    @pytest.fixture(scope="class")
    def model(self):
        return lenet5(num_classes=10, seed=0)

    def test_deterministic_for_equal_weights(self, model):
        other = lenet5(num_classes=10, seed=0)
        assert model_fingerprint(model) == model_fingerprint(other)

    def test_sensitive_to_weights(self, model):
        other = lenet5(num_classes=10, seed=1)
        assert model_fingerprint(model) != model_fingerprint(other)

    def test_sensitive_to_single_element_change(self, model):
        before = model_fingerprint(model)
        param = next(iter(model.named_parameters()))[1]
        original = param.data.ravel()[0]
        param.data.ravel()[0] = original + 1.0
        try:
            assert model_fingerprint(model) != before
        finally:
            param.data.ravel()[0] = original
        assert model_fingerprint(model) == before

    def test_short_form_length(self, model):
        assert len(model_fingerprint(model)) == SHORT_DIGEST_LENGTH

    def test_matches_campaign_core_fingerprint(self, model):
        # The fingerprint in a campaign lane's golden-cache keys must be the
        # same digest (spillover recorded by older runs must keep matching).
        reference = hashlib.sha1()
        for name, param in model.named_parameters():
            reference.update(name.encode("utf-8"))
            reference.update(param.data.tobytes())
        assert model_fingerprint(model) == reference.hexdigest()[:16]

    def test_numpy_array_params_supported(self):
        class Param:
            def __init__(self, values):
                self.data = np.asarray(values, dtype=np.float32)

        class Tiny:
            def named_parameters(self):
                yield "w", Param([1.0, 2.0])

        assert len(model_fingerprint(Tiny())) == SHORT_DIGEST_LENGTH
