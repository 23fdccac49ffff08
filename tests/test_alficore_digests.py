"""Tests for the shared content-digest helpers (`repro.alficore.digests`).

The module is the single implementation behind the committed shards'
configuration guard, the golden cache's spillover names, the campaign core's
model identities and the campaign store's run IDs — so its stability
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
    state_digest,
)
from repro.alficore.monitoring import RangeMonitor
from repro.experiments.registry import MODELS
from repro.models import build_model, lenet5
from repro.nn import ReLU, Sequential, Tanh
from repro.nn.module import Module, Parameter


class Scaled(Module):
    """One parameter, one buffer and one plain attribute."""

    def __init__(self, scale=0.5):
        super().__init__()
        self.weight = Parameter(np.arange(4, dtype=np.float32))
        self.register_buffer("mean", np.ones(2))
        self.scale = scale

    def forward(self, x):
        return x * self.scale


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

    def test_sensitive_to_bn_running_statistics(self):
        model = build_model("resnet18", num_classes=10, seed=0)
        before = model_fingerprint(model)
        model.stem[1].running_var[0] *= 2.0
        assert model_fingerprint(model) != before

    def test_short_form_length(self, model):
        assert len(model_fingerprint(model)) == SHORT_DIGEST_LENGTH

    def test_matches_campaign_core_fingerprint(self):
        # The identity in a campaign lane's golden-cache keys, plan key and
        # head features, byte for byte: parameters, then buffers, then per
        # module its name, type and plain attributes sorted by name.
        model = Scaled().eval()
        reference = hashlib.sha1()
        reference.update(b"weight")
        reference.update(model.weight.data.tobytes())
        reference.update(b"mean")
        reference.update(model.mean.tobytes())
        reference.update(f":{Scaled.__module__}.Scaled;".encode())
        reference.update(b"scale=float:0.5;training=bool:False;")
        assert model_fingerprint(model) == reference.hexdigest()[:16]

    def test_numpy_array_params_supported(self):
        class Param:
            def __init__(self, values):
                self.data = np.asarray(values, dtype=np.float32)

        class Tiny:
            def named_parameters(self):
                yield "w", Param([1.0, 2.0])

            def named_modules(self):
                yield "", self

        assert len(model_fingerprint(Tiny())) == SHORT_DIGEST_LENGTH

    def test_sensitive_to_plain_attributes_and_module_types(self):
        assert model_fingerprint(Scaled(0.5)) != model_fingerprint(Scaled(0.25))
        assert model_fingerprint(Scaled().eval()) != model_fingerprint(Scaled().train())
        relu, tanh = Sequential(Scaled(), ReLU()), Sequential(Scaled(), Tanh())
        assert model_fingerprint(relu) != model_fingerprint(tanh)

    def test_reads_arrays_generators_and_back_references(self):
        model = Sequential(Scaled(), Scaled())
        model[0].table = (np.float32(1.5), [np.arange(3)], None, "mode")
        model[0].rng = np.random.default_rng(7)
        object.__setattr__(model[1], "peer", model[0])
        before = model_fingerprint(model)
        assert model_fingerprint(model) == before
        model[0].rng.random()
        assert model_fingerprint(model) != before
        model[0].rng = np.random.default_rng(7)
        assert model_fingerprint(model) == before
        object.__setattr__(model[1], "peer", model[1])
        assert model_fingerprint(model) != before

    @pytest.mark.parametrize(
        "value, kind",
        [
            (lambda x: x, "function"),
            ({"a": 1}, "dict"),
            ((1, {2}), "set"),
            (np.array([object()]), "object array"),
            (Scaled(), "Scaled"),
        ],
    )
    def test_an_attribute_outside_the_rule_refuses(self, value, kind):
        model = Sequential(Scaled())
        object.__setattr__(model[0], "extra", value)
        with pytest.raises(TypeError, match=f"^0.extra: .*{kind}"):
            model_fingerprint(model)

    def test_every_registry_model_has_an_identity(self):
        # A model that refused would silently lose its golden cache, its
        # head-feature seeding and its recorded plan.
        for name in MODELS:
            model = MODELS.get(name)(seed=0).eval()
            before = model_fingerprint(model)
            assert len(before) == SHORT_DIGEST_LENGTH
            model(np.zeros((1, 3, 32, 32), dtype=np.float32))
            assert model_fingerprint(model) == before, name


class TestStateDigest:
    def test_none_without_objects(self):
        assert state_digest([]) == "none"

    def test_type_and_attributes(self):
        assert state_digest([RangeMonitor(10.0)]) == state_digest([RangeMonitor(10.0)])
        assert state_digest([RangeMonitor(10.0)]) != state_digest([RangeMonitor(5.0)])

        class Bound:
            def __init__(self, bound):
                self.bound = bound

        assert state_digest([RangeMonitor(10.0)]) != state_digest([Bound(10.0)])

    @pytest.mark.parametrize(
        "monitor", [lambda name, output: None, print, RangeMonitor(1.0).__call__]
    )
    def test_callables_without_vars_refuse(self, monitor):
        with pytest.raises(TypeError, match="not in vars"):
            state_digest([RangeMonitor(1.0), monitor])
