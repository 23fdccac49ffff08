"""Unit tests for the classification model zoo."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    MODEL_REGISTRY,
    alexnet,
    build_model,
    lenet5,
    mlp,
    resnet18,
    resnet50,
    vgg11,
    vgg16,
)


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(0).normal(size=(2, 3, 32, 32)).astype(np.float32)


class TestFactoryFunctions:
    @pytest.mark.parametrize("factory", [mlp, lenet5, alexnet, vgg11, resnet18])
    def test_forward_output_shape(self, factory, batch):
        model = factory(num_classes=7).eval()
        out = model(batch)
        assert out.shape == (2, 7)
        assert np.isfinite(out).all()

    def test_vgg16_forward(self, batch):
        out = vgg16(num_classes=10).eval()(batch)
        assert out.shape == (2, 10)

    def test_resnet50_forward(self, batch):
        out = resnet50(num_classes=10).eval()(batch)
        assert out.shape == (2, 10)

    def test_same_seed_same_weights(self, batch):
        a = lenet5(seed=3).eval()
        b = lenet5(seed=3).eval()
        np.testing.assert_allclose(a(batch), b(batch))

    def test_different_seed_different_weights(self, batch):
        a = lenet5(seed=1).eval()
        b = lenet5(seed=2).eval()
        assert not np.allclose(a(batch), b(batch))

    def test_registry_contains_paper_models(self):
        assert {"alexnet", "vgg16", "resnet50"} <= set(MODEL_REGISTRY)

    def test_legacy_registries_are_read_only(self):
        # New models go through repro.experiments.register_model.
        from repro.models.detection import DETECTOR_REGISTRY

        for registry in (MODEL_REGISTRY, DETECTOR_REGISTRY):
            with pytest.raises(TypeError):
                registry["custom"] = lenet5
            with pytest.raises(TypeError):
                del registry["lenet5"]
            with pytest.raises(AttributeError):
                registry.update({"custom": lenet5})
        assert "custom" not in MODEL_REGISTRY and "custom" not in DETECTOR_REGISTRY

    def test_build_model_by_name(self, batch):
        model = build_model("lenet5", num_classes=4).eval()
        assert model(batch).shape == (2, 4)

    def test_build_model_unknown_name(self):
        with pytest.raises(KeyError):
            build_model("transformer9000")


class TestArchitectureShapes:
    def _count_layers(self, model, layer_class):
        return sum(1 for _, module in model.named_modules() if isinstance(module, layer_class))

    def test_alexnet_layer_counts(self):
        model = alexnet()
        assert self._count_layers(model, nn.Conv2d) == 5
        assert self._count_layers(model, nn.Linear) == 3

    def test_vgg16_layer_counts(self):
        model = vgg16()
        assert self._count_layers(model, nn.Conv2d) == 13
        assert self._count_layers(model, nn.Linear) == 3

    def test_vgg11_layer_counts(self):
        model = vgg11()
        assert self._count_layers(model, nn.Conv2d) == 8

    def test_resnet50_block_structure(self):
        model = resnet50()
        # 1 stem + 3*(3+4+6+3) bottleneck convs + downsample convs (4 stages)
        conv_count = self._count_layers(model, nn.Conv2d)
        assert conv_count == 1 + 3 * (3 + 4 + 6 + 3) + 4
        assert self._count_layers(model, nn.Linear) == 1

    def test_resnet18_block_structure(self):
        model = resnet18()
        conv_count = self._count_layers(model, nn.Conv2d)
        assert conv_count == 1 + 2 * (2 + 2 + 2 + 2) + 3

    def test_lenet_layer_counts(self):
        model = lenet5()
        assert self._count_layers(model, nn.Conv2d) == 2
        assert self._count_layers(model, nn.Linear) == 3

    def test_width_scaling_reduces_parameters(self):
        wide = alexnet(width=0.5)
        narrow = alexnet(width=0.25)
        assert narrow.num_parameters() < wide.num_parameters()

    def test_vgg_rejects_unknown_config(self):
        from repro.models.classification import VGG

        with pytest.raises(ValueError):
            VGG("vgg99")


class TestRelativeLayerSizes:
    def test_resnet_deeper_layers_have_more_weights(self):
        """Later ResNet stages use more channels, hence more weights per conv."""
        model = resnet50()
        conv_sizes = [
            module.weight.size
            for _, module in model.named_modules()
            if isinstance(module, nn.Conv2d)
        ]
        assert max(conv_sizes[-5:]) > max(conv_sizes[:5])
