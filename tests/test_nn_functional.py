"""Unit tests for the functional operations (conv, pooling, activations)."""

import numpy as np
import pytest

from repro.nn import functional as F
from tests.oracles import kernels_v0


def naive_conv2d(x, weight, bias, stride, padding):
    """Straightforward quadruple-loop reference convolution."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    x_padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for oc in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_padded[ni, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[ni, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[ni, oc] += bias[oc]
    return out.astype(np.float32)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((1, 2), (2, 0))])
    def test_matches_naive_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        weight = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bias = rng.normal(size=(4,)).astype(np.float32)
        expected = naive_conv2d(x, weight, bias, stride, padding)
        actual = F.conv2d(x, weight, bias, stride, padding)
        np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)

    def test_no_bias(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        weight = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        expected = naive_conv2d(x, weight, None, (1, 1), (0, 0))
        np.testing.assert_allclose(F.conv2d(x, weight), expected, rtol=1e-4, atol=1e-5)

    def test_output_shape(self):
        x = np.zeros((2, 3, 32, 32), dtype=np.float32)
        weight = np.zeros((8, 3, 3, 3), dtype=np.float32)
        out = F.conv2d(x, weight, stride=2, padding=1)
        assert out.shape == (2, 8, 16, 16)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 3, 8, 8)), np.zeros((4, 2, 3, 3)))

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((3, 8, 8)), np.zeros((4, 3, 3, 3)))

    def test_too_large_kernel_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 6, 6)))

    def test_identity_kernel(self):
        x = np.random.default_rng(2).normal(size=(1, 1, 6, 6)).astype(np.float32)
        weight = np.zeros((1, 1, 1, 1), dtype=np.float32)
        weight[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(F.conv2d(x, weight), x)


class TestConv3d:
    def test_reduces_to_summed_conv2d(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 3, 6, 6)).astype(np.float32)
        weight = rng.normal(size=(4, 2, 1, 3, 3)).astype(np.float32)
        out3d = F.conv3d(x, weight)
        # kd=1 means each depth slice is an independent conv2d.
        for d in range(3):
            expected = F.conv2d(x[:, :, d], weight[:, :, 0])
            np.testing.assert_allclose(out3d[:, :, d], expected, rtol=1e-4, atol=1e-5)

    def test_output_shape(self):
        x = np.zeros((2, 3, 4, 8, 8), dtype=np.float32)
        weight = np.zeros((5, 3, 2, 3, 3), dtype=np.float32)
        out = F.conv3d(x, weight, padding=(0, 1, 1))
        assert out.shape == (2, 5, 3, 8, 8)

    def test_bias_added(self):
        x = np.zeros((1, 1, 2, 4, 4), dtype=np.float32)
        weight = np.zeros((2, 1, 1, 3, 3), dtype=np.float32)
        bias = np.array([1.5, -2.0], dtype=np.float32)
        out = F.conv3d(x, weight, bias)
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)


class TestLinear:
    def test_matches_matmul(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 7)).astype(np.float32)
        weight = rng.normal(size=(3, 7)).astype(np.float32)
        bias = rng.normal(size=(3,)).astype(np.float32)
        np.testing.assert_allclose(F.linear(x, weight, bias), x @ weight.T + bias, rtol=1e-5)

    def test_feature_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.linear(np.zeros((2, 5)), np.zeros((3, 4)))


class TestActivations:
    def test_relu(self):
        np.testing.assert_array_equal(F.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        out = F.leaky_relu(np.array([-10.0, 5.0], dtype=np.float32), 0.1)
        np.testing.assert_allclose(out, [-1.0, 5.0])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-20, 20, 41).astype(np.float32)
        s = F.sigmoid(x)
        assert np.all(s >= 0) and np.all(s <= 1)
        np.testing.assert_allclose(s + F.sigmoid(-x), 1.0, atol=1e-6)

    def test_sigmoid_extreme_values_no_overflow(self):
        out = F.sigmoid(np.array([-1e30, 1e30], dtype=np.float32))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 9)).astype(np.float32)
        np.testing.assert_allclose(F.softmax(x, axis=1).sum(axis=1), 1.0, rtol=1e-5)

    def test_softmax_stability_large_values(self):
        out = F.softmax(np.array([[1e30, 0.0]], dtype=np.float64))
        assert np.isfinite(out).all()

    def test_log_softmax_consistency(self):
        x = np.random.default_rng(6).normal(size=(3, 5)).astype(np.float32)
        np.testing.assert_allclose(np.exp(F.log_softmax(x)), F.softmax(x), rtol=1e-4)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]], dtype=np.float32)
        assert F.cross_entropy(logits, np.array([0, 1])) < 1e-3


class TestPooling:
    def test_max_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(x, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avg_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_stride_one(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        out = F.max_pool2d(x, 2, stride=1)
        assert out.shape == (1, 1, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[4, 5], [7, 8]])

    def test_max_pool_padding_uses_neg_inf(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = F.max_pool2d(x, 2, stride=2, padding=1)
        # Padding must not introduce zeros that beat the real (negative) values.
        assert out.max() == -1.0

    def test_adaptive_avg_pool_to_one(self):
        x = np.random.default_rng(7).normal(size=(2, 3, 7, 5)).astype(np.float32)
        out = F.adaptive_avg_pool2d(x, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)), rtol=1e-5)

    def test_adaptive_avg_pool_identity(self):
        x = np.random.default_rng(8).normal(size=(1, 2, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(F.adaptive_avg_pool2d(x, 4), x, rtol=1e-6)

    def test_upsample_nearest(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        out = F.upsample_nearest(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out[0, 0, :2, :2], [[1, 1], [1, 1]])
        np.testing.assert_array_equal(out[0, 0, 2:, 2:], [[4, 4], [4, 4]])


class TestNormalisationAndShaping:
    def test_batch_norm_normalises(self):
        x = np.random.default_rng(9).normal(loc=5.0, scale=3.0, size=(4, 2, 8, 8)).astype(np.float32)
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        out = F.batch_norm2d(x, mean, var)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_batch_norm_affine(self):
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        out = F.batch_norm2d(x, np.zeros(2), np.ones(2), weight=np.array([2.0, 3.0]), bias=np.array([1.0, -1.0]))
        np.testing.assert_allclose(out[0, 0], 2 * 1 / np.sqrt(1 + 1e-5) + 1, rtol=1e-5)

    def test_flatten(self):
        x = np.zeros((2, 3, 4, 5))
        assert F.flatten(x).shape == (2, 60)
        assert F.flatten(x, start_dim=2).shape == (2, 3, 20)


class TestPool2dVectorized:
    """The tap-loop pooling must match both frozen oracles: the naive
    window loop and the ``sliding_window_view`` kernel it replaced."""

    @pytest.mark.parametrize("mode", ["max", "avg"])
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [(2, None, 0), (3, 1, 0), (3, 2, 1), ((2, 3), (1, 2), (0, 1)), (4, 3, 2)],
    )
    def test_matches_reference_loop(self, mode, kernel, stride, padding):
        x = np.random.default_rng(42).normal(size=(2, 3, 11, 13)).astype(np.float32)
        fast = F._pool2d(x, kernel, stride, padding, mode)
        slow = kernels_v0._pool2d_reference(x, kernel, stride, padding, mode)
        np.testing.assert_array_equal(fast, slow)
        assert fast.tobytes() == kernels_v0._pool2d(x, kernel, stride, padding, mode).tobytes()

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_matches_reference_with_nonfinite_values(self, mode):
        x = np.random.default_rng(7).normal(size=(1, 2, 8, 8)).astype(np.float32)
        x[0, 0, 2, 3] = np.inf
        x[0, 1, 5, 5] = -np.inf
        fast = F._pool2d(x, 2, 2, 0, mode)
        slow = kernels_v0._pool2d_reference(x, 2, 2, 0, mode)
        np.testing.assert_array_equal(fast, slow)
        assert fast.tobytes() == kernels_v0._pool2d(x, 2, 2, 0, mode).tobytes()

    def test_reference_and_fast_reject_non_4d(self):
        for pool in (F._pool2d, kernels_v0._pool2d, kernels_v0._pool2d_reference):
            with pytest.raises(ValueError):
                pool(np.zeros((2, 3, 4)), 2, None, 0, "max")
