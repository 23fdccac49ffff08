"""Differential tests: production ``repro.nn.functional`` kernels vs the frozen oracles.

The tap-loop / explicit-GEMM kernels replaced the generic-numpy ones
(``sliding_window_view`` pooling, ``as_strided`` im2col, ``einsum`` conv) on
the promise that they do the same arithmetic in the same order.  This file is
the guard for that promise: every kernel is run against its frozen
predecessor in ``tests/oracles/kernels_v0.py`` on generated inputs — a seeded
loop, so a failure names a case index that reproduces it — and whole
campaigns are run with the oracles swapped into ``repro.nn.functional`` and
compared file for file.  The end-to-end benchmark's oracle shares the
production kernels and cannot see a kernel bit change; these tests can.

``conv2d`` and ``linear`` are compared with the frozen kernel applied *sample
by sample* (``kernels_v0.per_sample``): production issues one GEMM per sample
so that no row depends on the batch it sits in
(``tests/test_nn_batch_invariance.py``), and what the frozen kernels pin is
the batch-1 arithmetic of every row.

**Contract.**  On NaN-free outputs the bytes are equal.  Where NaNs appear,
their *positions* are equal and the bytes everywhere else are equal.  NaN
payload (and sign) bits are **not** part of the contract: which operand's
payload a ``maximum`` or an ``add`` propagates depends on the instruction
numpy happens to dispatch to, the frozen ``_pool2d`` and ``_pool2d_reference``
already disagree on them, and no result file can show a payload (records hold
``nan``, flags and decoded classes/boxes).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import Experiment, run
from repro.nn import functional as F
from tests.oracles import kernels_v0

CASES = 320  # per kernel; the issue asks for >= 300
FIXTURES = Path(__file__).parent / "fixtures"

frozen_conv2d = kernels_v0.per_sample(kernels_v0.conv2d)
frozen_linear = kernels_v0.per_sample(kernels_v0.linear)


# --------------------------------------------------------------------------- #
# generated inputs
# --------------------------------------------------------------------------- #
def _values(rng: np.random.Generator, shape, special: bool) -> np.ndarray:
    """Normal float32 values; with ``special``, +-0.0, +-inf and payload NaNs mixed in."""
    values = rng.standard_normal(shape).astype(np.float32)
    if special:
        pick = rng.random(shape)
        values[pick < 0.30] = 0.0
        values[pick < 0.15] = -0.0
        values[(pick > 0.90) & (pick < 0.93)] = np.inf
        values[(pick > 0.93) & (pick < 0.96)] = -np.inf
        nan_at = np.flatnonzero(pick > 0.985)
        # Quiet NaNs of both signs, every one with its own payload.
        payloads = 0x7FC00000 | (rng.integers(0, 2, nan_at.size) << 31) | (nan_at % 0x3FFFFF + 1)
        values.reshape(-1)[nan_at] = payloads.astype(np.uint32).view(np.float32)
    return values


def _relayout(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """The same values under a contiguous, a strided or a transposed memory layout."""
    choice = rng.integers(0, 3)
    if choice == 0 or values.ndim < 2:
        return values
    if choice == 1:  # every second element of a wider buffer, offset by one
        wide = np.empty(values.shape[:-1] + (2 * values.shape[-1] + 1,), dtype=values.dtype)
        view = wide[..., 1::2]
        view[...] = values
        return view
    axes = rng.permutation(values.ndim)  # e.g. NHWC memory behind an NCHW view
    view = np.empty(tuple(values.shape[a] for a in axes), dtype=values.dtype)
    view = view.transpose(np.argsort(axes))
    view[...] = values
    return view


def _conv_geometry(rng: np.random.Generator):
    """Batch 1/2/16, odd H != W, kernel 1/2/3/5/7 (or rectangular), stride 1-3, padding 0-3."""
    n = int(rng.choice([1, 2, 16]))
    kh = int(rng.choice([1, 2, 3, 5, 7]))
    kw = kh if rng.random() < 0.6 else int(rng.choice([1, 2, 3, 5, 7]))
    stride = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    padding = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    h = 2 * int(rng.integers(max(kh // 2, 1), 8)) + 1
    w = 2 * int(rng.integers(max(kw // 2, 1), 9)) + 1
    if h == w:
        w += 2
    return n, (kh, kw), stride, padding, h, w


def assert_same_bits(actual: np.ndarray, expected: np.ndarray, context: str) -> None:
    """Byte equality; under NaNs, equal NaN positions and equal bytes elsewhere."""
    assert actual.dtype == expected.dtype == np.float32, context
    assert actual.shape == expected.shape, context
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan), f"NaN positions differ: {context}"
    a = np.where(nan, np.float32(0), actual).tobytes()
    b = np.where(nan, np.float32(0), expected).tobytes()
    assert a == b, f"bits differ: {context}"


# --------------------------------------------------------------------------- #
# kernel by kernel
# --------------------------------------------------------------------------- #
class TestKernelsMatchFrozenOracles:
    def test_im2col(self):
        rng = np.random.default_rng(1301)
        for case in range(CASES):
            n, kernel, stride, padding, h, w = _conv_geometry(rng)
            c = int(rng.integers(1, 5))
            x = _relayout(rng, _values(rng, (n, c, h, w), special=case % 2 == 1))
            context = f"case {case}: x{x.shape} k{kernel} s{stride} p{padding} strides{x.strides}"
            columns, out_h, out_w = F.im2col(x, kernel, stride, padding)
            frozen, frozen_h, frozen_w = kernels_v0.im2col(x, kernel, stride, padding)
            assert (out_h, out_w) == (frozen_h, frozen_w), context
            assert columns.flags.c_contiguous, context
            # A pure gather: payloads survive too, so compare the raw words.
            assert columns.view(np.uint32).tobytes() == frozen.view(np.uint32).tobytes(), context

    def test_conv2d(self):
        rng = np.random.default_rng(1302)
        for case in range(CASES):
            n, (kh, kw), stride, padding, h, w = _conv_geometry(rng)
            groups = int(rng.choice([1, 2, 0]))  # 0: depthwise, groups == C
            per_group = int(rng.integers(1, 4))
            c = per_group * groups if groups else int(rng.integers(1, 5))
            groups = groups or c
            out_channels = groups * int(rng.integers(1, 4))
            x = _relayout(rng, _values(rng, (n, c, h, w), special=case % 2 == 1))
            weight = _relayout(
                rng, _values(rng, (out_channels, c // groups, kh, kw), special=case % 4 == 3)
            )
            bias = _values(rng, (out_channels,), special=False) if case % 3 else None
            context = (
                f"case {case}: x{x.shape} w{weight.shape} s{stride} p{padding} "
                f"groups={groups} bias={bias is not None}"
            )
            with np.errstate(invalid="ignore"):
                actual = F.conv2d(x, weight, bias, stride, padding, groups)
                expected = frozen_conv2d(x, weight, bias, stride, padding, groups)
            assert actual.flags.c_contiguous, context
            if (c // groups) * kh * kw == 1:
                # A contraction over a single element: recent numpy's einsum
                # turns it into an elementwise multiply (older ones issued
                # the GEMM), which keeps the -0.0 of ``-w * 0.0`` where a
                # GEMM's ``0 + w * x`` accumulator yields +0.0.  The explicit
                # GEMM is the version-independent one of the two.
                expected = expected + np.float32(0)
            assert_same_bits(actual, expected, context)

    def test_conv2d_kernel_layout_never_reaches_blas(self):
        # Regression fixture: sample 0 of case 85 above (seed 1302), the one
        # case of the 320 that disagreed with the frozen kernel -- by 2 ulp
        # in one element, at batch 1 as well, so not a batching effect.  Two
        # groups with one output channel each, and a kernel in (I, kh, kw, O)
        # memory order: each group's (1, f) kernel row reshaped to a *view*
        # with a stride of two elements, numpy handed it to GEMV as an
        # increment, and OpenBLAS sums a strided vector in another order than
        # a dense one.  ``conv2d`` now makes the kernel contiguous first, as
        # the reduction kernels do with their input; for a dense kernel
        # (every model's) nothing changed.
        case = np.load(FIXTURES / "conv2d_strided_kernel_row.npz")
        x, dense, bias = case["x"], case["weight"], case["bias"]
        strided = np.empty((2, 7, 7, 2), dtype=np.float32).transpose(3, 0, 1, 2)
        strided[...] = dense
        assert strided.reshape(2, 1, 98).base is not None  # the reshape is a view
        with np.errstate(invalid="ignore"):
            expected = kernels_v0.conv2d(x, dense, bias, (2, 3), (3, 0), groups=2)
            for weight in (dense, strided):
                actual = F.conv2d(x, weight, bias, (2, 3), (3, 0), groups=2)
                assert_same_bits(actual, expected, f"kernel strides {weight.strides}")

    def test_conv2d_at_model_sizes(self):
        # The sizes the registry models run: BLAS picks other code paths for
        # them than for the toy shapes above.
        rng = np.random.default_rng(1303)
        shapes = [
            (1, 3, 32, 32, 64, 3, 1, 1),
            (1, 64, 32, 32, 64, 3, 1, 1),
            (16, 3, 32, 32, 16, 7, 2, 3),
            (1, 128, 8, 8, 256, 3, 1, 1),
            (2, 256, 4, 4, 128, 1, 1, 0),
            (16, 64, 8, 8, 64, 1, 1, 0),
            (1, 16, 64, 64, 32, 3, 2, 1),
        ]
        for n, c, h, w, o, k, s, p in shapes:
            x = _values(rng, (n, c, h, w), special=False)
            weight = _values(rng, (o, c, k, k), special=False)
            bias = _values(rng, (o,), special=False)
            context = f"x{x.shape} w{weight.shape} s{s} p{p}"
            assert_same_bits(
                F.conv2d(x, weight, bias, s, p), frozen_conv2d(x, weight, bias, s, p), context
            )

    # Output maps from one to 64 cache lines a row, power-of-two and odd.
    MAPS = [(4, 4), (1, 31), (4, 8), (8, 8), (15, 15), (16, 16), (32, 32)]

    def test_conv2d_on_a_batch_at_every_map_size(self):
        rng = np.random.default_rng(1309)
        for n in (2, 16):
            for h, w in self.MAPS:
                for k, p in ((3, 1), (1, 0)):  # same-size 3x3, and pointwise
                    x = _values(rng, (n, 5, h, w), special=False)
                    weight = _values(rng, (7, 5, k, k), special=False)
                    bias = _values(rng, (7,), special=False)
                    context = f"x{x.shape} w{weight.shape} p{p}"
                    actual = F.conv2d(x, weight, bias, 1, p)
                    assert actual.shape == (n, 7, h, w) and actual.flags.c_contiguous, context
                    assert_same_bits(actual, frozen_conv2d(x, weight, bias, 1, p), context)

    @pytest.mark.parametrize("mode", ["max", "avg"])
    def test_pool2d(self, mode):
        rng = np.random.default_rng(1304)
        for case in range(CASES):
            n, (kh, kw), stride, _, h, w = _conv_geometry(rng)
            padding = (int(rng.integers(0, kh // 2 + 1)), int(rng.integers(0, kw // 2 + 1)))
            stride = stride if case % 5 else None  # None: stride = kernel
            c = int(rng.integers(1, 5))
            x = _relayout(rng, _values(rng, (n, c, h + kh, w + kw), special=case % 2 == 1))
            context = f"case {case}: {mode} x{x.shape} k{(kh, kw)} s{stride} p{padding}"
            with np.errstate(invalid="ignore"):
                actual = F._pool2d(x, (kh, kw), stride, padding, mode)
                frozen = kernels_v0._pool2d(x, (kh, kw), stride, padding, mode)
                naive = kernels_v0._pool2d_reference(x, (kh, kw), stride, padding, mode)
            assert actual.flags.c_contiguous, context
            assert_same_bits(actual, naive, context + " vs naive loop")
            # With a single output column numpy re-plans the frozen kernel's
            # mean(axis=(4, 5)) into another summation order than the one it
            # (and the naive loop) documents; the tap loop keeps the
            # documented order for every shape.
            if mode == "max" or actual.shape[3] > 1:
                assert_same_bits(actual, frozen, context + " vs sliding_window_view")

    def test_batch_norm2d(self):
        rng = np.random.default_rng(1305)
        for case in range(CASES):
            n, _, _, _, h, w = _conv_geometry(rng)
            c = int(rng.integers(1, 6))
            x = _relayout(rng, _values(rng, (n, c, h, w), special=case % 2 == 1))
            mean = _values(rng, (c,), special=False)
            var = np.abs(_values(rng, (c,), special=False)) + np.float32(case % 7 == 0)
            weight = _values(rng, (c,), special=case % 4 == 3) if case % 3 else None
            bias = _values(rng, (c,), special=False) if case % 5 else None
            context = f"case {case}: x{x.shape} weight={weight is not None} bias={bias is not None}"
            with np.errstate(invalid="ignore"):
                actual = F.batch_norm2d(x, mean, var, weight, bias)
                expected = kernels_v0.batch_norm2d(x, mean, var, weight, bias)
            assert_same_bits(actual, expected, context)

    def test_leaky_relu(self):
        rng = np.random.default_rng(1306)
        for case in range(CASES):
            n, _, _, _, h, w = _conv_geometry(rng)
            values = _values(rng, (n, int(rng.integers(1, 5)), h, w), case % 2 == 1)
            if case % 4 == 3:
                # Denormals of both signs (slope * x underflows to a signed
                # zero) and signalling NaNs (what an exponent flip of a stored
                # activation leaves; only arithmetic quiets them).
                pick = rng.random(values.shape)
                words = values.view(np.uint32)
                sign = rng.integers(0, 2, values.shape, dtype=np.uint32) << 31
                mantissa = rng.integers(1, 0x400000, values.shape, dtype=np.uint32)
                words[pick < 0.10] = (sign | mantissa)[pick < 0.10]
                words[pick > 0.97] = (sign | 0x7F800000 | mantissa)[pick > 0.97]
            x = _relayout(rng, values)
            # The two-pass maximum serves 0 < slope <= 1; 0.0 (0 * inf is NaN),
            # negative and > 1 slopes must keep the select.
            slope = float(rng.choice([0.01, 0.1, 0.2, 0.0, -0.5, 1.0, 1.5, -0.1]))
            actual = F.leaky_relu(x, slope)
            assert actual is not x and not np.shares_memory(actual, x)
            assert_same_bits(actual, kernels_v0.leaky_relu(x, slope), f"case {case}: slope {slope}")

    def test_linear(self):
        rng = np.random.default_rng(1307)
        for case in range(CASES):
            n = int(rng.choice([1, 2, 16]))
            features, out = int(rng.integers(1, 200)), int(rng.integers(1, 40))
            x = _relayout(rng, _values(rng, (n, features), special=case % 2 == 1))
            weight = _relayout(rng, _values(rng, (out, features), special=False))
            bias = _values(rng, (out,), special=False) if case % 3 else None
            with np.errstate(invalid="ignore"):
                actual = F.linear(x, weight, bias)
                expected = frozen_linear(x, weight, bias)
            assert_same_bits(actual, expected, f"case {case}: x{x.shape} w{weight.shape}")

    def test_kernels_never_write_their_input(self):
        # The in-place forms work on a buffer the kernel allocated itself.
        x = _values(np.random.default_rng(1308), (2, 4, 9, 11), special=True)
        ones = np.ones(4, dtype=np.float32)
        before = x.view(np.uint32).copy()
        with np.errstate(invalid="ignore"):
            F.batch_norm2d(x, ones, ones, ones, ones)
            F.leaky_relu(x, 0.1)
            F.max_pool2d(x, 2)
            F.avg_pool2d(x, 3, 1, 1)
            F.conv2d(x, np.ones((4, 4, 1, 1), dtype=np.float32), ones)
            F.linear(x.reshape(2, -1), np.ones((3, 4 * 9 * 11), dtype=np.float32), ones[:3])
        assert np.array_equal(x.view(np.uint32), before)


# --------------------------------------------------------------------------- #
# whole campaigns
# --------------------------------------------------------------------------- #
def _classification_spec(output_dir):
    return (
        Experiment.builder()
        .name("lenet5")
        .model("lenet5", num_classes=10, seed=0)
        .dataset("synthetic-classification", num_samples=6, num_classes=10, noise=0.25, seed=1)
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=1234,
            model_name="lenet5", dataset_size=6,
        )
        .output_dir(output_dir)
        .build()
    )


def _detection_spec(output_dir):
    return (
        Experiment.builder()
        .name("yolov3")
        .task("detection")
        .model("yolov3", num_classes=5, seed=1)
        .dataset("synthetic-coco", num_samples=3, num_classes=5, seed=9)
        .scenario(
            injection_target="weights", rnd_bit_range=(23, 30), random_seed=77,
            model_name="yolov3", dataset_size=3,
        )
        .output_dir(output_dir)
        .build()
    )


@pytest.mark.parametrize("make_spec", [_classification_spec, _detection_spec], ids=["lenet5", "yolov3"])
def test_campaign_files_equal_under_frozen_kernels(make_spec, tmp_path, monkeypatch):
    """A campaign run on the frozen kernels writes the same result bytes."""
    production = run(make_spec(tmp_path / "production"))
    with monkeypatch.context() as patch:
        kernels_v0.install(patch)
        assert F.im2col is kernels_v0.im2col and F._pool2d is kernels_v0._pool2d
        frozen = run(make_spec(tmp_path / "frozen"))
    assert F.im2col is not kernels_v0.im2col
    assert production.output_files and sorted(production.output_files) == sorted(frozen.output_files)
    for tag, path in production.output_files.items():
        if Path(path).suffix in (".csv", ".json"):
            assert Path(path).read_bytes() == Path(frozen.output_files[tag]).read_bytes(), tag
