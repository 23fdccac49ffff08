"""Frozen ``repro.nn.functional`` kernels, generation 0 — test oracles only.

These are the kernel bodies as they stood before the tap-loop / explicit-GEMM
rewrite (PR 13), copied verbatim: ``im2col`` through a 6-D ``as_strided``
view, ``conv2d`` through ``np.einsum(..., optimize=True)``, ``_pool2d``
through ``sliding_window_view``, and the allocating ``batch_norm2d`` /
``leaky_relu`` / ``linear``.  ``_pool2d_reference`` is the naive per-window
loop that used to live in ``src/`` beside ``_pool2d``.

Production code must never import this module.  The differential tests in
``tests/test_nn_kernels_differential.py`` assert the production kernels are
byte-identical to these on generated inputs, and ``install`` swaps them into
``repro.nn.functional`` so whole campaigns can be compared file-for-file.
Do not "fix" or speed up anything here: the value of the file is that it does
not change.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import _pair, conv_output_size

# The production names ``install`` replaces (``max_pool2d`` / ``avg_pool2d``
# reach ``_pool2d`` through the module global, like ``conv2d`` reaches
# ``im2col``).
KERNELS = ("im2col", "conv2d", "linear", "leaky_relu", "_pool2d", "batch_norm2d")
# The two that contract over a batch-wide GEMM are the bit oracle sample by
# sample (see ``per_sample``); the rest never mixed samples.
PER_SAMPLE = ("conv2d", "linear")


def per_sample(kernel):
    """``kernel`` applied to one sample at a time, the rows stacked back up.

    The frozen ``conv2d`` / ``linear`` issue one contraction per *batch*, and
    BLAS picks its blocking from the batch size; production issues one per
    sample (PR 21), so what the frozen kernels pin is the batch-1 arithmetic,
    row by row.  The kernel bodies below stay as they were.
    """

    def row_by_row(x, *args, **kwargs):
        x = np.asarray(x)
        return np.concatenate([kernel(x[i : i + 1], *args, **kwargs) for i in range(len(x))])

    return row_by_row


def install(monkeypatch) -> None:
    """Swap every frozen kernel into ``repro.nn.functional`` for one test.

    ``conv2d`` and ``linear`` go in as their ``per_sample`` form.
    """
    for name in KERNELS:
        kernel = globals()[name]
        monkeypatch.setattr(F, name, per_sample(kernel) if name in PER_SAMPLE else kernel)


def im2col(
    images: np.ndarray,
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into columns for matmul-based convolution.

    Args:
        images: input of shape ``(N, C, H, W)``.
        kernel_size: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)`` zero padding.

    Returns:
        A tuple ``(columns, out_h, out_w)`` where ``columns`` has shape
        ``(N, C * kh * kw, out_h * out_w)``.
    """
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    if ph or pw:
        images = np.pad(images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")

    # Strided view over all (kh, kw) patches.
    stride_n, stride_c, stride_h, stride_w = images.strides
    patches = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(stride_n, stride_c, stride_h * sh, stride_w * sw, stride_h, stride_w),
        writeable=False,
    )
    columns = patches.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(columns), out_h, out_w


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    groups: int = 1,
) -> np.ndarray:
    """2D convolution with optional channel groups.

    Args:
        x: input of shape ``(N, C_in, H, W)``.
        weight: kernel of shape ``(C_out, C_in / groups, kh, kw)``.
        bias: optional per-output-channel bias of shape ``(C_out,)``.
        stride: stride as int or pair.
        padding: zero padding as int or pair.
        groups: number of channel groups; ``groups == C_in`` gives a
            depthwise convolution (MobileNet-style).

    Returns:
        Output of shape ``(N, C_out, H_out, W_out)``.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects 4D input (N, C, H, W), got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D weight (O, I, kh, kw), got shape {weight.shape}")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if x.shape[1] != weight.shape[1] * groups:
        raise ValueError(
            f"input channels ({x.shape[1]}) do not match weight channels "
            f"({weight.shape[1]}) * groups ({groups})"
        )
    if weight.shape[0] % groups != 0:
        raise ValueError(
            f"output channels ({weight.shape[0]}) must be divisible by groups ({groups})"
        )

    if groups > 1:
        in_per_group = x.shape[1] // groups
        out_per_group = weight.shape[0] // groups
        group_outputs = []
        for group in range(groups):
            group_input = x[:, group * in_per_group : (group + 1) * in_per_group]
            group_weight = weight[group * out_per_group : (group + 1) * out_per_group]
            group_outputs.append(conv2d(group_input, group_weight, None, stride, padding))
        output = np.concatenate(group_outputs, axis=1)
        if bias is not None:
            output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
        return output.astype(np.float32)

    out_channels, _, kh, kw = weight.shape
    columns, out_h, out_w = im2col(x, (kh, kw), _pair(stride), _pair(padding))
    kernel_matrix = weight.reshape(out_channels, -1)
    output = np.einsum("of,nfp->nop", kernel_matrix, columns, optimize=True)
    output = output.reshape(x.shape[0], out_channels, out_h, out_w)
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return output.astype(np.float32)


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Fully connected layer ``y = x @ W.T + b``.

    Args:
        x: input of shape ``(N, in_features)``.
        weight: weight of shape ``(out_features, in_features)``.
        bias: optional bias of shape ``(out_features,)``.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"linear expects 2D input (N, features), got shape {x.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ValueError(
            f"input features ({x.shape[1]}) do not match weight in_features ({weight.shape[1]})"
        )
    output = x @ weight.T
    if bias is not None:
        output = output + np.asarray(bias, dtype=np.float32)
    return output.astype(np.float32)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """Leaky ReLU with configurable negative slope."""
    x = np.asarray(x, dtype=np.float32)
    return np.where(x >= 0, x, negative_slope * x).astype(np.float32)


def _pool2d(x, kernel_size, stride, padding, mode: str) -> np.ndarray:
    """Vectorized pooling over all windows via ``sliding_window_view``.

    ``sliding_window_view`` materialises a bounds-checked view over every
    ``(kh, kw)`` window; striding is a cheap slice of that view, and the
    max/mean reduction runs once over the whole window volume instead of a
    python loop per output position.  :func:`_pool2d_reference` keeps the
    naive window loop as the correctness oracle (asserted equal in tests).

    The input is made contiguous first so the windowed reduction order — and
    with it the result bits — do not depend on the input's memory layout.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"pooling expects 4D input, got shape {x.shape}")
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        fill = -np.inf if mode == "max" else 0.0
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw]
    assert windows.shape[2] == out_h and windows.shape[3] == out_w
    if mode == "max":
        return windows.max(axis=(4, 5)).astype(np.float32)
    return windows.mean(axis=(4, 5)).astype(np.float32)


def _pool2d_reference(x, kernel_size, stride, padding, mode: str) -> np.ndarray:
    """Naive per-window pooling loop (correctness oracle for :func:`_pool2d`)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"pooling expects 4D input, got shape {x.shape}")
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride) if stride is not None else (kh, kw)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        fill = -np.inf if mode == "max" else 0.0
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    output = np.empty((n, c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            window = x[:, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
            if mode == "max":
                output[:, :, i, j] = window.max(axis=(2, 3))
            else:
                # Innermost-axis-first summation mirrors the reduction order
                # of ``mean(axis=(4, 5))`` on the window view, keeping the
                # reference bit-identical to the vectorized path.
                output[:, :, i, j] = window.sum(axis=3).sum(axis=2) / (kh * kw)
    return output


def batch_norm2d(
    x: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    weight: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch normalisation over ``(N, C, H, W)`` inputs."""
    x = np.asarray(x, dtype=np.float32)
    mean = np.asarray(running_mean, dtype=np.float32).reshape(1, -1, 1, 1)
    var = np.asarray(running_var, dtype=np.float32).reshape(1, -1, 1, 1)
    normalized = (x - mean) / np.sqrt(var + eps)
    if weight is not None:
        normalized = normalized * np.asarray(weight, dtype=np.float32).reshape(1, -1, 1, 1)
    if bias is not None:
        normalized = normalized + np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1)
    return normalized.astype(np.float32)
