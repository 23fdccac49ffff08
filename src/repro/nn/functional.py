"""Functional (stateless) neural-network operations.

All operations work on numpy arrays with the PyTorch layout conventions:
images are ``(N, C, H, W)``, volumes are ``(N, C, D, H, W)`` and linear
inputs are ``(N, features)``.

Every golden and faulty inference of a campaign ends in these kernels, so
each one is written as the cheapest numpy formulation of a *fixed*
arithmetic: ``conv2d`` is, per sample, one :func:`im2col` into a reused
column buffer plus one BLAS GEMM per group, whose operand order, shapes and
memory layouts are part of the contract; ``linear`` is one product per row;
``im2col`` copies one window view built over the padded buffer; pooling
loops over the ``kh * kw`` kernel taps (strided slices) instead of reducing
a 6-D window view; and the elementwise kernels run their ufuncs on one
buffer.  No layer kernel mixes samples, so row ``i`` of a
batched call is the call on ``x[i : i + 1]`` bit for bit
(``tests/test_nn_batch_invariance.py``).  The result bits are pinned against
the frozen previous generation in ``tests/oracles/`` (see "The bit-exactness
contract" in ``docs/ir.md``); NaN *positions* are part of that contract, NaN
payload bits are not.
"""

from __future__ import annotations

import numpy as np

# Bumped by every change that may move a result bit of any kernel below.  The
# model identity does not cover arithmetic, so the golden-cache keys, the
# sweep store's run ids and the meta file carry this number: what other
# kernels computed is a miss, never a hit.  2: one GEMM per sample (PR 21).
KERNEL_GENERATION = 2


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    """Normalise an int-or-pair argument to a pair."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _triple(value: int | tuple[int, int, int]) -> tuple[int, int, int]:
    """Normalise an int-or-triple argument to a triple."""
    if isinstance(value, (tuple, list)):
        if len(value) != 3:
            raise ValueError(f"expected a triple, got {value!r}")
        return int(value[0]), int(value[1]), int(value[2])
    return int(value), int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution produces non-positive output size "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _pad_hw(x: np.ndarray, ph: int, pw: int, fill: float) -> np.ndarray:
    """``x`` with ``fill`` borders of ``ph`` rows / ``pw`` columns (``x`` itself if none)."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * ph, w + 2 * pw)
    # np.zeros gets its zeros from the allocator; np.full writes them.
    padded = np.zeros(shape, dtype=x.dtype) if fill == 0.0 else np.full(shape, fill, dtype=x.dtype)
    padded[:, :, ph : ph + h, pw : pw + w] = x
    return padded


def _window_taps(x, kh: int, kw: int, sh: int, sw: int, out_h: int, out_w: int) -> list:
    """The ``kh * kw`` window taps of ``x`` as strided views, in row-major order.

    Tap ``(i, j)`` has shape ``(N, C, out_h, out_w)`` and holds, for every
    output position, the element that position's window sees at offset
    ``(i, j)``.  Looping over the taps with whole-array operations replaces
    copying or reducing a 6-D window view.
    """
    span_h = (out_h - 1) * sh + 1
    span_w = (out_w - 1) * sw + 1
    return [
        x[:, :, i : i + span_h : sh, j : j + span_w : sw] for i in range(kh) for j in range(kw)
    ]


def im2col(
    images: np.ndarray,
    kernel_size: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold image patches into columns for matmul-based convolution.

    Args:
        images: input of shape ``(N, C, H, W)``.
        kernel_size: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)`` zero padding.
        out: the columns of a previous call on images of the same shape and
            dtype, reused to unfold into; a new array if ``None``.

    Returns:
        A tuple ``(columns, out_h, out_w)`` where ``columns`` is C-contiguous
        with shape ``(N, C * kh * kw, out_h * out_w)``.  For a pointwise
        kernel (1x1, stride 1, no padding) over a contiguous input the
        columns are a view of ``images``, not a copy, and ``out`` is not
        written.
    """
    n, c, h, w = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)

    if (kh, kw, sh, sw, ph, pw) == (1, 1, 1, 1, 0, 0):
        # A pointwise convolution's columns are the image itself.
        return np.ascontiguousarray(images.reshape(n, c, h * w)), out_h, out_w

    if out is None:
        out = np.empty((n, c * kh * kw, out_h * out_w), dtype=images.dtype)
    padded = np.ascontiguousarray(_pad_hw(images, ph, pw, 0.0))
    # Every window of the padded images at once, (N, C, kh, kw, out_h, out_w):
    # a view built over the buffer, strided like the taps of _window_taps.
    batch, channel, row, column = padded.strides
    windows = np.ndarray(
        (n, c, kh, kw, out_h, out_w),
        dtype=padded.dtype,
        buffer=padded,
        strides=(batch, channel, row, column, row * sh, column * sw),
    )
    out.reshape(n, c, kh, kw, out_h, out_w)[...] = windows
    return out, out_h, out_w


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
    # Contiguous, so the reshape below is a view of dense rows whatever layout
    # the caller's kernel has (a strided row would reach BLAS as an increment).
    weight = np.ascontiguousarray(weight, dtype=np.float32)
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

    n = x.shape[0]
    out_channels, in_per_group, kh, kw = weight.shape
    out_per_group, features = out_channels // groups, in_per_group * kh * kw
    kernel, stride, padding = (kh, kw), _pair(stride), _pair(padding)
    out_h = conv_output_size(x.shape[2], kh, stride[0], padding[0])
    out_w = conv_output_size(x.shape[3], kw, stride[1], padding[1])
    positions = out_h * out_w
    # A group's kernels are a contiguous row block of the kernel matrix,
    # indexed below as a transposed view, (f, o).
    kernels = weight.reshape(groups, out_per_group, features).transpose(0, 2, 1)
    output = np.empty((n, out_channels, out_h, out_w), dtype=np.float32)
    flat = output.reshape(n, groups, out_per_group, positions)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32).reshape(groups, out_per_group, 1)
    # One GEMM per sample and group, never one per batch: BLAS picks its
    # blocking from the operand shapes, so a batch-wide GEMM would put the
    # batch size into the result bits.  Operand order, shapes and memory
    # layouts are part of the bit-exactness contract: left the transposed view
    # of the (f, p) columns, right the transposed view of the (o, f) kernels.
    # The (p, o) product goes straight into its (o, p) slice of the NCHW
    # output, with the bias add folded in.  Each sample is unfolded on its
    # own, into one column buffer, so the columns of only one are ever held.
    unfolded = None
    for sample in range(n):
        unfolded, _, _ = im2col(
            x[sample : sample + 1], kernel, stride, padding, out=unfolded
        )
        # A group's columns are a contiguous row block of the sample's unfold.
        columns = unfolded.reshape(groups, features, positions).transpose(0, 2, 1)
        for group in range(groups):
            product = np.dot(columns[group], kernels[group]).T
            if bias is None:
                np.copyto(flat[sample, group], product)
            else:
                np.add(product, bias[group], out=flat[sample, group])
    return output


def conv3d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int, int] = 1,
    padding: int | tuple[int, int, int] = 0,
) -> np.ndarray:
    """3D convolution over volumes of shape ``(N, C, D, H, W)``.

    Implemented by looping over the (small) kernel depth and reusing the
    2D im2col path, which is accurate and fast enough for the small conv3d
    layers used in the test models.
    """
    x = np.asarray(x, dtype=np.float32)
    weight = np.asarray(weight, dtype=np.float32)
    if x.ndim != 5:
        raise ValueError(f"conv3d expects 5D input (N, C, D, H, W), got shape {x.shape}")
    if weight.ndim != 5:
        raise ValueError(f"conv3d expects 5D weight (O, I, kd, kh, kw), got {weight.shape}")
    n, c, d, h, w = x.shape
    out_channels, in_channels, kd, kh, kw = weight.shape
    if c != in_channels:
        raise ValueError(f"input channels ({c}) do not match weight channels ({in_channels})")
    sd, sh, sw = _triple(stride)
    pd, ph, pw = _triple(padding)
    out_d = conv_output_size(d, kd, sd, pd)

    if pd:
        x = np.pad(x, ((0, 0), (0, 0), (pd, pd), (0, 0), (0, 0)), mode="constant")

    out_h = conv_output_size(h, kh, sh, ph)
    out_w = conv_output_size(w, kw, sw, pw)
    output = np.zeros((n, out_channels, out_d, out_h, out_w), dtype=np.float32)
    for od in range(out_d):
        accum = np.zeros((n, out_channels, out_h, out_w), dtype=np.float32)
        for kz in range(kd):
            plane = x[:, :, od * sd + kz, :, :]
            accum += conv2d(plane, weight[:, :, kz, :, :], None, (sh, sw), (ph, pw))
        output[:, :, od, :, :] = accum
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1, 1)
    return output


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
    output = np.empty((x.shape[0], weight.shape[0]), dtype=np.float32)
    # One product per row, for the reason conv2d issues one GEMM per sample.
    for row in range(x.shape[0]):
        np.matmul(x[row : row + 1], weight.T, out=output[row : row + 1])
    if bias is not None:
        output += np.asarray(bias, dtype=np.float32)
    return output


# --------------------------------------------------------------------------- #
# activations
# --------------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float32), 0.0)


def leaky_relu(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """Leaky ReLU with configurable negative slope.

    For ``0 < negative_slope <= 1`` the result is ``max(slope * x, x)``, two
    passes instead of ``np.where``'s mask, select and temporaries.  The
    scaled operand comes first: for a NaN input both operands are NaN,
    ``np.maximum`` returns its first, and ``slope * x`` is the quieted NaN
    the select form produced.  Other slopes keep the select (at slope 0,
    ``0 * inf`` is NaN and the maximum would differ).
    """
    x = np.asarray(x, dtype=np.float32)
    if 0.0 < negative_slope <= 1.0:
        out = negative_slope * x
        np.maximum(out, x, out=out)
        return out
    return np.where(x >= 0, x, negative_slope * x).astype(np.float32, copy=False)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float32)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x, dtype=np.float32))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The input is made contiguous first: numpy reductions block by memory
    layout, so canonicalising keeps the result independent of the input's
    strides (required for executor bit-exactness, see ``docs/ir.md``).
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log of softmax, computed stably (layout-canonical, like :func:`softmax`)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


# --------------------------------------------------------------------------- #
# pooling and resampling
# --------------------------------------------------------------------------- #
def max_pool2d(
    x: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> np.ndarray:
    """Max pooling over ``(N, C, H, W)`` inputs."""
    return _pool2d(x, kernel_size, stride, padding, mode="max")


def avg_pool2d(
    x: np.ndarray,
    kernel_size: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> np.ndarray:
    """Average pooling over ``(N, C, H, W)`` inputs."""
    return _pool2d(x, kernel_size, stride, padding, mode="avg")


def _pool2d(x, kernel_size, stride, padding, mode: str) -> np.ndarray:
    """Pooling as a loop over the ``kh * kw`` window taps (:func:`_window_taps`).

    The whole output is reduced with one whole-array ufunc call per tap, in
    a fixed order that is part of the bit-exactness contract:

    * ``max`` folds the taps in row-major order with
      ``np.maximum(out, tap, out=out)`` -- the order (and argument order)
      that decides which of ``+0.0`` / ``-0.0`` a tie returns;
    * ``avg`` sums each window row left to right, adds the row sums top to
      bottom onto the additive identity (so an all ``-0.0`` window averages
      to ``+0.0``) and divides by ``float32(kh * kw)``.  Padding zeros count
      as window elements.

    ``tests/oracles/kernels_v0.py`` keeps the ``sliding_window_view`` kernel
    this replaced and the naive per-window loop as oracles.

    The input is made contiguous first so a caller's memory layout can never
    reach the result bits; the output is always C-contiguous.
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
    x = _pad_hw(x, ph, pw, -np.inf if mode == "max" else 0.0)
    taps = _window_taps(x, kh, kw, sh, sw, out_h, out_w)

    if mode == "max":
        output = taps[0].copy()
        for tap in taps[1:]:
            np.maximum(output, tap, out=output)
        return output

    output = np.zeros((n, c, out_h, out_w), dtype=np.float32)
    for start in range(0, kh * kw, kw):
        row = taps[start]
        if kw > 1:
            row = row + taps[start + 1]
            for tap in taps[start + 2 : start + kw]:
                row += tap
        output += row
    output /= np.float32(kh * kw)
    return output


def adaptive_avg_pool2d(x: np.ndarray, output_size: int | tuple[int, int]) -> np.ndarray:
    """Adaptive average pooling to a fixed output size (layout-canonical)."""
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"adaptive_avg_pool2d expects 4D input, got shape {x.shape}")
    out_h, out_w = _pair(output_size)
    n, c, h, w = x.shape
    output = np.zeros((n, c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        h0 = (i * h) // out_h
        h1 = max(((i + 1) * h + out_h - 1) // out_h, h0 + 1)
        for j in range(out_w):
            w0 = (j * w) // out_w
            w1 = max(((j + 1) * w + out_w - 1) // out_w, w0 + 1)
            output[:, :, i, j] = x[:, :, h0:h1, w0:w1].mean(axis=(2, 3))
    return output


def upsample_nearest(x: np.ndarray, scale_factor: int) -> np.ndarray:
    """Nearest-neighbour upsampling by an integer factor."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 4:
        raise ValueError(f"upsample expects 4D input, got shape {x.shape}")
    factor = int(scale_factor)
    if factor < 1:
        raise ValueError(f"scale_factor must be >= 1, got {scale_factor}")
    return x.repeat(factor, axis=2).repeat(factor, axis=3)


# --------------------------------------------------------------------------- #
# normalisation
# --------------------------------------------------------------------------- #
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
    out = x - mean
    np.divide(out, np.sqrt(var + eps), out=out)
    if weight is not None:
        np.multiply(out, np.asarray(weight, dtype=np.float32).reshape(1, -1, 1, 1), out=out)
    if bias is not None:
        np.add(out, np.asarray(bias, dtype=np.float32).reshape(1, -1, 1, 1), out=out)
    return out


def flatten(x: np.ndarray, start_dim: int = 1) -> np.ndarray:
    """Flatten all dimensions from ``start_dim`` onwards."""
    x = np.asarray(x)
    shape = x.shape[:start_dim] + (-1,)
    return x.reshape(shape)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy loss between logits ``(N, classes)`` and int targets."""
    logits = np.asarray(logits, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(len(targets)), targets]
    return float(-picked.mean())
