"""Dense-tensor inference for small CNNs.

Feature maps are float32 numpy arrays of NCHW shape; conv kernels are laid
out (out_c, in_c, k_h, k_w). A conv writes its output in NHWC memory and
returns the NCHW-shaped transpose of it: elementwise numpy ops keep their
input's memory order, so the layers after it work on NHWC memory unchanged,
while the input batch, every activation run_layers returns and the flatten
before a linear layer stay NCHW to their readers. Every forward pass is
run_layers with at most one per-step hook (recording, BatchNorm freezing,
fake quantization, the saves of the distill pass), computing in float32 with
float64 batch statistics. The only backward pass is the input-batch gradient
the calibration-data synthesizer needs; weights are never updated.

A heavy pass may run its samples as contiguous parts, one thread each (see
_in_parts). Every conv runs one GEMM per sample and every other layer is
elementwise or per sample, so a part's rows are bitwise those of the whole
batch; only BatchNorm statistics read across samples, and the distill pass
takes them over the parts' joined inputs.

Models serialize to a JSON manifest plus a sidecar blob of little-endian
float32 values, concatenated in layer declaration order, so a save/load
round trip is bit-exact.
"""

from __future__ import annotations

import contextvars
import json
import math
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ModelFormatError,
    NumericFailureError,
    ShapeMismatchError,
    UnsupportedLayerError,
    build,
    checked,
)

MODEL_FORMAT = "mixbit-model"
MODEL_FORMAT_VERSION = 1

# Samples per block: evaluation runs its dataset in chunks of this size, and
# the conv kernels copy NHWC window rows (and the input gradient's scatter its
# column gradients) for at most this many samples at a time, and for fewer
# where that many samples' rows would exceed the window budget (_WINDOW_BYTES,
# or a part's share of it), so their working memory grows neither with the
# batch nor with the feature map.
BLOCK = 32
_WINDOW_BYTES = 4 << 20
_budget = contextvars.ContextVar("_budget", default=_WINDOW_BYTES)
# The most sample parts a pass may run in: 1, every pass unsplit, unless the caller sets more (cli.main does).
_max_parts = contextvars.ContextVar("_max_parts", default=1)


def _block_samples(sample_bytes: int) -> int:
    """Samples per conv block: at least 1, at most BLOCK, within the window budget where one sample fits."""
    return max(1, min(BLOCK, _budget.get() // sample_bytes))


@dataclass
class Conv2d:
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    kind = "conv2d"
    params = ("weight", "bias")


@dataclass
class BatchNorm:
    """Inference-mode batch norm; running statistics are fixed parameters."""

    channels: int
    running_mean: np.ndarray | None = None
    running_var: np.ndarray | None = None
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    eps: float = 1e-5

    kind = "batch_norm"
    params = ("running_mean", "running_var", "gamma", "beta")


@dataclass
class ReLU:
    kind = "relu"
    params = ()


@dataclass
class AvgPool:
    window: int
    stride: int

    kind = "avg_pool"
    params = ()


@dataclass
class Linear:
    in_features: int
    out_features: int
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None

    kind = "linear"
    params = ("weight", "bias")


@dataclass
class ResidualAdd:
    """Adds the output of an earlier layer; `source` indexes model.layers."""

    source: int

    kind = "residual_add"
    params = ()


# Every layer kind by its manifest name. A kind's `params` are its tensor
# fields, in blob order; its other dataclass fields form the manifest header.
KINDS = {cls.kind: cls for cls in (Conv2d, BatchNorm, ReLU, AvgPool, Linear, ResidualAdd)}

# Layers that carry a quantizable weight tensor.
WEIGHTED = (Conv2d, Linear)


@dataclass
class ModelGraph:
    layers: list
    input_shape: tuple
    class_count: int


@dataclass
class ForwardTrace:
    """Statistics of the layer inputs a recorded forward pass saw, keyed by layer index.

    bn_means/bn_stds hold float64 population statistics of each BatchNorm
    layer's input; ranges[i] is the float32 [min, max] of each weighted layer's
    input. No activation is kept. The trace of the distill gradient pass
    (_stat_loss_and_gradient) holds no ranges.
    """

    bn_means: dict
    bn_stds: dict
    ranges: dict


def weighted_layers(model: ModelGraph) -> list[int]:
    """Indices of layers that own a quantizable weight tensor."""
    return [i for i, lyr in enumerate(model.layers) if isinstance(lyr, WEIGHTED)]


def bn_layers(model: ModelGraph) -> list[int]:
    return [i for i, lyr in enumerate(model.layers) if isinstance(lyr, BatchNorm)]


def bn_targets(model: ModelGraph) -> dict:
    """Per-BN target (mean, std) pairs from the stored running statistics."""
    targets = {}
    for i in bn_layers(model):
        lyr = model.layers[i]
        targets[i] = (
            lyr.running_mean.astype(np.float64),
            np.sqrt(lyr.running_var.astype(np.float64)),
        )
    return targets


# ---------------------------------------------------------------------------
# shape checking


def _conv_out_hw(h: int, w: int, layer: Conv2d) -> tuple[int, int]:
    hp = h + 2 * layer.padding
    wp = w + 2 * layer.padding
    oh = (hp - layer.kernel_h) // layer.stride + 1
    ow = (wp - layer.kernel_w) // layer.stride + 1
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(
            f"kernel {layer.kernel_h}x{layer.kernel_w} larger than padded input {hp}x{wp}"
        )
    return oh, ow


def infer_shapes(model: ModelGraph) -> list[tuple]:
    """Per-layer output shapes, batch dimension excluded.

    Raises ShapeMismatchError when consecutive layers do not compose and
    UnsupportedLayerError on unknown layer kinds.
    """
    shapes = []
    cur = tuple(model.input_shape)
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv2d):
            if len(cur) != 3 or cur[0] != layer.in_channels:
                raise ShapeMismatchError(f"layer {i}: conv expects {layer.in_channels} channels, got {cur}")
            if min(layer.kernel_h, layer.kernel_w, layer.stride) < 1 or layer.padding < 0:
                raise ShapeMismatchError(f"layer {i}: kernel and stride must be positive, padding non-negative")
            oh, ow = _conv_out_hw(cur[1], cur[2], layer)
            cur = (layer.out_channels, oh, ow)
        elif isinstance(layer, BatchNorm):
            if len(cur) != 3 or cur[0] != layer.channels:
                raise ShapeMismatchError(f"layer {i}: batch norm over {layer.channels} channels, got {cur}")
        elif isinstance(layer, ReLU):
            pass
        elif isinstance(layer, AvgPool):
            if len(cur) != 3:
                raise ShapeMismatchError(f"layer {i}: pooling needs a (C, H, W) input, got {cur}")
            if layer.window < 1 or layer.stride < 1:
                raise ShapeMismatchError(f"layer {i}: window and stride must be positive")
            oh = (cur[1] - layer.window) // layer.stride + 1
            ow = (cur[2] - layer.window) // layer.stride + 1
            if oh < 1 or ow < 1:
                raise ShapeMismatchError(f"layer {i}: pool window {layer.window} larger than input {cur}")
            cur = (cur[0], oh, ow)
        elif isinstance(layer, Linear):
            feats = int(np.prod(cur))
            if feats != layer.in_features:
                raise ShapeMismatchError(f"layer {i}: linear expects {layer.in_features} features, got {feats}")
            cur = (layer.out_features,)
        elif isinstance(layer, ResidualAdd):
            if not 0 <= layer.source < i:
                raise ShapeMismatchError(f"layer {i}: residual source {layer.source} must precede the layer")
            if shapes[layer.source] != cur:
                raise ShapeMismatchError(
                    f"layer {i}: residual shapes differ, {shapes[layer.source]} vs {cur}"
                )
        else:
            raise UnsupportedLayerError(f"layer {i}: unsupported kind {type(layer).__name__}")
        shapes.append(cur)
    return shapes


def validate_model(model: ModelGraph) -> None:
    """Check graph composition, parameter shapes, and the output head."""
    if not model.layers:
        raise ShapeMismatchError("model has no layers")
    shapes = infer_shapes(model)
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv2d):
            want = (layer.out_channels, layer.in_channels, layer.kernel_h, layer.kernel_w)
            if layer.weight is None or layer.weight.shape != want:
                raise ShapeMismatchError(f"layer {i}: conv weight must have shape {want}")
            if layer.bias is not None and layer.bias.shape != (layer.out_channels,):
                raise ShapeMismatchError(f"layer {i}: conv bias must have shape ({layer.out_channels},)")
        elif isinstance(layer, Linear):
            want = (layer.out_features, layer.in_features)
            if layer.weight is None or layer.weight.shape != want:
                raise ShapeMismatchError(f"layer {i}: linear weight must have shape {want}")
            if layer.bias is not None and layer.bias.shape != (layer.out_features,):
                raise ShapeMismatchError(f"layer {i}: linear bias must have shape ({layer.out_features},)")
        elif isinstance(layer, BatchNorm):
            for name in ("running_mean", "running_var", "gamma", "beta"):
                arr = getattr(layer, name)
                if arr is None or arr.shape != (layer.channels,):
                    raise ShapeMismatchError(f"layer {i}: batch norm {name} must have shape ({layer.channels},)")
            if not np.all(layer.running_var > 0):
                raise ShapeMismatchError(f"layer {i}: running_var entries must be positive")
            if not (math.isfinite(layer.eps) and layer.eps >= 0):
                raise ShapeMismatchError(f"layer {i}: batch norm eps must be finite and non-negative, got {layer.eps}")
    if int(np.prod(shapes[-1])) != model.class_count:
        raise ShapeMismatchError(
            f"model must end in {model.class_count} logits, final shape is {shapes[-1]}"
        )


# ---------------------------------------------------------------------------
# forward


def _kernel_rows(weight: np.ndarray) -> np.ndarray:
    """A conv kernel (O, C, kh, kw) as the (kh*kw*C, O) matrix that multiplies NHWC window rows."""
    return weight.transpose(2, 3, 1, 0).reshape(-1, weight.shape[0])


def _strided_view(x: np.ndarray, shape: tuple, strides: tuple) -> np.ndarray:
    """as_strided(x, shape, strides) for an x whose memory is one dense block, as every buffer and activation is.

    NumPy's as_strided reads x.__array_interface__, which interns key strings and drops them again on
    every call. That churn makes the interpreter reallocate its interned-string table now and then, and
    the pass in which it happens is charged with a table that outlives it. This view reads no interface.
    """
    dense = x.transpose(np.argsort(x.strides)[::-1])  # x's memory, C-contiguous
    return np.ndarray(shape, x.dtype, dense, 0, strides)


def _window_gemm(x_nhwc: np.ndarray, wmat: np.ndarray, kh: int, kw: int, stride: int, pad: tuple,
                 oh: int, ow: int) -> np.ndarray:
    """Correlate the kh x kw windows of an NHWC batch with wmat, giving (n, oh, ow, O).

    Each block of _block_samples samples is written into the interior of one
    zeroed buffer padded by pad = (rows, columns), and its window view is
    copied into one (nb, oh*ow, kh*kw*C) workspace of rows. np.matmul then
    runs one GEMM per sample, the same call whatever the batch size, so the
    output does not depend on how a batch is split into blocks (one GEMM over
    a block's rows would not be).
    """
    n, h, w, c = x_nhwc.shape
    ph, pw = pad
    out = np.empty((n, oh * ow, wmat.shape[1]), dtype=np.result_type(x_nhwc, wmat))
    step = min(n, _block_samples(oh * ow * kh * kw * c * x_nhwc.itemsize))
    buf = np.zeros((step, h + 2 * ph, w + 2 * pw, c), dtype=x_nhwc.dtype)
    rows = np.empty((step, oh * ow, kh * kw * c), dtype=x_nhwc.dtype)
    sb, sh, sw, sc = buf.strides
    for lo in range(0, n, step):
        nb = min(step, n - lo)
        buf[:nb, ph:ph + h, pw:pw + w] = x_nhwc[lo:lo + nb]
        win = _strided_view(buf, (nb, oh, ow, kh, kw, c), (sb, sh * stride, sw * stride, sh, sw, sc))
        rows[:nb].reshape(win.shape)[...] = win
        np.matmul(rows[:nb], wmat, out=out[lo:lo + nb])
    return out.reshape(n, oh, ow, -1)


def _conv_forward(layer: Conv2d, x: np.ndarray) -> np.ndarray:
    """Convolution by _window_gemm; the result has NCHW shape over NHWC memory."""
    oh, ow = _conv_out_hw(x.shape[2], x.shape[3], layer)
    p = layer.padding
    out = _window_gemm(x.transpose(0, 2, 3, 1), _kernel_rows(layer.weight), layer.kernel_h, layer.kernel_w,
                       layer.stride, (p, p), oh, ow)
    if layer.bias is not None:
        out += layer.bias
    return out.transpose(0, 3, 1, 2)


def _linear_forward(layer: Linear, x: np.ndarray) -> np.ndarray:
    x = x.reshape(x.shape[0], -1)
    if x.shape[1] != layer.in_features:
        raise ShapeMismatchError(f"linear expects {layer.in_features} features, got {x.shape[1]}")
    # one vector-matrix product per row, so a row's result does not depend on
    # the batch it is in: x @ weight.T picks its BLAS kernel by the row count,
    # and eval's last chunk holds eval.samples mod BLOCK rows
    out = np.matmul(x[:, None, :], layer.weight.T)[:, 0]
    if layer.bias is not None:
        out = out + layer.bias[None, :]
    return out


def _bn_forward(layer: BatchNorm, x: np.ndarray) -> np.ndarray:
    scale = layer.gamma / np.sqrt(layer.running_var + np.float32(layer.eps))
    y = x - layer.running_mean[None, :, None, None]
    y *= scale[None, :, None, None]
    y += layer.beta[None, :, None, None]
    return y


def _avgpool_forward(layer: AvgPool, x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    k, s = layer.window, layer.stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    sn, sc, sh, sw = x.strides
    win = _strided_view(x, (n, c, oh, ow, k, k), (sn, sc, sh * s, sw * s, sh, sw))
    return win.mean(axis=(4, 5), dtype=np.float32)


def _dead_after(model: ModelGraph, keep) -> dict:
    """{i: indices of the activations whose last reader is layer i}, those in `keep` left out."""
    last = {j: j for j in range(len(model.layers)) if j not in keep}
    for i, layer in enumerate(model.layers):
        if isinstance(layer, ResidualAdd) and layer.source + 1 in last:
            last[layer.source + 1] = max(last[layer.source + 1], i)
    dead = {}
    for j, i in last.items():
        dead.setdefault(i, []).append(j)
    return dead


# an overflow is reported by the finiteness check after its layer, not as a warning
@np.errstate(over="ignore", invalid="ignore")
def run_layers(model: ModelGraph, batch: np.ndarray, hook=None, prefix=(), keep=True) -> list:
    """Apply the layers in order and return the activation list.

    acts[0] is the input batch and acts[i + 1] the output of layer i. Before
    layer i runs, hook(i, layer, acts[i]), if given, returns the (layer, x) it
    runs: the model's layer, edited in place or not, or a stand-in for this
    step, and acts[i] or a new input. An identity hook is bitwise the plain pass.

    `prefix` resumes an earlier run over the same batch: it holds that run's
    acts[1..s], which must not depend on anything the hook changes for
    layers s and later, and the run starts at layer s. With keep=False an
    activation is replaced by None as soon as no later layer reads it, so
    only the live tensors stay in memory and acts[-1] (the logits) is kept;
    `keep` may instead be a set of activation indices that are kept as well.
    """
    acts = [batch, *prefix]
    dead_after = None if keep is True else _dead_after(model, keep or ())
    for i in range(len(prefix), len(model.layers)):
        layer, x = model.layers[i], acts[i]
        if hook is not None:
            layer, x = hook(i, layer, x)
        if isinstance(layer, Conv2d):
            y = _conv_forward(layer, x)
        elif isinstance(layer, Linear):
            y = _linear_forward(layer, x)
        elif isinstance(layer, BatchNorm):
            y = _bn_forward(layer, x)
        elif isinstance(layer, ReLU):
            y = np.maximum(x, np.float32(0.0))
        elif isinstance(layer, AvgPool):
            y = _avgpool_forward(layer, x)
        elif isinstance(layer, ResidualAdd):
            y = x + acts[layer.source + 1]
        else:
            raise UnsupportedLayerError(f"layer {i}: unsupported kind {type(layer).__name__}")
        if not np.isfinite(y).all():
            raise NumericFailureError(f"non-finite values after layer {i} ({layer.kind})", layer_index=i)
        acts.append(y)
        if dead_after is not None:
            for j in dead_after.get(i, ()):
                acts[j] = None
    return acts


def _check_batch(model: ModelGraph, batch: np.ndarray) -> np.ndarray:
    b = np.ascontiguousarray(batch, dtype=np.float32)
    if b.ndim != 4 or b.shape[1:] != tuple(model.input_shape) or b.shape[0] < 1:
        raise ShapeMismatchError(
            f"batch shape {np.shape(batch)} does not match input shape {tuple(model.input_shape)}"
        )
    if not np.isfinite(b).all():
        raise NumericFailureError("non-finite values in input batch", layer_index=None)
    return b


# ---------------------------------------------------------------------------
# sample parts


def _parts(model: ModelGraph, batch: np.ndarray) -> int:
    """How many sample parts a pass of `model` over a checked `batch` runs in: 1, or at most _max_parts.

    Only a batch that its largest conv needs more than one window block for
    splits, in at most that many parts.
    """
    if _max_parts.get() == 1:
        return 1
    shapes = infer_shapes(model)
    rows = max((math.prod(shapes[i][1:]) * lyr.kernel_h * lyr.kernel_w * lyr.in_channels * 4  # float32
                for i, lyr in enumerate(model.layers) if isinstance(lyr, Conv2d)), default=0)
    blocks = -(-len(batch) // _block_samples(rows)) if rows else 1
    return min(_max_parts.get(), blocks)


def _failure_order(exc: BaseException) -> tuple:
    """Sort key of the errors of a split pass: any other error first, then by layer, the input batch lowest."""
    if not isinstance(exc, NumericFailureError):
        return (0, 0)
    return (1, -1 if exc.layer_index is None else exc.layer_index)


def _join(arrays) -> np.ndarray:
    """The parts' arrays joined along the samples; a lone part's array is returned as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _in_parts(model: ModelGraph, batch: np.ndarray, fn, meet=None) -> list:
    """[fn(xs, gather) for the samples xs of each part] over the _parts(model, batch) parts of a checked batch.

    gather(value) stores the part's value and waits for every part; the last
    to arrive runs meet(the values in part order), if given, before any part
    goes on. Part 0 runs on this thread and every other part on a thread of
    its own, each in a copy of this thread's context (NumPy's error state) in
    which _budget holds its share of the window budget. A part that raises
    aborts its next meeting, not its last, which may still be waking the parts
    it released (meetings alternate two barriers). Once every part has ended,
    the error raised is the one _failure_order puts first, never a BrokenBarrierError.
    """
    parts = _parts(model, batch)
    bounds = [len(batch) * k // parts for k in range(parts + 1)]
    values, results, errors = [None] * parts, [None] * parts, []
    barriers = [threading.Barrier(parts, None if meet is None else lambda: meet(list(values))) for _ in range(2)]

    def run(k):
        _budget.set(_budget.get() // parts)  # in a copy of the caller's context: a share of its budget
        met = 0  # the meetings this part has passed

        def gather(value):
            nonlocal met
            values[k] = value
            barriers[met % 2].wait()
            met += 1
            values[k] = None  # past the meeting, so that the pass can free what it gathered

        try:
            results[k] = fn(batch[bounds[k]:bounds[k + 1]], gather)
        except BaseException as exc:
            errors.append(exc)
            barriers[met % 2].abort()

    workers = [threading.Thread(target=contextvars.copy_context().run, args=(run, k), daemon=True)
               for k in range(1, parts)]
    for worker in workers:
        worker.start()
    contextvars.copy_context().run(run, 0)
    for worker in workers:
        worker.join()
    errors = [exc for exc in errors if not isinstance(exc, threading.BrokenBarrierError)]
    if errors:
        raise min(errors, key=_failure_order)
    return results


def _channel_stats(x: np.ndarray) -> tuple:
    """Per-channel population mean and std of x, accumulated in float64."""
    mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
    centered = x.astype(np.float64)
    centered -= mean[None, :, None, None]
    return mean, np.sqrt(np.square(centered, out=centered).mean(axis=(0, 2, 3)))


def _stat_grad(x: np.ndarray, stats: tuple, target: tuple, samples: int) -> np.ndarray:
    """The float32 gradient with respect to x of the squared L2 distance of stats to target.

    stats = (mean, std) were taken over `samples` samples, of which x holds
    some or all; each entry of the term reads only its own entry of x.
    """
    (mean, std), (u, sig) = stats, target
    nhw = samples * x.shape[2] * x.shape[3]
    term = x.astype(np.float64)  # dm + ds * centered, computed in place
    term -= mean[None, :, None, None]
    term *= (2.0 * (std - sig) / (nhw * np.maximum(std, 1e-12)))[None, :, None, None]
    term += (2.0 * (mean - u) / nhw)[None, :, None, None]
    return term.astype(np.float32)


def forward(model: ModelGraph, batch: np.ndarray, record: bool = False):
    """Run the model; returns (logits, trace) with trace None unless record.

    Recording is a run_layers hook that takes the statistics of a ForwardTrace
    from each layer input and returns its arguments, so logits are bitwise
    identical with and without it, and both passes free each activation as
    soon as no later layer reads it.
    """
    validate_model(model)
    batch = _check_batch(model, batch)
    trace = ForwardTrace({}, {}, {}) if record else None

    def observe(i, layer, x):
        if isinstance(layer, WEIGHTED):
            trace.ranges[i] = np.array([x.min(), x.max()], dtype=np.float32)
        elif isinstance(layer, BatchNorm):
            trace.bn_means[i], trace.bn_stds[i] = _channel_stats(x)
        return layer, x

    return run_layers(model, batch, observe if record else None, keep=False)[-1], trace


# ---------------------------------------------------------------------------
# input gradient


def _conv_backward_input(layer: Conv2d, shape: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Input gradient of a conv whose input has NCHW `shape`, over NHWC memory (see _conv_forward).

    At stride 1 with padding below the kernel it is the conv of grad_out with
    the flipped, transposed kernel and padding k - 1 - p on each axis. Other
    geometries scatter each sample's window-row gradients back, one strided
    add per kernel tap.
    """
    n, c, h, w = shape
    kh, kw, s, p = layer.kernel_h, layer.kernel_w, layer.stride, layer.padding
    g = grad_out.transpose(0, 2, 3, 1)
    if s == 1 and p < min(kh, kw):
        flipped = layer.weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(-1, c)
        return _window_gemm(g, flipped, kh, kw, 1, (kh - 1 - p, kw - 1 - p), h, w).transpose(0, 3, 1, 2)
    _, oh, ow, o = g.shape
    rows = g.reshape(n, oh * ow, o)
    wmat_t = _kernel_rows(layer.weight).T
    gpad = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=np.float32)
    step = _block_samples(oh * ow * kh * kw * c * g.itemsize)
    for lo in range(0, n, step):
        cols = np.matmul(rows[lo:lo + step], wmat_t).reshape(-1, oh, ow, kh, kw, c)
        for i in range(kh):
            for j in range(kw):
                gpad[lo:lo + step, i:i + oh * s:s, j:j + ow * s:s] += cols[:, :, :, i, j]
    return gpad[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)


def _avgpool_backward(layer: AvgPool, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    k, s = layer.window, layer.stride
    n, c, oh, ow = grad_out.shape
    gx = np.zeros_like(x)
    g = grad_out * np.float32(1.0 / (k * k))
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + oh * s:s, j:j + ow * s:s] += g
    return gx


def _backward_input(layer, x, grad_out: np.ndarray) -> np.ndarray:
    """The input gradient of one layer; x is the layer's input, or its shape for a conv or linear layer."""
    if isinstance(layer, Conv2d):
        return _conv_backward_input(layer, x, grad_out)
    if isinstance(layer, Linear):
        return (grad_out @ layer.weight).reshape(x)
    if isinstance(layer, BatchNorm):
        scale = layer.gamma / np.sqrt(layer.running_var + np.float32(layer.eps))
        return grad_out * scale[None, :, None, None]
    if isinstance(layer, ReLU):
        return grad_out * (x > 0)
    if isinstance(layer, AvgPool):
        return _avgpool_backward(layer, x, grad_out)
    raise UnsupportedLayerError(f"no backward rule for {type(layer).__name__}")


def _stat_loss_and_gradient(model: ModelGraph, batch: np.ndarray, targets: dict,
                            backward: bool = True) -> tuple[ForwardTrace, np.ndarray | None]:
    """BatchNorm input statistics at `batch` and the statistic loss's gradient with respect to `batch`.

    The loss, distill.bn_stat_loss of the returned trace, is the sum over the
    BatchNorm layers in `targets` of the squared L2 distance between the
    batch mean/std of the layer's input and the target (mean, std); the
    statistics are those a recorded forward pass gives, bit for bit. The
    model must be validated and `targets` non-empty; the batch is checked
    here. Only the layers before the last target BatchNorm run, forward and
    backward, including residual branches. The forward keeps only what the
    backward reads: each target's gradient term, each ReLU and AvgPool input,
    and the input shape of every other layer. With backward=False only the
    forward part runs and the gradient is None.

    The pass runs in _in_parts sample parts, which meet at each target: the
    statistics are taken once over their joined inputs (np.concatenate keeps
    the NHWC memory order, and so the reduction's order).
    """
    batch = _check_batch(model, batch)
    last, n = max(targets), len(batch)
    means, stds = {}, {}

    def meet(inputs):  # each part's (target, input)
        i = inputs[0][0]
        means[i], stds[i] = _channel_stats(_join([x for _, x in inputs]))

    def part(xs, gather):
        # grads[i] is the loss gradient at acts[i], None until a term reaches it;
        # a first term is stored as is, which equals 0 + term except that a -0.0
        # entry keeps its sign
        grads, saved = [None] * (last + 1), [None] * (last + 1)

        def hook(i, layer, x):
            if i in targets:
                gather((i, x))
                if backward:
                    grads[i] = _stat_grad(x, (means[i], stds[i]), targets[i], n)
            if backward:
                saved[i] = x if isinstance(layer, (ReLU, AvgPool)) else x.shape
            return layer, x

        # the last target's layer is past the truncated model, so its input gets the hook here
        head = ModelGraph(model.layers[:last], model.input_shape, model.class_count)
        hook(last, model.layers[last], run_layers(head, xs, hook, keep=False)[-1])
        if not backward:
            return None

        def add(i, g):
            grads[i] = g if grads[i] is None else grads[i] + g

        for i in range(last - 1, -1, -1):
            g = grads[i + 1]
            layer = model.layers[i]
            if isinstance(layer, ResidualAdd):
                add(i, g)
                add(layer.source + 1, g)
            else:
                add(i, _backward_input(layer, saved[i], g))
            # only layer i reads saved[i], and lower layers add only into
            # grads[j] and grads[source + 1], both indices at most i
            saved[i] = grads[i + 1] = None
        return grads[0]

    grads = _in_parts(model, batch, part, meet)
    grad = _join(grads) if backward else None
    if backward and not np.isfinite(grad).all():
        raise NumericFailureError("non-finite input gradient", layer_index=None)
    return ForwardTrace(means, stds, {}), grad


def input_gradient(model: ModelGraph, batch: np.ndarray) -> np.ndarray:
    """Gradient of distill.bn_stat_loss against the stored running statistics, with respect to `batch`."""
    validate_model(model)
    targets = bn_targets(model)
    if not targets:
        raise UnsupportedLayerError("input gradients need at least one BatchNorm layer")
    return _stat_loss_and_gradient(model, batch, targets)[1]


# ---------------------------------------------------------------------------
# serialization


def _param_arrays(layer) -> list[tuple[str, np.ndarray]]:
    return [(name, getattr(layer, name)) for name in layer.params if getattr(layer, name) is not None]


def _header_fields(cls) -> list:
    return [f for f in fields(cls) if f.name not in cls.params]


def blob_path_for(manifest_path) -> Path:
    return Path(manifest_path).with_suffix(".bin")


@dataclass
class _Param:
    """One tensor of a layer: `count` float32 values at element `offset` of the blob."""

    name: str
    shape: list[int]
    offset: int
    count: int


@dataclass
class _Manifest:
    """model.json. Each layer is {"kind", its header fields, "params": [_Param, ...]}."""

    format: str
    version: int
    input_shape: list[int]
    class_count: int
    blob: str
    layers: list[dict]


def model_files(model: ModelGraph, path) -> tuple[str, bytes]:
    """The manifest text and the float32 weight blob save_model writes for `model` at `path`."""
    validate_model(model)
    path = Path(path)
    blob = bytearray()
    offset = 0
    layers = []
    for layer in model.layers:
        entry = {"kind": layer.kind, **{f.name: getattr(layer, f.name) for f in _header_fields(type(layer))}}
        params = []
        for name, arr in _param_arrays(layer):
            a = np.ascontiguousarray(arr, dtype=np.float32)
            params.append(_Param(name, list(a.shape), offset, int(a.size)))
            blob += a.astype("<f4").tobytes()
            offset += int(a.size)
        entry["params"] = params
        layers.append(entry)
    manifest = _Manifest(MODEL_FORMAT, MODEL_FORMAT_VERSION, list(model.input_shape), model.class_count,
                         blob_path_for(path).name, layers)
    return json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", bytes(blob)


def save_model(model: ModelGraph, path) -> Path:
    """Write the manifest JSON to `path` and float32 weights to a .bin sidecar."""
    path = Path(path)
    manifest, blob = model_files(model, path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest)
    blob_path_for(path).write_bytes(blob)
    return path


def load_model(path) -> ModelGraph:
    """Load a manifest + blob pair written by save_model.

    The manifest is errors.build(_Manifest, ...), so its keys and each
    param entry's are exactly those model_files writes; its version must be
    MODEL_FORMAT_VERSION. Each layer is errors.build(KINDS[kind], header +
    param arrays): header keys must be exactly the kind's non-param fields,
    each of its field's JSON type (integer fields reject bools, floats and
    strings); params must be the kind's own and lie inside the blob.
    Violations raise ModelFormatError naming the layer and the key, and the
    loaded graph is then validated.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} manifest")
    try:
        manifest = build(_Manifest, manifest, f"{path}: ")
        if manifest.version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"{path}: version must be {MODEL_FORMAT_VERSION}, got {manifest.version}")
        blob_file = path.parent / manifest.blob
        try:
            flat = np.frombuffer(blob_file.read_bytes(), dtype="<f4")
        except OSError as exc:
            raise ModelFormatError(f"cannot read weight blob {blob_file}: {exc}") from exc
        layers = []
        for i, entry in enumerate(manifest.layers):
            header = dict(entry)
            kind = header.pop("kind", None)
            cls = KINDS.get(kind)
            if cls is None:
                raise UnsupportedLayerError(f"layer {i}: unknown layer kind {kind!r}")
            where = f"layer {i} ({kind}) in {path}"
            arrays = dict.fromkeys(cls.params)
            for p in checked(header.pop("params", []), list[_Param], f"{where}: params"):
                if p.name not in cls.params:
                    raise ModelFormatError(f"{where}: unknown param {p.name!r}")
                if min(p.offset, p.count, *p.shape) < 0 or math.prod(p.shape) != p.count:
                    raise ModelFormatError(f"{where}: param {p.name!r} has an inconsistent shape, offset or count")
                if p.offset + p.count > flat.size:
                    raise ModelFormatError(f"weight blob too short for {p.name} in {path}")
                arrays[p.name] = flat[p.offset:p.offset + p.count].reshape(p.shape).astype(np.float32)
            if clash := header.keys() & arrays.keys():
                raise ModelFormatError(f"{where}: {min(clash)}: unknown key")
            layers.append(build(cls, {**header, **arrays}, f"{where}: "))
        if min(manifest.class_count, *manifest.input_shape) < 0:
            raise ModelFormatError(f"{path}: input_shape and class_count must be non-negative")
        model = ModelGraph(layers=layers, input_shape=tuple(manifest.input_shape), class_count=manifest.class_count)
    except ConfigError as exc:
        raise ModelFormatError(str(exc)) from None
    except TypeError as exc:  # an unhashable layer kind
        raise ModelFormatError(f"malformed model manifest {path}: {exc}") from exc
    validate_model(model)
    return model
