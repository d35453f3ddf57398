"""Dense-tensor inference for small CNNs.

Feature maps are float32 numpy arrays in NCHW order; conv kernels are laid
out (out_c, in_c, k_h, k_w). Real arithmetic is float32 throughout the
engine, with batch statistics accumulated in float64. The only backward pass
implemented is the gradient with respect to the input batch, which is all
the calibration-data synthesizer needs; weights are never updated.

Models serialize to a JSON manifest plus a sidecar blob of little-endian
float32 values, concatenated in layer declaration order, so a save/load
round trip is bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    ModelFormatError,
    NumericFailureError,
    ShapeMismatchError,
    UnsupportedLayerError,
)

MODEL_FORMAT = "mixbit-model"
MODEL_FORMAT_VERSION = 1


@dataclass
class Conv2d:
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    weight: np.ndarray = None
    bias: np.ndarray = None

    kind = "conv2d"


@dataclass
class BatchNorm:
    """Inference-mode batch norm; running statistics are fixed parameters."""

    channels: int
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    gamma: np.ndarray = None
    beta: np.ndarray = None
    eps: float = 1e-5

    kind = "batch_norm"


@dataclass
class ReLU:
    kind = "relu"


@dataclass
class AvgPool:
    window: int
    stride: int

    kind = "avg_pool"


@dataclass
class Linear:
    in_features: int
    out_features: int
    weight: np.ndarray = None
    bias: np.ndarray = None

    kind = "linear"


@dataclass
class ResidualAdd:
    """Adds the output of an earlier layer; `source` indexes model.layers."""

    source: int

    kind = "residual_add"


Layer = Conv2d | BatchNorm | ReLU | AvgPool | Linear | ResidualAdd

# Layers that carry a quantizable weight tensor.
WEIGHTED = (Conv2d, Linear)


@dataclass
class ModelGraph:
    layers: list
    input_shape: tuple
    class_count: int


@dataclass
class ForwardTrace:
    """Activations and per-channel input statistics captured during forward.

    activations[i] is the tensor layer i consumed; activations[-1] is the
    logits. bn_means/bn_stds hold float64 population statistics of each
    BatchNorm layer's input, keyed by layer index.
    """

    activations: list
    bn_means: dict
    bn_stds: dict


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
    if int(np.prod(shapes[-1])) != model.class_count:
        raise ShapeMismatchError(
            f"model must end in {model.class_count} logits, final shape is {shapes[-1]}"
        )


# ---------------------------------------------------------------------------
# forward


def _pad2d(x: np.ndarray, p: int) -> np.ndarray:
    if p == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _im2col_batch(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Window view of a padded batch, reshaped to (N, C*kh*kw, oh*ow)."""
    n, c, h, w = xp.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    win = as_strided(xp, (n, c, kh, kw, oh, ow), (sn, sc, sh, sw, sh * stride, sw * stride))
    return win.reshape(n, c * kh * kw, oh * ow)


def im2col(feature: np.ndarray, conv: Conv2d) -> np.ndarray:
    """Unfold one (C, H, W) feature map for `conv` into a 2-d matrix.

    Rows enumerate (channel, kernel row, kernel col); each column is one
    sliding-window position in row-major output order, so the product
    kernel_matrix(conv) @ im2col(x, conv) is the convolution.
    """
    f = np.ascontiguousarray(feature, dtype=np.float32)
    if f.ndim != 3:
        raise ShapeMismatchError(f"expected a single (C, H, W) feature map, got shape {f.shape}")
    if f.shape[0] != conv.in_channels:
        raise ShapeMismatchError(f"feature has {f.shape[0]} channels, conv expects {conv.in_channels}")
    _conv_out_hw(f.shape[1], f.shape[2], conv)
    xp = _pad2d(f[None], conv.padding)
    return _im2col_batch(xp, conv.kernel_h, conv.kernel_w, conv.stride)[0]


def kernel_matrix(conv: Conv2d) -> np.ndarray:
    """Conv kernel flattened to (out_c, in_c*k_h*k_w), matching im2col rows."""
    return conv.weight.reshape(conv.out_channels, -1)


def _conv_forward(layer: Conv2d, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    oh, ow = _conv_out_hw(x.shape[2], x.shape[3], layer)
    xp = _pad2d(x, layer.padding)
    cols = _im2col_batch(xp, layer.kernel_h, layer.kernel_w, layer.stride)
    out = np.matmul(weight.reshape(layer.out_channels, -1), cols)
    out = out.reshape(x.shape[0], layer.out_channels, oh, ow)
    if layer.bias is not None:
        out = out + layer.bias[None, :, None, None]
    return out


def conv_via_matmul(feature: np.ndarray, conv: Conv2d) -> np.ndarray:
    """Convolution evaluated as kernel-matrix times im2col matrix."""
    f = np.ascontiguousarray(feature, dtype=np.float32)
    single = f.ndim == 3
    if single:
        f = f[None]
    if f.ndim != 4 or f.shape[1] != conv.in_channels:
        raise ShapeMismatchError(f"feature shape {feature.shape} does not fit conv input")
    out = _conv_forward(conv, f, conv.weight)
    return out[0] if single else out


def _linear_forward(layer: Linear, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    if x.ndim == 4:
        x = x.reshape(x.shape[0], -1)
    if x.shape[1] != layer.in_features:
        raise ShapeMismatchError(f"linear expects {layer.in_features} features, got {x.shape[1]}")
    out = x @ weight.T
    if layer.bias is not None:
        out = out + layer.bias[None, :]
    return out


def _bn_forward(layer: BatchNorm, x: np.ndarray) -> np.ndarray:
    scale = layer.gamma / np.sqrt(layer.running_var + np.float32(layer.eps))
    return (x - layer.running_mean[None, :, None, None]) * scale[None, :, None, None] \
        + layer.beta[None, :, None, None]


def _avgpool_forward(layer: AvgPool, x: np.ndarray) -> np.ndarray:
    n, c, h, w = x.shape
    k, s = layer.window, layer.stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    sn, sc, sh, sw = x.strides
    win = as_strided(x, (n, c, oh, ow, k, k), (sn, sc, sh * s, sw * s, sh, sw))
    return win.mean(axis=(4, 5), dtype=np.float32)


def _dead_after(model: ModelGraph) -> dict:
    """{i: indices of the activations whose last reader is layer i}."""
    last = {j: j for j in range(len(model.layers))}
    for i, layer in enumerate(model.layers):
        if isinstance(layer, ResidualAdd):
            last[layer.source + 1] = max(last[layer.source + 1], i)
    dead = {}
    for j, i in last.items():
        dead.setdefault(i, []).append(j)
    return dead


def run_layers(model: ModelGraph, batch: np.ndarray, weight_fn=None, input_fn=None,
               prefix=(), keep: bool = True) -> list:
    """Apply the layers in order and return the activation list.

    acts[0] is the input batch and acts[i + 1] the output of layer i.
    weight_fn(i, layer) may substitute the weight tensor of a weighted layer
    and input_fn(i, x) may transform the tensor it consumes; both default to
    identity. The fake-quantized forward pass supplies these hooks, so with
    identity hooks the arithmetic path is bitwise the plain forward pass.

    `prefix` resumes an earlier run over the same batch: it holds that run's
    acts[1..s], which must not depend on anything the hooks change for
    layers s and later, and the run starts at layer s. With keep=False an
    activation is replaced by None as soon as no later layer reads it, so
    only the live tensors stay in memory and acts[-1] (the logits) is kept.
    """
    acts = [batch, *prefix]
    dead_after = None if keep else _dead_after(model)
    for i in range(len(prefix), len(model.layers)):
        layer = model.layers[i]
        x = acts[i]
        if isinstance(layer, Conv2d):
            if input_fn is not None:
                x = input_fn(i, x)
            w = layer.weight if weight_fn is None else weight_fn(i, layer)
            y = _conv_forward(layer, x, w)
        elif isinstance(layer, Linear):
            if input_fn is not None:
                x = input_fn(i, x)
            w = layer.weight if weight_fn is None else weight_fn(i, layer)
            y = _linear_forward(layer, x, w)
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


def _channel_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # population statistics, accumulated in float64
    m = x.mean(axis=(0, 2, 3), dtype=np.float64)
    var = np.square(x.astype(np.float64) - m[None, :, None, None]).mean(axis=(0, 2, 3))
    return m, np.sqrt(var)


def forward(model: ModelGraph, batch: np.ndarray, record: bool = False):
    """Run the model; returns (logits, trace) with trace None unless record.

    Recording captures per-layer inputs and float64 batch statistics of every
    BatchNorm input without touching the arithmetic path, so logits are
    bitwise identical with and without it.
    """
    validate_model(model)
    batch = _check_batch(model, batch)
    acts = run_layers(model, batch, keep=record)
    trace = None
    if record:
        means, stds = {}, {}
        for i in bn_layers(model):
            means[i], stds[i] = _channel_stats(acts[i])
        trace = ForwardTrace(activations=acts, bn_means=means, bn_stds=stds)
    return acts[-1], trace


# ---------------------------------------------------------------------------
# input gradient


def _col2im_batch(cols: np.ndarray, shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Scatter-add column gradients back onto the padded input."""
    n, c, hp, wp = shape
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros(shape, dtype=np.float32)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += cols6[:, :, i, j]
    return out


def _conv_backward_input(layer: Conv2d, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    p = layer.padding
    hp, wp = x.shape[2] + 2 * p, x.shape[3] + 2 * p
    gmat = grad_out.reshape(n, layer.out_channels, -1)
    grad_cols = np.matmul(layer.weight.reshape(layer.out_channels, -1).T, gmat)
    gpad = _col2im_batch(grad_cols, (n, layer.in_channels, hp, wp), layer.kernel_h, layer.kernel_w, layer.stride)
    if p == 0:
        return gpad
    return gpad[:, :, p:-p, p:-p]


def _avgpool_backward(layer: AvgPool, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    k, s = layer.window, layer.stride
    oh, ow = grad_out.shape[2], grad_out.shape[3]
    gx = np.zeros_like(x)
    g = grad_out * np.float32(1.0 / (k * k))
    for i in range(k):
        for j in range(k):
            gx[:, :, i:i + oh * s:s, j:j + ow * s:s] += g
    return gx


def _backward_input(layer, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    if isinstance(layer, Conv2d):
        return _conv_backward_input(layer, x, grad_out)
    if isinstance(layer, Linear):
        g = grad_out @ layer.weight
        return g.reshape(x.shape)
    if isinstance(layer, BatchNorm):
        scale = layer.gamma / np.sqrt(layer.running_var + np.float32(layer.eps))
        return grad_out * scale[None, :, None, None]
    if isinstance(layer, ReLU):
        return grad_out * (x > 0)
    if isinstance(layer, AvgPool):
        return _avgpool_backward(layer, x, grad_out)
    raise UnsupportedLayerError(f"no backward rule for {type(layer).__name__}")


def stat_loss_and_gradient(model: ModelGraph, batch: np.ndarray,
                           target_stats: dict | None = None) -> tuple[float, np.ndarray]:
    """Batch-statistic matching loss at `batch` and its gradient with respect to `batch`.

    The loss is the sum over BatchNorm layers of the squared L2 distance
    between the batch mean/std of the layer's input and target statistics
    (defaulting to the model's stored running statistics). It is summed in
    the same order from the same statistics as distill.bn_stat_loss over a
    recorded forward pass, so the two agree bit for bit. Gradients flow
    through every layer between the input and each BatchNorm, including
    residual branches.
    """
    validate_model(model)
    batch = _check_batch(model, batch)
    targets = bn_targets(model) if target_stats is None else target_stats
    if not targets:
        raise UnsupportedLayerError("input gradients need at least one BatchNorm layer")
    acts = run_layers(model, batch)
    grads = [np.zeros_like(a) for a in acts]

    # direct statistic terms at each BN input
    loss = 0.0
    for i, (u, sig) in targets.items():
        x = acts[i]
        m, s = _channel_stats(x)
        du, dsig = m - u, s - sig
        loss += float(du @ du) + float(dsig @ dsig)
        nhw = x.shape[0] * x.shape[2] * x.shape[3]
        dm = 2.0 * du / nhw
        ds = 2.0 * dsig / (nhw * np.maximum(s, 1e-12))
        term = dm[None, :, None, None] + ds[None, :, None, None] * (x.astype(np.float64) - m[None, :, None, None])
        grads[i] += term.astype(np.float32)

    for i in range(len(model.layers) - 1, -1, -1):
        g = grads[i + 1]
        layer = model.layers[i]
        if isinstance(layer, ResidualAdd):
            grads[i] += g
            grads[layer.source + 1] += g
        else:
            grads[i] += _backward_input(layer, acts[i], g)
    if not np.isfinite(grads[0]).all():
        raise NumericFailureError("non-finite input gradient", layer_index=None)
    return loss, grads[0]


def input_gradient(model: ModelGraph, batch: np.ndarray, target_stats: dict | None = None) -> np.ndarray:
    """Gradient of the batch-statistic matching loss with respect to `batch` (see stat_loss_and_gradient)."""
    return stat_loss_and_gradient(model, batch, target_stats)[1]


# ---------------------------------------------------------------------------
# serialization


def _param_arrays(layer) -> list[tuple[str, np.ndarray]]:
    if isinstance(layer, Conv2d) or isinstance(layer, Linear):
        out = [("weight", layer.weight)]
        if layer.bias is not None:
            out.append(("bias", layer.bias))
        return out
    if isinstance(layer, BatchNorm):
        return [
            ("running_mean", layer.running_mean),
            ("running_var", layer.running_var),
            ("gamma", layer.gamma),
            ("beta", layer.beta),
        ]
    return []


def _layer_header(layer) -> dict:
    if isinstance(layer, Conv2d):
        return {
            "kind": layer.kind,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_h": layer.kernel_h,
            "kernel_w": layer.kernel_w,
            "stride": layer.stride,
            "padding": layer.padding,
        }
    if isinstance(layer, BatchNorm):
        return {"kind": layer.kind, "channels": layer.channels, "eps": layer.eps}
    if isinstance(layer, ReLU):
        return {"kind": layer.kind}
    if isinstance(layer, AvgPool):
        return {"kind": layer.kind, "window": layer.window, "stride": layer.stride}
    if isinstance(layer, Linear):
        return {
            "kind": layer.kind,
            "in_features": layer.in_features,
            "out_features": layer.out_features,
        }
    if isinstance(layer, ResidualAdd):
        return {"kind": layer.kind, "source": layer.source}
    raise UnsupportedLayerError(f"cannot serialize {type(layer).__name__}")


def blob_path_for(manifest_path) -> Path:
    return Path(manifest_path).with_suffix(".bin")


def save_model(model: ModelGraph, path) -> Path:
    """Write the manifest JSON to `path` and float32 weights to a .bin sidecar."""
    validate_model(model)
    path = Path(path)
    blob = bytearray()
    offset = 0
    layers = []
    for layer in model.layers:
        entry = _layer_header(layer)
        params = []
        for name, arr in _param_arrays(layer):
            a = np.ascontiguousarray(arr, dtype=np.float32)
            params.append({"name": name, "shape": list(a.shape), "offset": offset, "count": int(a.size)})
            blob += a.astype("<f4").tobytes()
            offset += int(a.size)
        entry["params"] = params
        layers.append(entry)
    manifest = {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "input_shape": list(model.input_shape),
        "class_count": model.class_count,
        "blob": blob_path_for(path).name,
        "layers": layers,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    blob_path_for(path).write_bytes(bytes(blob))
    return path


def _build_layer(entry: dict, values: dict):
    kind = entry.get("kind")
    if kind == "conv2d":
        return Conv2d(
            in_channels=entry["in_channels"],
            out_channels=entry["out_channels"],
            kernel_h=entry["kernel_h"],
            kernel_w=entry["kernel_w"],
            stride=entry["stride"],
            padding=entry["padding"],
            weight=values["weight"],
            bias=values.get("bias"),
        )
    if kind == "batch_norm":
        return BatchNorm(
            channels=entry["channels"],
            running_mean=values["running_mean"],
            running_var=values["running_var"],
            gamma=values["gamma"],
            beta=values["beta"],
            eps=entry["eps"],
        )
    if kind == "relu":
        return ReLU()
    if kind == "avg_pool":
        return AvgPool(window=entry["window"], stride=entry["stride"])
    if kind == "linear":
        return Linear(
            in_features=entry["in_features"],
            out_features=entry["out_features"],
            weight=values["weight"],
            bias=values.get("bias"),
        )
    if kind == "residual_add":
        return ResidualAdd(source=entry["source"])
    raise UnsupportedLayerError(f"unknown layer kind {kind!r}")


def load_model(path) -> ModelGraph:
    """Load a manifest + blob pair written by save_model."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model manifest {path}: {exc}") from exc
    if manifest.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} manifest")
    blob_file = path.parent / manifest.get("blob", "")
    try:
        raw = blob_file.read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read weight blob {blob_file}: {exc}") from exc
    flat = np.frombuffer(raw, dtype="<f4")
    layers = []
    try:
        for entry in manifest["layers"]:
            values = {}
            for p in entry.get("params", []):
                lo, n = p["offset"], p["count"]
                if lo + n > flat.size or int(math.prod(p["shape"])) != n:
                    raise ModelFormatError(f"weight blob too short for {p['name']} in {path}")
                values[p["name"]] = flat[lo:lo + n].reshape(p["shape"]).astype(np.float32)
            layers.append(_build_layer(entry, values))
        model = ModelGraph(
            layers=layers,
            input_shape=tuple(manifest["input_shape"]),
            class_count=int(manifest["class_count"]),
        )
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model manifest {path}: {exc}") from exc
    validate_model(model)
    return model
