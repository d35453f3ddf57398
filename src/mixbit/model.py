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
from dataclasses import dataclass, fields
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

# Samples per block: the conv kernels copy im2col columns for this many
# samples at a time, and evaluation runs its dataset in chunks of this size,
# so their working memory does not grow with the batch. The conv blocks bound
# batches larger than the eval chunks: the 64-sample probe that freezes
# BatchNorm statistics, and a distill.batch_size above 32.
BLOCK = 32


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
    params = ("weight", "bias")


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
    weight: np.ndarray = None
    bias: np.ndarray = None

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
    """Activations and per-channel input statistics captured during forward.

    activations[i] is the tensor layer i consumed; activations[-1] is the
    logits. bn_means/bn_stds hold float64 population statistics of each
    BatchNorm layer's input, keyed by layer index. The trace of the distill
    gradient pass (_stat_loss_and_gradient) holds no activations.
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


def _conv_forward(layer: Conv2d, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Convolution as one GEMM per sample, BLOCK samples' im2col copies at a time.

    Each sample's GEMM is the same call whatever the batch size, so the
    output does not depend on how a batch is split into blocks.
    """
    n = x.shape[0]
    oh, ow = _conv_out_hw(x.shape[2], x.shape[3], layer)
    wmat = weight.reshape(layer.out_channels, -1)
    out = np.empty((n, layer.out_channels, oh * ow), dtype=np.result_type(wmat, x))
    for lo in range(0, n, BLOCK):
        cols = _im2col_batch(_pad2d(x[lo:lo + BLOCK], layer.padding), layer.kernel_h, layer.kernel_w,
                             layer.stride)
        np.matmul(wmat, cols, out=out[lo:lo + BLOCK])
    out = out.reshape(n, layer.out_channels, oh, ow)
    if layer.bias is not None:
        out += layer.bias[None, :, None, None]
    return out


def _linear_forward(layer: Linear, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    if x.ndim == 4:
        x = x.reshape(x.shape[0], -1)
    if x.shape[1] != layer.in_features:
        raise ShapeMismatchError(f"linear expects {layer.in_features} features, got {x.shape[1]}")
    # one vector-matrix product per row, so a row's result does not depend on
    # the batch it is in: x @ weight.T picks its BLAS kernel by the row count,
    # and eval's last chunk holds eval.samples mod BLOCK rows
    out = np.matmul(x[:, None, :], weight.T)[:, 0]
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


def _col2im_add(cols: np.ndarray, out: np.ndarray, kh: int, kw: int, stride: int) -> None:
    """Scatter-add column gradients onto the padded input gradient `out`, in place."""
    n, c, hp, wp = out.shape
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += cols6[:, :, i, j]


def _conv_backward_input(layer: Conv2d, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Input gradient, BLOCK samples' column gradients at a time (see _conv_forward)."""
    n = x.shape[0]
    p = layer.padding
    gpad = np.zeros((n, layer.in_channels, x.shape[2] + 2 * p, x.shape[3] + 2 * p), dtype=np.float32)
    wmat_t = layer.weight.reshape(layer.out_channels, -1).T
    gmat = grad_out.reshape(n, layer.out_channels, -1)
    for lo in range(0, n, BLOCK):
        _col2im_add(np.matmul(wmat_t, gmat[lo:lo + BLOCK]), gpad[lo:lo + BLOCK],
                    layer.kernel_h, layer.kernel_w, layer.stride)
    if p == 0:
        return gpad
    return gpad[:, :, p:-p, p:-p]


def _avgpool_backward(layer: AvgPool, x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    k = layer.window
    n, c, oh, ow = grad_out.shape
    gx = np.zeros_like(x)
    g = grad_out * np.float32(1.0 / (k * k))
    _col2im_add(np.broadcast_to(g[:, :, None, None], (n, c, k, k, oh, ow)), gx, k, k, layer.stride)
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


def _stat_loss_and_gradient(model: ModelGraph, batch: np.ndarray,
                            targets: dict) -> tuple[ForwardTrace, np.ndarray]:
    """BatchNorm input statistics at `batch` and the statistic loss's gradient with respect to `batch`.

    The loss, distill.bn_stat_loss of the returned trace, is the sum over the
    BatchNorm layers in `targets` of the squared L2 distance between the
    batch mean/std of the layer's input and the target (mean, std); the
    statistics are those a recorded forward pass gives, bit for bit. The
    model must be validated and `targets` non-empty; the batch is checked
    here. Only the layers before the last target BatchNorm run, forward and
    backward, including residual branches.
    """
    batch = _check_batch(model, batch)
    last = max(targets)
    acts = run_layers(ModelGraph(model.layers[:last], model.input_shape, model.class_count), batch)
    # grads[i] is the loss gradient at acts[i], None until a term reaches it;
    # a first term is stored as is, which equals 0 + term except that a -0.0
    # entry keeps its sign
    grads = [None] * len(acts)

    def add(i, g):
        grads[i] = g if grads[i] is None else grads[i] + g

    # direct statistic terms at each BN input
    means, stds = {}, {}
    for i, (u, sig) in targets.items():
        x = acts[i]
        m, s = _channel_stats(x)
        means[i], stds[i] = m, s
        du, dsig = m - u, s - sig
        nhw = x.shape[0] * x.shape[2] * x.shape[3]
        dm = 2.0 * du / nhw
        ds = 2.0 * dsig / (nhw * np.maximum(s, 1e-12))
        term = dm[None, :, None, None] + ds[None, :, None, None] * (x.astype(np.float64) - m[None, :, None, None])
        add(i, term.astype(np.float32))

    for i in range(last - 1, -1, -1):
        g = grads[i + 1]
        layer = model.layers[i]
        if isinstance(layer, ResidualAdd):
            add(i, g)
            add(layer.source + 1, g)
        else:
            add(i, _backward_input(layer, acts[i], g))
        # lower layers read neither: they add only into grads[j] and
        # grads[source + 1], and both indices are at most i
        acts[i + 1] = grads[i + 1] = None
    if not np.isfinite(grads[0]).all():
        raise NumericFailureError("non-finite input gradient", layer_index=None)
    return ForwardTrace([], means, stds), grads[0]


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
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n", bytes(blob)


def save_model(model: ModelGraph, path) -> Path:
    """Write the manifest JSON to `path` and float32 weights to a .bin sidecar."""
    path = Path(path)
    manifest, blob = model_files(model, path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(manifest)
    blob_path_for(path).write_bytes(blob)
    return path


# JSON types a header value may have, by field annotation; integers widen to float
_HEADER_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number")}


def _natural(v) -> bool:
    return type(v) is int and v >= 0


def _checked_header(cls, header: dict, where: str) -> dict:
    """header with exactly cls's non-param fields as keys, each value of its field's JSON type."""
    out = {}
    for f in _header_fields(cls):
        if f.name not in header:
            raise ModelFormatError(f"{where}: missing key {f.name!r}")
        value = header.pop(f.name)
        accepted, noun = _HEADER_TYPES[f.type]
        if type(value) not in accepted:
            raise ModelFormatError(f"{where}: {f.name} must be {noun}, got {json.dumps(value)}")
        out[f.name] = float(value) if f.type == "float" else value
    if header:
        raise ModelFormatError(f"{where}: unknown key {next(iter(header))!r}")
    return out


def load_model(path) -> ModelGraph:
    """Load a manifest + blob pair written by save_model.

    Each layer is KINDS[kind](**header, **params). Header keys must be
    exactly the kind's non-param fields, each of its field's JSON type
    (integer fields reject bools, floats and strings); params must be the
    kind's own and lie inside the blob. Violations raise ModelFormatError
    naming the layer and the key, and the loaded graph is then validated.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot read model manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path} is not a {MODEL_FORMAT} manifest")
    blob_file = path.parent / str(manifest.get("blob", ""))
    try:
        raw = blob_file.read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read weight blob {blob_file}: {exc}") from exc
    flat = np.frombuffer(raw, dtype="<f4")
    layers = []
    try:
        for i, entry in enumerate(manifest["layers"]):
            if not isinstance(entry, dict):
                raise ModelFormatError(f"layer {i} in {path} is not a JSON object")
            header = dict(entry)
            kind = header.pop("kind", None)
            cls = KINDS.get(kind)
            if cls is None:
                raise UnsupportedLayerError(f"layer {i}: unknown layer kind {kind!r}")
            where = f"layer {i} ({kind}) in {path}"
            values = {}
            for p in header.pop("params", []):
                name, shape, lo, n = p["name"], p["shape"], p["offset"], p["count"]
                if name not in cls.params:
                    raise ModelFormatError(f"{where}: unknown param {name!r}")
                if not (_natural(lo) and _natural(n) and isinstance(shape, list)
                        and all(map(_natural, shape)) and math.prod(shape) == n):
                    raise ModelFormatError(f"{where}: param {name!r} has an inconsistent shape, offset or count")
                if lo + n > flat.size:
                    raise ModelFormatError(f"weight blob too short for {name} in {path}")
                values[name] = flat[lo:lo + n].reshape(shape).astype(np.float32)
            layers.append(cls(**_checked_header(cls, header, where), **values))
        input_shape = tuple(manifest["input_shape"])
        if not all(map(_natural, input_shape)) or not _natural(manifest["class_count"]):
            raise ModelFormatError(f"{path}: input_shape and class_count must be non-negative integers")
        model = ModelGraph(layers=layers, input_shape=input_shape, class_count=manifest["class_count"])
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model manifest {path}: {exc}") from exc
    validate_model(model)
    return model
