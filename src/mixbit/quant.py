"""Uniform affine quantization and fake-quantized inference.

Integer codes live in [-2^(b-1), 2^(b-1) - 1]. A value x maps to
round(x / scale) - zero_point with round half away from zero, and back to
scale * (q + zero_point), so the stored zero point is subtracted on the way
in and added back on the way out. Weights use symmetric per-tensor grids,
activations asymmetric per-tensor grids calibrated from each input's range in
one recorded forward pass. Bit-width 32 is a passthrough sentinel: no grid is
built and the fake-quantized forward is bitwise the float forward. forward_all
runs several quantized models of one network over one batch, each resumed
from the earlier pass it shares the longest prefix with.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as m
from .errors import ConfigError

# Passthrough sentinel: treated as "leave this tensor in float32".
PASSTHROUGH_BITS = 32

BIT_CHOICES = (4, 8, PASSTHROUGH_BITS)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (numpy rounds halves to even)."""
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


@dataclass(frozen=True)
class QuantParams:
    """One uniform grid: q = clamp(round(x / scale) - zero_point)."""

    scale: float
    zero_point: int
    bits: int
    symmetric: bool

    def __post_init__(self):
        if self.bits not in (4, 8):
            raise ConfigError(f"bits must be 4 or 8, got {self.bits}")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError(f"scale must be positive and finite, got {self.scale}")
        if self.symmetric and self.zero_point != 0:
            raise ConfigError("symmetric grids must have zero_point == 0")

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1))

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1


def calibrate_minmax(values: np.ndarray, bits: int, symmetric: bool) -> QuantParams:
    """Min-max calibration of one tensor.

    Symmetric grids use scale = max(|min|, |max|) / (2^(b-1) - 1) and zero
    point 0; asymmetric grids use scale = (max - min) / (2^b - 1) with the
    zero point placed so the observed minimum lands exactly on the integer
    range floor. A constant tensor degenerates to scale 1 with the constant
    mapped to code 0.

    Note: exact floor placement can push an asymmetric zero point outside
    the b-bit code range (e.g. data that never crosses zero); the zero point
    is plain integer metadata, not a stored code, so this is harmless and
    keeps the round-trip error bound at scale / 2.
    """
    v = np.asarray(values)
    if v.size == 0:
        raise ValueError("cannot calibrate an empty tensor")
    if not np.isfinite(v).all():
        raise ValueError("cannot calibrate non-finite values")
    lo = float(v.min())
    hi = float(v.max())
    if bits not in (4, 8):
        raise ConfigError(f"bits must be 4 or 8, got {bits}")
    if hi == lo:
        zp = 0 if symmetric else int(round_half_away(lo))
        return QuantParams(scale=1.0, zero_point=zp, bits=bits, symmetric=symmetric)
    if symmetric:
        scale = max(abs(lo), abs(hi)) / (2 ** (bits - 1) - 1)
        return QuantParams(scale=scale, zero_point=0, bits=bits, symmetric=True)
    scale = (hi - lo) / (2 ** bits - 1)
    qmin = -(2 ** (bits - 1))
    zp = int(round_half_away(lo / scale)) - qmin
    return QuantParams(scale=scale, zero_point=zp, bits=bits, symmetric=False)


def _codes(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """round_half_away(x / scale) - zero_point, clipped to the code range, in one float64 buffer."""
    v = np.asarray(values)
    if not np.isfinite(v).all():
        raise ValueError("cannot quantize non-finite values")
    t = v.astype(np.float64)
    t /= params.scale
    np.abs(t, out=t)
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, v, out=t)  # x / scale has the sign of x, since scale is positive
    t -= params.zero_point
    return np.clip(t, params.qmin, params.qmax, out=t)


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map float values onto integer codes (int32 array)."""
    return _codes(values, params).astype(np.int32)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to the float32 carrier."""
    q = np.asarray(codes, dtype=np.float64)
    return (params.scale * (q + params.zero_point)).astype(np.float32)


def fake_quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """dequantize(quantize(values, params), params), bit for bit, in one float64 buffer.

    The same float64 operations run in the same order; only the int32 round
    trip is skipped, which is exact because clipped codes are small integers.
    """
    t = _codes(values, params)
    t += params.zero_point
    t *= params.scale
    return t.astype(np.float32)


# ---------------------------------------------------------------------------
# whole-model quantization


@dataclass
class BitConfig:
    """Per-weighted-layer bit choices, one entry per Conv2d/Linear layer."""

    weight_bits: list[int]
    activation_bits: list[int]

    def __post_init__(self):
        if len(self.weight_bits) != len(self.activation_bits):
            raise ConfigError("weight_bits and activation_bits must have equal length")
        for b in list(self.weight_bits) + list(self.activation_bits):
            if b not in BIT_CHOICES:
                raise ConfigError(f"bit-width must be one of {BIT_CHOICES}, got {b}")

    @classmethod
    def uniform(cls, count: int, bits: int) -> "BitConfig":
        return cls([bits] * count, [bits] * count)


@dataclass
class QuantizedModel:
    """A float model plus frozen grids and integer weight codes.

    Entries are None where the bit config says passthrough. `weights` holds
    each quantized slot's codes dequantized once, which the fake-quantized
    pass runs in a per-step copy of the layer, so the shared base model is
    never written. Treat it as immutable; with_weight_codes() derives variants.
    """

    base: m.ModelGraph
    weight_params: list
    act_params: list
    weight_codes: list
    weights: list = field(init=False)

    def __post_init__(self):
        self.weights = [None if p is None else dequantize(c, p)
                        for p, c in zip(self.weight_params, self.weight_codes)]

    def with_weight_codes(self, slot: int, codes: np.ndarray) -> "QuantizedModel":
        """Copy with one slot's codes replaced; only that slot is dequantized again."""
        new = copy.copy(self)
        new.weight_codes = list(self.weight_codes)
        new.weight_codes[slot] = codes
        new.weights = list(self.weights)
        new.weights[slot] = dequantize(codes, self.weight_params[slot])
        return new


def quantize_model(model: m.ModelGraph, bit_config: BitConfig, calib_batch: np.ndarray,
                   calib_trace: m.ForwardTrace | None = None) -> QuantizedModel:
    """Freeze quantization grids for every weighted layer.

    Weights calibrate symmetrically from their own values; activations
    calibrate asymmetrically from the [min, max] of each weighted layer's
    input in one recorded forward pass over `calib_batch` (trace.ranges).
    `calib_trace` may supply that recorded pass, so that callers quantizing
    one model several times over the same batch run it once; when every
    activation width is passthrough, no grid reads the pass and only the
    batch is checked. Biases and BatchNorm parameters stay in float32.
    """
    m.validate_model(model)
    slots = m.weighted_layers(model)
    if len(bit_config.weight_bits) != len(slots):
        raise ConfigError(
            f"bit config covers {len(bit_config.weight_bits)} layers, model has {len(slots)} weighted layers"
        )
    trace = calib_trace
    if trace is None and set(bit_config.activation_bits) == {PASSTHROUGH_BITS}:
        m._check_batch(model, calib_batch)
    elif trace is None:
        _, trace = m.forward(model, calib_batch, record=True)
    wparams, aparams, codes = [], [], []
    for pos, idx in enumerate(slots):
        wb = bit_config.weight_bits[pos]
        ab = bit_config.activation_bits[pos]
        layer = model.layers[idx]
        if wb == PASSTHROUGH_BITS:
            wparams.append(None)
            codes.append(None)
        else:
            p = calibrate_minmax(layer.weight, wb, symmetric=True)
            wparams.append(p)
            codes.append(quantize(layer.weight, p))
        if ab == PASSTHROUGH_BITS:
            aparams.append(None)
        else:
            aparams.append(calibrate_minmax(trace.ranges[idx], ab, symmetric=False))
    return QuantizedModel(model, wparams, aparams, codes)


def _quantized_run(qmodel: QuantizedModel, batch: np.ndarray, prefix=(), keep=False) -> list:
    """run_layers over qmodel.base (validated) and a checked batch, each quantized slot's layer and input swapped."""
    model = qmodel.base
    slot_of = {idx: pos for pos, idx in enumerate(m.weighted_layers(model))}

    def hook(i, layer, x):
        if i in slot_of:
            w, p = qmodel.weights[slot_of[i]], qmodel.act_params[slot_of[i]]
            layer = layer if w is None else replace(layer, weight=w)
            x = x if p is None else fake_quantize(x, p)
        return layer, x

    return m.run_layers(model, batch, hook, prefix, keep)


def quantized_forward(qmodel: QuantizedModel, batch: np.ndarray) -> np.ndarray:
    """Fake-quantized inference on the float32 carrier.

    Each weighted layer consumes its input through its activation grid and
    multiplies by its dequantized integer weights; everything else (bias,
    BatchNorm, pooling, residual adds) runs in plain float32. Passthrough
    slots reuse the original tensors, so an all-32 config is bitwise the
    plain forward pass.
    """
    m.validate_model(qmodel.base)
    return _quantized_run(qmodel, m._check_batch(qmodel.base, batch))[-1]


def _shared_slots(a: QuantizedModel, b: QuantizedModel) -> int:
    """How many leading weighted slots a and b run alike: equal activation grids and equal dequantized weights.

    Weights are compared, not weight_params: a grid subclass read from disk
    never equals the QuantParams of the same grid.
    """
    count = 0
    for wa, wb, pa, pb in zip(a.weights, b.weights, a.act_params, b.act_params):
        if pa != pb or not np.array_equal(wa, wb):
            break
        count += 1
    return count


def forward_all(qmodels: list, batch: np.ndarray) -> list:
    """[quantized_forward(qm, batch) for qm in qmodels], bit for bit, with each pass resumed from an earlier one.

    The models must share one base network. Each model after the first
    resumes from the earlier model whose leading weighted slots run alike its
    own the longest (the first of a tie), at the first layer where the two
    differ: the layer count for a duplicate, the first weighted layer for a
    model that shares no slot. That earlier pass keeps only what the
    resumptions read, the input of that layer and each residual source read
    at or after it; every other pass keeps nothing. The passes run in
    model._in_parts sample parts, whose logits are joined.
    """
    base = qmodels[0].base
    if any(qm.base is not base for qm in qmodels):
        raise ValueError("forward_all needs quantized models of one base network")
    m.validate_model(base)
    batch = m._check_batch(base, batch)
    stops = [*m.weighted_layers(base), len(base.layers)]  # where two models that share n slots differ
    resume, keep = [], [set() for _ in qmodels]
    for k, qm in enumerate(qmodels):
        shared = [_shared_slots(qm, earlier) for earlier in qmodels[:k]]
        partner = int(np.argmax(shared)) if k else None
        start = stops[shared[partner]] if k else 0
        resume.append((partner, start))
        if start:
            keep[partner] |= {start} | {lyr.source + 1 for lyr in base.layers[start:]
                                        if isinstance(lyr, m.ResidualAdd) and lyr.source < start}

    def passes(xs, gather):
        runs = []
        for qm, kept, (partner, start) in zip(qmodels, keep, resume):
            gather(None)  # the parts start each pass together, so it peaks at their summed peaks whatever the schedule
            runs.append(_quantized_run(qm, xs, runs[partner][1:start + 1] if start else (), kept))
        return [acts[-1] for acts in runs]

    return [m._join(logits) for logits in zip(*m._in_parts(base, batch, passes))]


# ---------------------------------------------------------------------------
# model size


@dataclass(frozen=True)
class ModelSize:
    """Bit budget split into quantizable weights and fixed float32 parameters."""

    weight_bits: int
    fixed_bits: int

    @property
    def total_bits(self) -> int:
        return self.weight_bits + self.fixed_bits

    @property
    def megabytes(self) -> float:
        return self.total_bits / 8.0 / 1e6


def weight_bit_sizes(model: m.ModelGraph, bits) -> list[int]:
    """Per-weighted-layer weight size in bits; `bits` holds one width per weighted layer."""
    slots = m.weighted_layers(model)
    if len(bits) != len(slots):
        raise ConfigError(f"expected {len(slots)} bit entries, got {len(bits)}")
    return [int(model.layers[idx].weight.size) * b for idx, b in zip(slots, bits)]


def fixed_param_bits(model: m.ModelGraph) -> int:
    """Bits of parameters that never quantize: every float32 param but the weights."""
    return 32 * sum(int(arr.size) for layer in model.layers
                    for name, arr in m._param_arrays(layer) if name != "weight")


def model_size(model: m.ModelGraph, bit_config: BitConfig) -> ModelSize:
    """Total stored size under a bit config; passthrough layers count at 32 bits."""
    wbits = sum(weight_bit_sizes(model, bit_config.weight_bits))
    return ModelSize(weight_bits=wbits, fixed_bits=fixed_param_bits(model))
