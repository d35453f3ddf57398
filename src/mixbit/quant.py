"""Uniform affine quantization and fake-quantized inference.

Integer codes live in [-2^(b-1), 2^(b-1) - 1]. A value x maps to
round(x / scale) - zero_point with round half away from zero, and back to
scale * (q + zero_point), so the stored zero point is subtracted on the way
in and added back on the way out. Weights use symmetric per-tensor grids,
activations asymmetric per-tensor grids calibrated from one recorded forward
pass. Bit-width 32 is a passthrough sentinel: no grid is built and the
fake-quantized forward is bitwise the float forward.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

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


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map float values onto integer codes (int32 array)."""
    v = np.asarray(values)
    if not np.isfinite(v).all():
        raise ValueError("cannot quantize non-finite values")
    q = round_half_away(v.astype(np.float64) / params.scale) - params.zero_point
    return np.clip(q, params.qmin, params.qmax).astype(np.int32)


def dequantize(codes: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer codes back to the float32 carrier."""
    q = np.asarray(codes, dtype=np.float64)
    return (params.scale * (q + params.zero_point)).astype(np.float32)


def fake_quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """dequantize(quantize(values, params), params), bit for bit, in one float64 buffer.

    The same float64 operations run in the same order; only the int32 round
    trip is skipped, which is exact because clipped codes are small integers.
    The sign of x / scale is the sign of x, since scale is positive.
    """
    v = np.asarray(values)
    if not np.isfinite(v).all():
        raise ValueError("cannot quantize non-finite values")
    t = v.astype(np.float64)
    t /= params.scale
    np.abs(t, out=t)
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, v, out=t)
    t -= params.zero_point
    np.clip(t, params.qmin, params.qmax, out=t)
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

    Entries are None wherever the bit config says passthrough. `weights`
    holds the dequantized weight of each quantized slot, computed once from
    the codes. The base model is shared, never copied; treat everything here
    as immutable and use with_weight_codes() to derive masked variants.
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
    calibrate asymmetrically from the tensors observed at each weighted
    layer's input during one recorded forward pass over `calib_batch`.
    `calib_trace` may supply that recorded pass, so that callers quantizing
    one model several times over the same batch run it once. Biases and
    BatchNorm parameters stay in float32.
    """
    m.validate_model(model)
    slots = m.weighted_layers(model)
    if len(bit_config.weight_bits) != len(slots):
        raise ConfigError(
            f"bit config covers {len(bit_config.weight_bits)} layers, model has {len(slots)} weighted layers"
        )
    trace = calib_trace
    if trace is None:
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
            aparams.append(calibrate_minmax(trace.activations[idx], ab, symmetric=False))
    return QuantizedModel(model, wparams, aparams, codes)


def _quantized_run(qmodel: QuantizedModel, batch: np.ndarray, prefix, keep: bool) -> list:
    model = qmodel.base
    m.validate_model(model)
    batch = m._check_batch(model, batch)
    slot_of = {idx: pos for pos, idx in enumerate(m.weighted_layers(model))}

    def weight_fn(i, layer):
        w = qmodel.weights[slot_of[i]]
        return layer.weight if w is None else w

    def input_fn(i, x):
        p = qmodel.act_params[slot_of[i]]
        if p is None:
            return x
        return fake_quantize(x, p)

    return m.run_layers(model, batch, weight_fn=weight_fn, input_fn=input_fn, prefix=prefix, keep=keep)


def quantized_activations(qmodel: QuantizedModel, batch: np.ndarray) -> list:
    """Every activation of quantized_forward, in run_layers order (acts[-1] is the logits)."""
    return _quantized_run(qmodel, batch, (), True)


def quantized_forward(qmodel: QuantizedModel, batch: np.ndarray, prefix=()) -> np.ndarray:
    """Fake-quantized inference on the float32 carrier.

    Each weighted layer consumes its input through its activation grid and
    multiplies by its dequantized integer weights; everything else (bias,
    BatchNorm, pooling, residual adds) runs in plain float32. Passthrough
    slots reuse the original tensors, so an all-32 config is bitwise the
    plain forward pass. `prefix` (see model.run_layers) resumes from the
    activations quantized_activations returned for a model that differs from
    this one only at or after layer len(prefix).
    """
    return _quantized_run(qmodel, batch, prefix, False)[-1]


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
    """Per-weighted-layer weight size in bits; `bits` is an int or one per layer."""
    slots = m.weighted_layers(model)
    if isinstance(bits, int):
        bits = [bits] * len(slots)
    if len(bits) != len(slots):
        raise ConfigError(f"expected {len(slots)} bit entries, got {len(bits)}")
    return [int(model.layers[idx].weight.size) * b for idx, b in zip(slots, bits)]


def fixed_param_bits(model: m.ModelGraph) -> int:
    """Bits of parameters that never quantize: every float32 param but the weights."""
    return 32 * sum(int(arr.size) for layer in model.layers
                    for name, arr in m._param_arrays(layer) if name != "weight")


def model_size(model: m.ModelGraph, bit_config: BitConfig) -> ModelSize:
    """Total stored size under a bit config; passthrough layers count at 32 bits."""
    slots = m.weighted_layers(model)
    if len(bit_config.weight_bits) != len(slots):
        raise ConfigError(
            f"bit config covers {len(bit_config.weight_bits)} layers, model has {len(slots)} weighted layers"
        )
    wbits = sum(weight_bit_sizes(model, list(bit_config.weight_bits)))
    return ModelSize(weight_bits=wbits, fixed_bits=fixed_param_bits(model))
