"""Layer sensitivity scored by masking quantized weights.

The fast method quantizes the whole model once, then, layer by layer, zeroes
a seeded random fraction of that layer's integer weight codes and measures
the mean per-sample KL divergence between the masked and unmasked model's
softmax outputs. One quantization pass plus one masked sweep per layer,
instead of requantizing the network per layer the way the slow oracle does.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import model as m
from . import quant
from .errors import ConfigError, build, checked

KL_EPS = 1e-12


@dataclass(frozen=True)
class MaskSpec:
    """Which fraction of one layer's weight codes to zero, and how to pick them."""

    alpha: float
    seed: int
    layer_index: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"mask alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"mask seed must be non-negative, got {self.seed}")


def _layer_rng(seed: int, layer_index: int) -> np.random.Generator:
    # stable per-layer stream derived from (seed, layer index)
    return np.random.default_rng(np.random.SeedSequence([seed, layer_index]))


def mask_weights(codes: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """Copy of `codes` with round(alpha * n) entries zeroed.

    Positions are drawn without replacement from a generator seeded by
    (seed, layer_index), so the same spec always masks the same entries and
    different layers get independent streams. Halves round up.
    """
    n = int(codes.size)
    k = int(np.floor(spec.alpha * n + 0.5))
    out = codes.copy()
    if k:
        idx = _layer_rng(spec.seed, spec.layer_index).choice(n, size=k, replace=False)
        out.reshape(-1)[idx] = 0
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def kl_divergence(p: np.ndarray, q: np.ndarray, eps: float = KL_EPS) -> float:
    """KL(p || q) in nats with epsilon smoothing of q.

    q entries below eps are clamped up and q renormalized (only when the
    clamp changed something, so identical inputs give exactly 0.0). Both
    arguments must be same-length distributions.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"p and q must be equal-length vectors, got {p.shape} and {q.shape}")
    for name, d in (("p", p), ("q", q)):
        if (d < 0).any() or abs(float(d.sum()) - 1.0) > 1e-6:
            raise ValueError(f"{name} is not a probability distribution")
    if (q < eps).any():
        q = np.maximum(q, eps)
        q = q / q.sum()
    mask = p > 0
    val = float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
    return max(val, 0.0)


@dataclass
class SensitivityReport:
    """Per-weighted-layer sensitivity scores plus how they were measured."""

    omega: np.ndarray
    batch_size: int
    alpha: float | None
    seed: int | None
    method: str
    bits: int

    def to_dict(self) -> dict:
        return {**asdict(self), "omega": self.omega.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SensitivityReport":
        omega = np.asarray(checked(d["omega"], list[float], "omega"), dtype=np.float64)
        if not np.isfinite(omega).all():
            raise ConfigError(f"omega: expected finite numbers, got {omega.tolist()}")
        return build(cls, {**d, "omega": omega})


def _scores(logits: list) -> np.ndarray:
    """Batch-mean KL divergence from the first model's softmax to that of each later model."""
    base, *others = [softmax(z) for z in logits]
    return np.array([np.mean([kl_divergence(p, q) for p, q in zip(base, probs)]) for probs in others],
                    dtype=np.float64)


def mqe_sensitivity(
    model: m.ModelGraph,
    batch: np.ndarray,
    alpha: float = 0.5,
    seed: int = 0,
    base_bits: int = 8,
) -> SensitivityReport:
    """Mask-based sensitivity: one whole-model quantization, L masked sweeps.

    The reference output is the uniformly quantized model at base_bits; each
    weighted layer's score is the batch-mean KL divergence from the
    reference softmax to the softmax of the same model with round(alpha * n)
    of that layer's weight codes zeroed. quant.forward_all resumes each
    masked sweep from the reference pass at the masked layer's input.
    """
    slots = m.weighted_layers(model)
    qm = quant.quantize_model(model, quant.BitConfig.uniform(len(slots), base_bits), batch)
    masked = [qm.with_weight_codes(pos, mask_weights(qm.weight_codes[pos], MaskSpec(alpha, seed, idx)))
              for pos, idx in enumerate(slots)]
    return SensitivityReport(_scores(quant.forward_all([qm, *masked], batch)), int(batch.shape[0]),
                             alpha=alpha, seed=seed, method="mqe", bits=base_bits)


def naive_sensitivity(model: m.ModelGraph, batch: np.ndarray, bits: int = 4) -> SensitivityReport:
    """Reference method: requantize the model once per layer.

    Layer i's score is the batch-mean KL divergence between the float
    model's softmax and that of a model with only layer i's weights
    quantized to `bits` (activations untouched). Runs L whole-model
    quantizations for L weighted layers; quant.forward_all resumes each
    quantized model from the float pass at its quantized layer's input.
    bits=32 degenerates to comparing the float model with itself, scoring
    every layer 0.
    """
    count = len(m.weighted_layers(model))
    passthrough = [quant.PASSTHROUGH_BITS] * count
    float_qm = quant.QuantizedModel(model, [None] * count, [None] * count, [None] * count)
    singles = [quant.quantize_model(model, quant.BitConfig(passthrough[:pos] + [bits] + passthrough[pos + 1:],
                                                           passthrough), batch) for pos in range(count)]
    return SensitivityReport(_scores(quant.forward_all([float_qm, *singles], batch)), int(batch.shape[0]),
                             alpha=None, seed=None, method="naive", bits=bits)
