"""Data-free calibration batches distilled from batch-norm statistics.

A synthetic batch starts as seeded standard-normal noise and is pushed by
plain gradient descent until the per-channel mean and std observed at every
BatchNorm input match that layer's stored running statistics. No labels, no
real data, and no weight updates are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as m
from .errors import ConfigError, DivergenceError, UnsupportedLayerError


@dataclass(frozen=True)
class DistillConfig:
    batch_size: int = 32
    steps: int = 500
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"distill.batch_size must be >= 1, got {self.batch_size}")
        if self.steps < 1:
            raise ConfigError(f"distill.steps must be >= 1, got {self.steps}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"distill.learning_rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError(f"distill.seed must be non-negative, got {self.seed}")


@dataclass
class SyntheticBatch:
    """Distilled input batch plus the descent history that produced it."""

    data: np.ndarray
    final_loss: float
    loss_history: list
    seed: int


def bn_stat_loss(trace: m.ForwardTrace, model: m.ModelGraph, targets: dict | None = None) -> float:
    """Sum over BN layers of squared L2 distance between observed and target stats."""
    if targets is None:
        targets = m.bn_targets(model)
    total = 0.0
    for i, (u, sig) in targets.items():
        du = trace.bn_means[i] - u
        ds = trace.bn_stds[i] - sig
        total += float(du @ du) + float(ds @ ds)
    return total


# Consecutive steps the loss may sit above 10x the initial value before the
# descent is declared divergent.
_DIVERGENCE_PATIENCE = 50
_DIVERGENCE_FACTOR = 10.0


def synthesize(model: m.ModelGraph, config: DistillConfig = DistillConfig()) -> SyntheticBatch:
    """Distill a calibration batch by descending the statistic-matching loss.

    Deterministic for a fixed (model, config): the start point comes from
    numpy's default generator seeded with config.seed and every following
    operation is pure float arithmetic. loss_history holds one entry per
    step, evaluated after that step's update, so steps=1 yields exactly one
    entry and the last entry is the loss of the returned batch.
    """
    m.validate_model(model)
    targets = m.bn_targets(model)
    if not targets:
        raise UnsupportedLayerError("data-free distillation needs at least one BatchNorm layer")
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal((config.batch_size, *model.input_shape), dtype=np.float32)
    # the model is validated once here; each step still checks its batch
    trace, grad = m._stat_loss_and_gradient(model, x, targets)
    initial = bn_stat_loss(trace, model, targets)
    threshold = _DIVERGENCE_FACTOR * max(initial, 1e-30)
    lr = np.float32(config.learning_rate)

    history = []
    bad_streak = 0
    for _ in range(config.steps):
        x = x - lr * grad
        # one pass gives this step's loss and the next step's gradient
        trace, grad = m._stat_loss_and_gradient(model, x, targets)
        cur = bn_stat_loss(trace, model, targets)
        history.append(cur)
        if cur > threshold:
            bad_streak += 1
            if bad_streak >= _DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"loss stayed above {_DIVERGENCE_FACTOR}x its initial value "
                    f"({initial:.3g}) for {bad_streak} consecutive steps; "
                    "retry with a smaller learning rate"
                )
        else:
            bad_streak = 0
    return SyntheticBatch(data=x, final_loss=history[-1], loss_history=history, seed=config.seed)
