"""Data-free calibration batches distilled from batch-norm statistics.

A synthetic batch starts as seeded standard-normal noise and is pushed by
Adam (Kingma & Ba, 2015), as in ZeroQ, until the per-channel mean and std
observed at every BatchNorm input match that layer's stored running
statistics. No labels, no real data, and no weight updates are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as m
from .errors import DivergenceError, RangeError, UnsupportedLayerError


@dataclass(frozen=True)
class DistillConfig:
    batch_size: int = 32
    steps: int = 5
    learning_rate: float = 0.03
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise RangeError("{at}batch_size must be >= 1, got {}", self.batch_size)
        if self.steps < 1:
            raise RangeError("{at}steps must be >= 1, got {}", self.steps)
        if not 0 < self.learning_rate < math.inf:
            raise RangeError("{at}learning_rate must be positive and finite, got {}", self.learning_rate)
        if self.seed < 0:
            raise RangeError("{at}seed must be non-negative, got {}", self.seed)


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
# descent is declared divergent; the batch it returns must also lie below that.
_DIVERGENCE_PATIENCE = 50
_DIVERGENCE_FACTOR = 10.0

# Adam's moment decay rates and the term that keeps its step's denominator positive
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


# an overflowing step fails the next pass's finiteness check, which names the layer
@np.errstate(over="ignore", invalid="ignore")
def synthesize(model: m.ModelGraph, config: DistillConfig = DistillConfig()) -> SyntheticBatch:
    """Distill a calibration batch by descending the statistic-matching loss with Adam.

    Step t updates the moments m and v and the batch x from the gradient g as
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        x -= m / (sqrt(v / (1 - b2**t)) + eps) * (lr / (1 - b1**t))
    with b1, b2 and eps the _ADAM_* constants. x, m, v and every product are
    float32; the coefficients 1 - b1, 1 - b2, the bias-correction factor
    1 - b2**t and the step size lr / (1 - b1**t) are computed in float64 and
    rounded to float32 once.

    Deterministic for a fixed (model, config): the start point comes from
    numpy's default generator seeded with config.seed and every following
    operation is pure float arithmetic. loss_history holds one entry per
    step, evaluated after that step's update, so steps=1 yields exactly one
    entry and the last entry is the loss of the returned batch.

    Raises DivergenceError when the loss sits above _DIVERGENCE_FACTOR times
    its initial value for _DIVERGENCE_PATIENCE steps in a row, or when the
    batch it would return does; spikes that recover pass.
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
    b1, b2, eps = np.float32(_ADAM_BETA1), np.float32(_ADAM_BETA2), np.float32(_ADAM_EPSILON)
    c1, c2 = np.float32(1 - _ADAM_BETA1), np.float32(1 - _ADAM_BETA2)
    mean, var = np.zeros_like(x), np.zeros_like(x)

    history = []
    bad_streak = 0
    for step in range(1, config.steps + 1):
        # in place, with the pass's fresh gradient as the scratch buffer
        mean *= b1
        mean += c1 * grad
        grad *= grad
        var *= b2
        var += c2 * grad
        np.divide(var, np.float32(1 - _ADAM_BETA2**step), out=grad)
        np.sqrt(grad, out=grad)
        grad += eps
        np.divide(mean, grad, out=grad)
        grad *= np.float32(config.learning_rate / (1 - _ADAM_BETA1**step))
        x -= grad
        # one pass gives this step's loss and the next step's gradient, which
        # the last step does not need
        trace, grad = m._stat_loss_and_gradient(model, x, targets, backward=step < config.steps)
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
    if history[-1] > threshold:  # a streak cannot reach the patience in fewer steps than it
        raise DivergenceError(
            f"final loss {history[-1]:.3g} is above {_DIVERGENCE_FACTOR}x its initial value "
            f"({initial:.3g}); retry with a smaller learning rate"
        )
    return SyntheticBatch(data=x, final_loss=history[-1], loss_history=history, seed=config.seed)
