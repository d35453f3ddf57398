"""Bundled desk-scale fixtures: toy models and a synthetic evaluation task.

The models are built, not trained. Conv and linear weights draw from seeded
fan-in-scaled normals; every BatchNorm's running statistics are then set to
the statistics its input actually shows on a seeded probe batch, so the
stored targets are achievable and activations stay well scaled. The eval
set labels noisy copies of anchor inputs with the float model's prediction
on the clean anchor, which gives quantized variants a meaningful accuracy
ordering without any training loop.
"""

from __future__ import annotations

import numpy as np

from . import model as m

_PROBE_BATCH = 64
_VAR_FLOOR = 1e-4


def _conv(rng, in_c, out_c, k, stride=1, padding=0) -> m.Conv2d:
    fan_in = in_c * k * k
    w = rng.standard_normal((out_c, in_c, k, k), dtype=np.float32) * np.float32(np.sqrt(2.0 / fan_in))
    b = (0.1 * rng.standard_normal(out_c)).astype(np.float32)
    return m.Conv2d(in_c, out_c, k, k, stride=stride, padding=padding, weight=w, bias=b)


def _linear(rng, in_f, out_f) -> m.Linear:
    w = rng.standard_normal((out_f, in_f), dtype=np.float32) * np.float32(np.sqrt(2.0 / in_f))
    b = (0.1 * rng.standard_normal(out_f)).astype(np.float32)
    return m.Linear(in_f, out_f, weight=w, bias=b)


def _bn(channels) -> m.BatchNorm:
    return m.BatchNorm(
        channels,
        running_mean=np.zeros(channels, dtype=np.float32),
        running_var=np.ones(channels, dtype=np.float32),
        gamma=np.ones(channels, dtype=np.float32),
        beta=np.zeros(channels, dtype=np.float32),
    )


def _freeze_bn_stats(model: m.ModelGraph, seed: int) -> None:
    """Set each BN's running stats to its observed input stats on a probe batch.

    One pass, front to back: each BN is frozen from its input just before it
    runs, so every later layer already sees it frozen.
    """
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal((_PROBE_BATCH, *model.input_shape), dtype=np.float32)

    def freeze(i, layer, x):
        if isinstance(layer, m.BatchNorm):
            mean, std = m._channel_stats(x)
            layer.running_mean = mean.astype(np.float32)
            layer.running_var = np.maximum(std ** 2, _VAR_FLOOR).astype(np.float32)
        return layer, x

    m.run_layers(model, probe, freeze, keep=False)


def tiny_cnn(seed: int = 0) -> m.ModelGraph:
    """Three weighted layers, two BNs: the small sensitivity/distill fixture."""
    rng = np.random.default_rng(seed)
    layers = [
        _conv(rng, 2, 4, 3, padding=1),
        _bn(4),
        m.ReLU(),
        _conv(rng, 4, 4, 3, padding=1),
        _bn(4),
        m.ReLU(),
        m.AvgPool(2, 2),
        _linear(rng, 4 * 4 * 4, 10),
    ]
    net = m.ModelGraph(layers=layers, input_shape=(2, 8, 8), class_count=10)
    _freeze_bn_stats(net, seed + 1)
    return net


def toy_cnn(seed: int = 0) -> m.ModelGraph:
    """Five weighted layers with a residual block: the pipeline fixture."""
    rng = np.random.default_rng(seed)
    layers = [
        _conv(rng, 3, 8, 3, padding=1),    # 0
        _bn(8),                            # 1
        m.ReLU(),                          # 2
        _conv(rng, 8, 8, 3, padding=1),    # 3
        _bn(8),                            # 4
        m.ReLU(),                          # 5
        m.ResidualAdd(source=2),           # 6
        m.AvgPool(2, 2),                   # 7
        _conv(rng, 8, 16, 3, padding=1),   # 8
        _bn(16),                           # 9
        m.ReLU(),                          # 10
        m.AvgPool(2, 2),                   # 11
        _linear(rng, 16 * 2 * 2, 32),      # 12
        m.ReLU(),                          # 13
        _linear(rng, 32, 10),              # 14
    ]
    net = m.ModelGraph(layers=layers, input_shape=(3, 8, 8), class_count=10)
    _freeze_bn_stats(net, seed + 1)
    return net


def decorrelation_net(seed: int = 0) -> m.ModelGraph:
    """Two weighted layers where the one with far fewer weights costs more.

    The 1x1 conv owns 16 weights but works a 64x64 feature map; the linear
    head owns 2560 weights over a single output column.
    """
    rng = np.random.default_rng(seed)
    layers = [
        _conv(rng, 4, 4, 1),
        m.ReLU(),
        m.AvgPool(8, 8),
        _linear(rng, 4 * 8 * 8, 10),
    ]
    return m.ModelGraph(layers=layers, input_shape=(4, 64, 64), class_count=10)


def bn_passthrough_net(
    channels: int = 3,
    hw: int = 2,
    classes: int = 4,
    mean_target: float = 0.5,
    std_target: float = 1.5,
    seed: int = 0,
) -> m.ModelGraph:
    """Single BN reading the input directly; its statistic loss has a closed form.

    The stored running statistics are the distillation targets, so the
    optimum (any batch whose per-channel input mean/std hits them) is known
    exactly and the loss there is zero.
    """
    rng = np.random.default_rng(seed)
    bn = m.BatchNorm(
        channels,
        running_mean=np.full(channels, mean_target, dtype=np.float32),
        running_var=np.full(channels, std_target ** 2, dtype=np.float32),
        gamma=np.ones(channels, dtype=np.float32),
        beta=np.zeros(channels, dtype=np.float32),
    )
    layers = [bn, m.AvgPool(hw, hw), _linear(rng, channels, classes)]
    return m.ModelGraph(layers=layers, input_shape=(channels, hw, hw), class_count=classes)


def eval_batches(
    model: m.ModelGraph,
    samples: int = 256,
    noise: float = 0.1,
    seed: int = 1,
):
    """make_eval_dataset's (inputs, labels), drawn m.BLOCK samples at a time.

    The chunks are generated lazily, so a caller that consumes one at a time
    holds one chunk of inputs whatever `samples` is. Concatenated, they are
    make_eval_dataset's arrays bit for bit: the generator yields the same
    normals whether they are drawn in one call or in several.
    """
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((10, *model.input_shape), dtype=np.float32)
    logits, _ = m.forward(model, anchors)
    anchor_labels = logits.argmax(axis=1)
    for lo in range(0, samples, m.BLOCK):
        ks = np.arange(lo, min(lo + m.BLOCK, samples)) % 10
        xs = anchors[ks] + np.float32(noise) * rng.standard_normal(
            (ks.size, *model.input_shape), dtype=np.float32
        )
        yield xs, anchor_labels[ks].astype(np.int64)


def make_eval_dataset(
    model: m.ModelGraph,
    samples: int = 256,
    noise: float = 0.1,
    seed: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Labeled synthetic classification set for `model`.

    Ten anchor inputs are drawn from a seeded standard normal; each sample is
    anchor[k] + noise * N(0, 1) labeled with the float model's prediction on
    the clean anchor. The float model therefore scores high but not perfect
    accuracy, and heavier quantization shows up as lost accuracy.
    """
    xs, labels = zip(*eval_batches(model, samples, noise, seed))
    return np.concatenate(xs), np.concatenate(labels)
