"""The fast paths compute exactly what the straightforward ones do, bit for bit.

Each reference below is the plain two-pass or full-sweep computation; the
package's fused, resumed or cached version must reproduce it with equal
bits, not within a tolerance.
"""

import copy
import functools
import json
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixbit import cli, quant, zoo
from mixbit import model as m
from mixbit import sensitivity as sens
from mixbit.distill import DistillConfig, _DIVERGENCE_FACTOR, _DIVERGENCE_PATIENCE, bn_stat_loss, synthesize
from mixbit.errors import DivergenceError, NumericFailureError
from test_blocks import res32_net

NETS = {"tiny_cnn": zoo.tiny_cnn, "toy_cnn": zoo.toy_cnn}


def skip_net(seed=0):
    """A residual add (layer 5) that reads layer 1's output past the weighted layers 2 and 4."""
    rng = np.random.default_rng(seed)
    layers = [zoo._conv(rng, 2, 4, 3, padding=1), m.ReLU(), zoo._conv(rng, 4, 4, 3, padding=1), m.ReLU(),
              zoo._conv(rng, 4, 4, 3, padding=1), m.ResidualAdd(source=1), m.AvgPool(4, 4), zoo._linear(rng, 4, 3)]
    return m.ModelGraph(layers=layers, input_shape=(2, 4, 4), class_count=3)


# the quantized-pass fixtures: the two bundled nets, a residual net at 32x32 and a long-lived residual source
FIXTURES = {**NETS, "res32_net": res32_net, "skip_net": skip_net}


def _batch(net, n, seed):
    return np.random.default_rng(seed).standard_normal((n, *net.input_shape), dtype=np.float32)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# distillation


def _two_pass_descent(net, config, steps):
    """Gradient pass, then a separate recorded forward pass for the loss, every step."""
    targets = m.bn_targets(net)
    x = np.random.default_rng(config.seed).standard_normal(
        (config.batch_size, *net.input_shape), dtype=np.float32)
    lr = np.float32(config.learning_rate)
    history = []
    for _ in range(steps):
        x = x - lr * m.input_gradient(net, x)
        _, trace = m.forward(net, x, record=True)
        history.append(bn_stat_loss(trace, net, targets))
    return x, history


@pytest.mark.parametrize("name", sorted(NETS))
def test_distill_history_matches_two_pass_reference(name):
    net = NETS[name](0)
    config = DistillConfig(batch_size=8, steps=12, learning_rate=0.5, seed=3)
    x_ref, history_ref = _two_pass_descent(net, config, config.steps)
    batch = synthesize(net, config)
    assert batch.loss_history == history_ref
    assert batch.final_loss == history_ref[-1]
    assert _same_bits(batch.data, x_ref)


def _gradient_every_step_descent(net, config):
    """synthesize's descent with the fused pass computing a gradient after every step, the last included."""
    targets = m.bn_targets(net)
    x = _batch(net, config.batch_size, config.seed)
    lr = np.float32(config.learning_rate)
    _, grad = m._stat_loss_and_gradient(net, x, targets)
    history = []
    for _ in range(config.steps):
        x = x - lr * grad
        trace, grad = m._stat_loss_and_gradient(net, x, targets)
        history.append(bn_stat_loss(trace, net, targets))
    return x, history


@pytest.mark.parametrize("name", sorted(NETS))
def test_last_distill_pass_is_forward_only(name, monkeypatch):
    net = NETS[name](0)
    config = DistillConfig(batch_size=8, steps=5, learning_rate=0.5, seed=3)
    x_ref, history_ref = _gradient_every_step_descent(net, config)
    fused = m._stat_loss_and_gradient
    gradients = []

    def spy(*args, **kwargs):
        trace, grad = fused(*args, **kwargs)
        gradients.append(grad is not None)
        return trace, grad

    monkeypatch.setattr(m, "_stat_loss_and_gradient", spy)
    batch = synthesize(net, config)
    assert gradients == [True] * config.steps + [False]
    assert batch.loss_history == history_ref
    assert _same_bits(batch.data, x_ref)  # the bytes of distilled.bin


def test_fused_loss_matches_recorded_forward():
    net = zoo.toy_cnn(1)
    x = _batch(net, 6, 7)
    fused, grad = m._stat_loss_and_gradient(net, x, m.bn_targets(net))
    _, trace = m.forward(net, x, record=True)
    assert fused.ranges == {}
    for stats, recorded in ((fused.bn_means, trace.bn_means), (fused.bn_stds, trace.bn_stds)):
        assert list(stats) == list(recorded)
        assert all(_same_bits(stats[i], recorded[i]) for i in stats)
    assert bn_stat_loss(fused, net) == bn_stat_loss(trace, net)
    assert _same_bits(grad, m.input_gradient(net, x))


def _zero_initialized_gradient(net, x):
    """The input gradient accumulated into a zero tensor per activation, every layer run backward."""
    acts = m.run_layers(net, x)
    grads = [np.zeros_like(a) for a in acts]
    for i, (u, sig) in m.bn_targets(net).items():
        mean, std = m._channel_stats(acts[i])
        nhw = acts[i].shape[0] * acts[i].shape[2] * acts[i].shape[3]
        dm = 2.0 * (mean - u) / nhw
        ds = 2.0 * (std - sig) / (nhw * np.maximum(std, 1e-12))
        centered = acts[i].astype(np.float64) - mean[None, :, None, None]
        grads[i] += (dm[None, :, None, None] + ds[None, :, None, None] * centered).astype(np.float32)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if isinstance(layer, m.ResidualAdd):
            grads[i] += grads[i + 1]
            grads[layer.source + 1] += grads[i + 1]
        else:
            x = acts[i].shape if isinstance(layer, m.WEIGHTED) else acts[i]
            grads[i] += m._backward_input(layer, x, grads[i + 1])
    return grads[0]


@pytest.mark.parametrize("name", sorted(NETS))
def test_gradient_matches_zero_initialized_reference(name):
    # the package skips layers past the last BatchNorm and allocates no zero tensors
    net = NETS[name](0)
    x = _batch(net, 6, 8)
    assert _same_bits(m.input_gradient(net, x), _zero_initialized_gradient(net, x))


def test_divergence_fires_at_the_reference_step():
    net = zoo.tiny_cnn(0)
    config = DistillConfig(batch_size=4, steps=1, learning_rate=50.0, seed=0)
    targets = m.bn_targets(net)
    x = np.random.default_rng(config.seed).standard_normal(
        (config.batch_size, *net.input_shape), dtype=np.float32)
    _, trace = m.forward(net, x, record=True)
    threshold = _DIVERGENCE_FACTOR * bn_stat_loss(trace, net, targets)
    history, streak = [], 0
    while streak < _DIVERGENCE_PATIENCE:
        assert len(history) < 500, "reference descent does not diverge"
        x = x - np.float32(config.learning_rate) * m.input_gradient(net, x)
        _, trace = m.forward(net, x, record=True)
        history.append(bn_stat_loss(trace, net, targets))
        streak = streak + 1 if history[-1] > threshold else 0
    fired = len(history)
    # the streak rule fires at `fired`; one step short, the batch it would return is above the threshold
    for steps, rule in ((fired, "consecutive steps"), (fired - 1, "final loss")):
        with pytest.raises(DivergenceError, match=rule):
            synthesize(net, DistillConfig(config.batch_size, steps, config.learning_rate, config.seed))
    # the last batch below the threshold, just before the streak began, is returned
    ok = fired - _DIVERGENCE_PATIENCE
    assert ok >= 1 and history[ok - 1] <= threshold
    last_ok = synthesize(net, DistillConfig(config.batch_size, ok, config.learning_rate, config.seed))
    assert last_ok.loss_history == history[:ok]


# ---------------------------------------------------------------------------
# forward passes


def test_forward_logits_same_with_and_without_record():
    net = zoo.toy_cnn(0)
    x = _batch(net, 5, 11)
    plain, _ = m.forward(net, x, record=False)
    recorded, _ = m.forward(net, x, record=True)
    assert _same_bits(plain, recorded)
    assert _same_bits(m.run_layers(net, x)[-1], recorded)


@pytest.mark.parametrize("name", sorted(NETS))
def test_trace_ranges_are_the_bounds_of_each_weighted_layers_input(name):
    net = NETS[name](0)
    x = _batch(net, 5, 14)
    _, trace = m.forward(net, x, record=True)
    acts = m.run_layers(net, x)
    assert list(trace.ranges) == m.weighted_layers(net)
    for i, bounds in trace.ranges.items():
        assert _same_bits(bounds, np.array([acts[i].min(), acts[i].max()], dtype=np.float32))
        for bits in (4, 8):
            assert quant.calibrate_minmax(bounds, bits, False) == quant.calibrate_minmax(acts[i], bits, False)


def _freeze_per_bn(net, seed):
    """The reference freeze: a full pass over the probe batch per BatchNorm, front to back."""
    probe = np.random.default_rng(seed).standard_normal((zoo._PROBE_BATCH, *net.input_shape), dtype=np.float32)
    for i in m.bn_layers(net):
        mean, std = m._channel_stats(m.run_layers(net, probe)[i])
        net.layers[i].running_mean = mean.astype(np.float32)
        net.layers[i].running_var = np.maximum(std ** 2, zoo._VAR_FLOOR).astype(np.float32)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(NETS))
def test_one_pass_bn_freeze_matches_a_pass_per_bn(name, seed):
    net = NETS[name](seed)
    ref = copy.deepcopy(net)
    for i in m.bn_layers(ref):
        ref.layers[i] = zoo._bn(ref.layers[i].channels)  # the statistics the builder starts from
    _freeze_per_bn(ref, seed + 1)  # the builders probe with seed + 1
    assert m.model_files(net, "model.json") == m.model_files(ref, "model.json")


def test_run_layers_frees_activations_after_their_last_reader():
    net = zoo.toy_cnn(0)
    assert any(isinstance(lyr, m.ResidualAdd) for lyr in net.layers)
    x = _batch(net, 3, 12)
    full = m.run_layers(net, x)
    # the residual add reads its source after several later layers: had
    # the source been dropped early, the add would fail
    lean = m.run_layers(net, x, keep=False)
    assert _same_bits(lean[-1], full[-1])
    assert all(a is None for a in lean[:-1])


def test_run_layers_keeps_the_activations_it_is_asked_to():
    net = zoo.toy_cnn(0)
    source = next(lyr.source for lyr in net.layers if isinstance(lyr, m.ResidualAdd))
    x = _batch(net, 3, 12)
    full = m.run_layers(net, x)
    keep = {0, 2, source + 1}  # a residual source among them, which its add still reads
    lean = m.run_layers(net, x, keep=keep)
    for j, a in enumerate(lean[:-1]):
        assert a is None if j not in keep else _same_bits(a, full[j])
    assert _same_bits(lean[-1], full[-1])


@pytest.mark.parametrize("start", [1, 4, 7, 9, 14])
def test_run_layers_resumes_from_prefix(start):
    net = zoo.toy_cnn(0)
    x = _batch(net, 3, 13)
    full = m.run_layers(net, x)
    resumed = m.run_layers(net, x, prefix=full[1:start + 1])
    assert len(resumed) == len(full)
    for a, b in zip(resumed, full):
        assert _same_bits(a, b)
    assert _same_bits(m.run_layers(net, x, prefix=full[1:start + 1], keep=False)[-1], full[-1])


@pytest.mark.parametrize("name", sorted(NETS))
def test_identity_hook_is_the_plain_pass(name):
    net = NETS[name](0)
    x = _batch(net, 5, 15)
    plain = m.run_layers(net, x)
    seen = []

    def hook(i, layer, a):
        seen.append((i, a))
        return layer, a

    assert _same_bits(m.run_layers(net, x, hook)[-1], plain[-1])
    assert [i for i, _ in seen] == list(range(len(net.layers)))
    for i, a in seen:
        assert _same_bits(a, plain[i])


def test_quantized_passes_leave_the_base_model_unchanged():
    # each quantized slot runs a stand-in layer; the shared layer is never written
    net = zoo.toy_cnn(0)
    files = m.model_files(net, "model.json")
    batch = _batch(net, 6, 16)
    qm = quant.quantize_model(net, quant.BitConfig([4, 8, 32, 8, 4], [8, 4, 8, 32, 8]), batch)
    quant.quantized_forward(qm, batch)
    sens.mqe_sensitivity(net, batch, alpha=0.5, seed=0)
    assert m.model_files(net, "model.json") == files


# ---------------------------------------------------------------------------
# quantization


def _fake_quantize_inputs(params, rng):
    grid = np.arange(params.qmin - 3, params.qmax + 4, dtype=np.float64)
    half_steps = (grid + 0.5) * params.scale - params.zero_point * params.scale
    return [
        rng.standard_normal(4000).astype(np.float32) * np.float32(4 * params.scale * params.qmax),
        half_steps.astype(np.float32),
        (-half_steps).astype(np.float32),
        np.array([0.0, -0.0, 1e30, -1e30, 1e-30, -1e-30], dtype=np.float32),
        rng.standard_normal((3, 4, 5)).astype(np.float32),
    ]


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("symmetric", [True, False])
def test_fake_quantize_equals_quantize_then_dequantize(bits, symmetric):
    rng = np.random.default_rng(bits + 10 * symmetric)
    grids = [quant.calibrate_minmax(calib.astype(np.float32), bits, symmetric)
             for calib in (rng.standard_normal(100), rng.uniform(0.5, 3.0, 100), rng.uniform(-3.0, -0.5, 100))]
    # a power-of-two scale makes the half steps exact ties
    grids.append(quant.QuantParams(scale=0.25, zero_point=0 if symmetric else 3, bits=bits, symmetric=symmetric))
    for params in grids:
        for values in _fake_quantize_inputs(params, rng):
            expected = quant.dequantize(quant.quantize(values, params), params)
            assert _same_bits(quant.fake_quantize(values, params), expected)
            assert _same_bits(quant.fake_quantize(values.astype(np.float64), params), expected)


def test_fake_quantize_rejects_non_finite():
    params = quant.QuantParams(scale=0.1, zero_point=0, bits=8, symmetric=True)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            quant.fake_quantize(np.array([0.0, bad], dtype=np.float32), params)


def test_cached_weights_follow_codes():
    net = zoo.toy_cnn(0)
    qm = quant.quantize_model(net, quant.BitConfig([4, 8, 32, 8, 4], [8] * 5), _batch(net, 4, 14))
    for w, c, p in zip(qm.weights, qm.weight_codes, qm.weight_params):
        assert (w is None) == (p is None)
        if p is not None:
            assert _same_bits(w, quant.dequantize(c, p))
    masked = qm.with_weight_codes(1, np.zeros_like(qm.weight_codes[1]))
    assert not masked.weights[1].any()
    assert masked.weights[0] is qm.weights[0]
    assert _same_bits(qm.weights[1], quant.dequantize(qm.weight_codes[1], qm.weight_params[1]))


# ---------------------------------------------------------------------------
# sensitivity


def _full_sweep_omega(net, batch, alpha, seed, bits):
    """One complete quantized_forward per masked model, no reuse of the base pass."""
    slots = m.weighted_layers(net)
    qm = quant.quantize_model(net, quant.BitConfig.uniform(len(slots), bits), batch)
    base = sens.softmax(quant.quantized_forward(qm, batch))
    omega = np.zeros(len(slots))
    for pos, idx in enumerate(slots):
        masked = sens.mask_weights(qm.weight_codes[pos], sens.MaskSpec(alpha, seed, idx))
        probs = sens.softmax(quant.quantized_forward(qm.with_weight_codes(pos, masked), batch))
        omega[pos] = np.mean([sens.kl_divergence(base[j], probs[j]) for j in range(batch.shape[0])])
    return omega


@pytest.mark.parametrize("name", sorted(NETS))
@pytest.mark.parametrize("alpha,seed,bits", [(0.5, 0, 8), (0.25, 3, 4), (1.0, 1, 8)])
def test_mqe_omega_matches_full_sweeps(name, alpha, seed, bits):
    net = NETS[name](0)
    batch = _batch(net, 6, 15)
    report = sens.mqe_sensitivity(net, batch, alpha=alpha, seed=seed, base_bits=bits)
    assert _same_bits(report.omega, _full_sweep_omega(net, batch, alpha, seed, bits))


def _from_input_naive_omega(net, batch, bits):
    """One quantize_model and one from-input quantized_forward per layer, against the float forward."""
    count = len(m.weighted_layers(net))
    base = sens.softmax(m.forward(net, batch)[0])
    omega = np.zeros(count)
    for pos in range(count):
        wb = [quant.PASSTHROUGH_BITS] * count
        wb[pos] = bits
        qm = quant.quantize_model(net, quant.BitConfig(wb, [quant.PASSTHROUGH_BITS] * count), batch)
        probs = sens.softmax(quant.quantized_forward(qm, batch))
        omega[pos] = np.mean([sens.kl_divergence(base[j], probs[j]) for j in range(batch.shape[0])])
    return omega


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("bits", [4, 8, 32])
def test_naive_omega_matches_from_input_passes(name, bits):
    net = FIXTURES[name](0)
    batch = _batch(net, 5, 17)
    report = sens.naive_sensitivity(net, batch, bits=bits)
    assert _same_bits(report.omega, _from_input_naive_omega(net, batch, bits))


# ---------------------------------------------------------------------------
# forward_all


@functools.cache
def _variants(name):
    """(net, batch, models, each model's quantized_forward) for one fixture.

    The models are uniform 32/8/4, two plan-like mixes of 4 and 8 bits with
    activations at the plan's widths and at 8, and int8 with one slot masked,
    for every slot, all over one calibration pass.
    """
    net = FIXTURES[name](0)
    batch = _batch(net, 4, 18)
    slots = m.weighted_layers(net)
    _, calib = m.forward(net, batch, record=True)

    def quantized(wb, ab):
        return quant.quantize_model(net, quant.BitConfig(wb, ab), batch, calib)

    models = [quantized([b] * len(slots), [b] * len(slots)) for b in (32, 8, 4)]
    rng = np.random.default_rng(len(slots))
    for _ in range(2):
        plan = [int(b) for b in rng.choice([4, 8], len(slots))]
        models += [quantized(plan, plan), quantized(plan, [8] * len(slots))]
    int8 = models[1]
    models += [int8.with_weight_codes(pos, sens.mask_weights(int8.weight_codes[pos], sens.MaskSpec(0.5, 0, idx)))
               for pos, idx in enumerate(slots)]
    return net, batch, models, [quant.quantized_forward(qm, batch) for qm in models]


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_forward_all_is_each_quantized_forward(name, data):
    # repeats in the draw are duplicates, which resume at the layer count
    _, batch, models, refs = _variants(name)
    picks = data.draw(st.lists(st.integers(0, len(models) - 1), min_size=1, max_size=6))
    got = quant.forward_all([models[k] for k in picks], batch)
    assert len(got) == len(picks)
    for z, k in zip(got, picks):
        assert _same_bits(z, refs[k])


# each fixture's int8 pass keeps the input of every layer a masked int8 model resumes at, the layer count
# for the duplicate, and the residual sources read at or after them: only skip_net's add reads past one
@pytest.mark.parametrize("name, kept", [
    ("tiny_cnn", {3, 7, 8}),
    ("toy_cnn", {3, 8, 12, 14, 15}),
    ("res32_net", {3, 7, 11, 13, 14}),
    ("skip_net", {2, 4, 7, 8}),
])
def test_forward_all_resumes_where_models_first_differ(name, kept):
    net, batch, models, refs = _variants(name)
    slots = m.weighted_layers(net)
    fp32, int8, int4 = models[:3]
    masked = models[-len(slots):]
    order = [fp32, int8, *masked, int8, int4]
    with mock.patch.object(quant, "_quantized_run", wraps=quant._quantized_run) as passes:
        got = quant.forward_all(order, batch)
    # int8 and int4 share no slot with an earlier model, nor does int8 masked at its first slot
    assert [len(call.args[2]) for call in passes.call_args_list] == [0, 0, 0, *slots[1:], len(net.layers), 0]
    assert [call.args[3] for call in passes.call_args_list] == [set(), kept, *[set()] * (len(slots) + 2)]
    for z, want in zip(got, [refs[0], refs[1], *refs[-len(slots):], refs[1], refs[2]]):
        assert _same_bits(z, want)


# skip_net's weighted layers are 0, 2, 4 and 7, and its add at 5 reads layer 1's output, acts[2]
@pytest.mark.parametrize("pos, start, kept", [(1, 2, {2}), (2, 4, {2, 4}), (3, 7, {7})])
def test_forward_all_keeps_the_residual_sources_read_at_or_after_the_resumption(pos, start, kept):
    _, batch, models, refs = _variants("skip_net")
    with mock.patch.object(quant, "_quantized_run", wraps=quant._quantized_run) as passes:
        got = quant.forward_all([models[1], models[-4 + pos]], batch)
    assert [(len(call.args[2]), call.args[3]) for call in passes.call_args_list] == [(0, kept), (start, set())]
    assert _same_bits(got[1], refs[-4 + pos])


def test_forward_all_refuses_models_of_two_networks():
    net, batch, models, _ = _variants("toy_cnn")
    other = quant.quantize_model(zoo.toy_cnn(0), quant.BitConfig.uniform(5, 8), batch)
    with pytest.raises(ValueError):
        quant.forward_all([models[1], other], batch)


# ---------------------------------------------------------------------------
# sample parts


@pytest.fixture
def in_parts(monkeypatch):
    """in_parts(k) makes every pass run in k sample parts (at most one a sample), whatever the gate would choose.

    OpenBLAS runs one thread meanwhile, as it does in every pass the gate splits.
    """
    restore = cli._hold_blas_to_one_thread()
    yield lambda parts: monkeypatch.setattr(m, "_parts", lambda model, batch: min(parts, len(batch)))
    restore()


def _split_models(net, batch):
    """Uniform 32/8/4 and an alternating 4/8 mix, with activations at 8; one calibration pass."""
    slots = len(m.weighted_layers(net))
    _, calib = m.forward(net, batch, record=True)
    mix = [(4, 8)[k % 2] for k in range(slots)]
    configs = [quant.BitConfig.uniform(slots, b) for b in (32, 8, 4)] + [quant.BitConfig(mix, [8] * slots)]
    return [quant.quantize_model(net, bits, batch, calib) for bits in configs]


@pytest.mark.parametrize("n", [1, 2, 3, 33, 64])
@pytest.mark.parametrize("name", ["res32_net", "skip_net"])
def test_forward_all_in_parts_is_the_serial_pass(name, n, in_parts):
    net = FIXTURES[name](0)
    batch = _batch(net, n, 40 + n)
    models = _split_models(net, batch)
    refs = [quant.quantized_forward(qm, batch) for qm in models]  # one unsplit pass each
    for parts in (1, 2):
        in_parts(parts)
        got = quant.forward_all([*models, models[1]], batch)
        assert all(_same_bits(z, want) for z, want in zip(got, [*refs, refs[1]]))


# skip_net has no BatchNorm layer, so no statistic loss
@pytest.mark.parametrize("n", [1, 2, 3, 33, 64])
@pytest.mark.parametrize("backward", [True, False])
def test_stat_loss_and_gradient_in_parts_is_the_serial_pass(backward, n, in_parts):
    net = res32_net(0)
    x, targets = _batch(net, n, 50 + n), m.bn_targets(net)
    in_parts(1)
    trace, grad = m._stat_loss_and_gradient(net, x, targets, backward)
    in_parts(2)
    split, split_grad = m._stat_loss_and_gradient(net, x, targets, backward)
    for stats, want in ((split.bn_means, trace.bn_means), (split.bn_stds, trace.bn_stds)):
        assert list(stats) == list(want) and all(_same_bits(stats[i], want[i]) for i in want)
    assert (grad is None and split_grad is None) if not backward else _same_bits(split_grad, grad)
    if backward:
        assert _same_bits(grad, m.input_gradient(net, x))


def test_parts_of_a_split_pass_share_the_window_budget(monkeypatch, in_parts):
    net = res32_net(0)
    batch = _batch(net, 32, 5)
    models = _split_models(net, batch)
    budgets = []
    gemm = m._window_gemm

    def spy(*args):
        budgets.append(getattr(m._budget, "bytes", None))
        return gemm(*args)

    monkeypatch.setattr(m, "_window_gemm", spy)
    in_parts(1)
    quant.forward_all(models, batch)
    assert set(budgets) == {None}
    in_parts(2)
    quant.forward_all(models, batch)
    assert set(budgets[len(budgets) // 2:]) == {m._WINDOW_BYTES // 2}
    assert getattr(m._budget, "bytes", None) is None  # this thread's budget is back to the whole


def test_only_a_pass_past_one_window_block_splits_and_only_on_one_blas_thread():
    if m._openblas() is None:
        pytest.skip("no OpenBLAS thread control in this NumPy")
    res32, toy = res32_net(0), zoo.toy_cnn(0)
    restore = cli._hold_blas_to_one_thread()
    try:
        # res32_net's widest conv rows take 294,912 bytes a sample: 14 samples a 4 MB block
        cpus = len(os.sched_getaffinity(0))
        assert m._parts(res32, _batch(res32, 14, 0)) == 1
        assert m._parts(res32, _batch(res32, 15, 0)) == min(cpus, 2)
        assert m._parts(res32, _batch(res32, 64, 0)) == min(cpus, 5)
        assert m._parts(toy, _batch(toy, 32, 0)) == 1  # toy's passes fit in one block
        assert m._parts(res32, np.zeros((64, 3, 31, 31), np.float32)) == 1  # the serial pass names the shape
        _, put = m._openblas()
        put(2)
        assert m._parts(res32, _batch(res32, 64, 0)) == 1
    finally:
        restore()


def _poisoned(net, n, at, value):
    x = _batch(net, n, 60)
    x[at] = value
    return x


def _failure(fn, seconds=60):
    """The error fn raises, run on a thread of its own that must end within `seconds`."""
    box = []

    def run():
        try:
            fn()
        except BaseException as exc:  # the test compares what a part raised
            box.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "a part is still waiting"
    assert box, "no error"
    return box[0]


def _split_calls(net, x):
    targets, models = m.bn_targets(net), _split_models(net, _batch(net, 8, 61))
    return {"distill": lambda: m._stat_loss_and_gradient(net, x, targets),
            "distill forward": lambda: m._stat_loss_and_gradient(net, x, targets, backward=False),
            "forward_all": lambda: quant.forward_all(models, x)}


def _same_failure(in_parts, call):
    in_parts(1)
    want = _failure(call)
    in_parts(2)
    got = _failure(call)
    assert type(got) is type(want) is NumericFailureError
    assert (str(got), got.layer_index) == (str(want), want.layer_index)


# A sample at 3e38 overflows in the first conv, before the first BatchNorm's barrier, and at 1e38 in the
# second conv, past it; at 3e37 only forward_all fails, in its pool. NaN fails the input check.
@pytest.mark.parametrize("call, value", [(call, value) for call in ("distill", "distill forward", "forward_all")
                                         for value in (3e38, 1e38, np.nan)] + [("forward_all", 3e37)])
def test_a_failure_in_one_part_is_the_serial_failure(call, value, in_parts):
    net = res32_net(0)
    x = _poisoned(net, 32, 20, value)  # sample 20 lies in the second half
    _same_failure(in_parts, _split_calls(net, x)[call])


@pytest.mark.parametrize("call", ["distill", "forward_all"])
def test_the_lowest_failing_layer_across_parts_is_raised(call, in_parts):
    net = res32_net(0)
    x = _poisoned(net, 32, 3, 1e38)
    x[25] = 3e38  # the second half fails at an earlier layer than the first
    _same_failure(in_parts, _split_calls(net, x)[call])


# ---------------------------------------------------------------------------
# eval stage


def test_stage_eval_matches_per_variant_calibration(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"distill": {"steps": 10, "batch_size": 8}, "eval": {"samples": 40}}))
    out = tmp_path / "out"
    for stage in ("distill", "sense", "profile", "plan", "quantize", "eval"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK, stage
    doc = json.loads((out / cli.ART_EVAL).read_text())

    cfg = cli.load_config(str(config), cli.build_parser().parse_args(["eval", "--out", str(out)]))
    net, _ = cli.ensure_model(cfg)
    calib = cli._load_distilled(cfg)
    plan = json.loads((out / cli.ART_PLAN).read_text())
    xs, labels = zoo.make_eval_dataset(net, cfg.eval_samples, cfg.eval_noise, cfg.eval_seed)
    fp_preds = None
    for name in ("fp32", "int8", "int4", "planned"):
        bits = plan["weight_bits"] if name == "planned" else [{"fp32": 32, "int8": 8, "int4": 4}[name]] * 5
        qm = quant.quantize_model(net, quant.BitConfig(bits, bits), calib)
        preds = quant.quantized_forward(qm, xs).argmax(axis=1)
        fp_preds = preds if fp_preds is None else fp_preds
        got = doc["variants"][name]
        assert got["weight_bits"] == bits
        assert got["accuracy"] == float(np.mean(preds == labels))
        assert got["agreement"] == float(np.mean(preds == fp_preds))
