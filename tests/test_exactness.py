"""The fast paths compute exactly what the straightforward ones do, bit for bit.

Each reference below is the plain two-pass or full-sweep computation; the
package's fused, resumed or cached version must reproduce it with equal
bits, not within a tolerance.
"""

import json

import numpy as np
import pytest

from mixbit import cli, quant, zoo
from mixbit import model as m
from mixbit import sensitivity as sens
from mixbit.distill import DistillConfig, _DIVERGENCE_FACTOR, _DIVERGENCE_PATIENCE, bn_stat_loss, synthesize
from mixbit.errors import DivergenceError

NETS = {"tiny_cnn": zoo.tiny_cnn, "toy_cnn": zoo.toy_cnn}


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


def test_fused_loss_matches_recorded_forward():
    net = zoo.toy_cnn(1)
    x = _batch(net, 6, 7)
    fused, grad = m._stat_loss_and_gradient(net, x, m.bn_targets(net))
    _, trace = m.forward(net, x, record=True)
    assert fused.activations == []
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
            grads[i] += m._backward_input(layer, acts[i], grads[i + 1])
    return grads[0]


@pytest.mark.parametrize("name", sorted(NETS))
def test_gradient_matches_zero_initialized_reference(name):
    # the package skips layers past the last BatchNorm and allocates no zero tensors
    net = NETS[name](0)
    x = _batch(net, 6, 8)
    assert _same_bits(m.input_gradient(net, x), _zero_initialized_gradient(net, x))


@pytest.mark.filterwarnings("ignore:overflow encountered")
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
    with pytest.raises(DivergenceError):
        synthesize(net, DistillConfig(config.batch_size, fired, config.learning_rate, config.seed))
    last_ok = synthesize(net, DistillConfig(config.batch_size, fired - 1, config.learning_rate, config.seed))
    assert last_ok.loss_history == history[:-1]


# ---------------------------------------------------------------------------
# forward passes


def test_forward_logits_same_with_and_without_record():
    net = zoo.toy_cnn(0)
    x = _batch(net, 5, 11)
    plain, _ = m.forward(net, x, record=False)
    recorded, trace = m.forward(net, x, record=True)
    assert _same_bits(plain, recorded)
    assert _same_bits(trace.activations[-1], recorded)


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


# ---------------------------------------------------------------------------
# eval stage


def test_stage_eval_matches_per_variant_calibration(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"distill": {"steps": 10, "batch_size": 8}, "eval": {"samples": 40}}))
    out = tmp_path / "out"
    for stage in ("distill", "sense", "profile", "plan", "eval"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK, stage
    doc = json.loads((out / cli.ART_EVAL).read_text())

    cfg = cli.load_config(str(config), cli.build_parser().parse_args(["eval", "--out", str(out)]))
    net, _ = cli.ensure_model(cfg)
    calib = cli._load_distilled(cfg).data
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
