import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from mixbit import model as m, quant, sensitivity as sens, zoo
from mixbit.errors import ConfigError


def _batch(shape, n=16, seed=2):
    return np.random.default_rng(seed).standard_normal((n, *shape), dtype=np.float32)


@contextmanager
def _call_counts():
    """Mocks wrapping quant.quantize_model and sensitivity.mask_weights; they count calls."""
    with mock.patch.object(quant, "quantize_model", wraps=quant.quantize_model) as quantize_calls, \
            mock.patch.object(sens, "mask_weights", wraps=sens.mask_weights) as mask_calls:
        yield quantize_calls, mask_calls


class TestMasking:
    def test_exact_count_and_reproducibility(self):
        codes = np.arange(1, 11, dtype=np.int64)  # all nonzero
        spec = sens.MaskSpec(alpha=0.5, seed=0, layer_index=3)
        out = sens.mask_weights(codes, spec)
        assert int((out == 0).sum()) == 5
        np.testing.assert_array_equal(out, sens.mask_weights(codes, spec))

    def test_halves_round_up(self):
        codes = np.ones(10, dtype=np.int64)
        assert int((sens.mask_weights(codes, sens.MaskSpec(0.25, 0, 0)) == 0).sum()) == 3
        assert int((sens.mask_weights(codes, sens.MaskSpec(0.05, 0, 0)) == 0).sum()) == 1
        assert int((sens.mask_weights(codes, sens.MaskSpec(0.04, 0, 0)) == 0).sum()) == 0

    def test_alpha_extremes(self):
        codes = np.arange(1, 101, dtype=np.int64)
        untouched = sens.mask_weights(codes, sens.MaskSpec(0.0, 0, 0))
        np.testing.assert_array_equal(untouched, codes)
        assert untouched is not codes
        np.testing.assert_array_equal(
            sens.mask_weights(codes, sens.MaskSpec(1.0, 0, 0)), np.zeros(100))

    def test_layers_get_independent_streams(self):
        codes = np.arange(1, 101, dtype=np.int64)
        a = sens.mask_weights(codes, sens.MaskSpec(0.5, 0, 1))
        b = sens.mask_weights(codes, sens.MaskSpec(0.5, 0, 2))
        assert (a != b).any()

    def test_input_not_modified(self):
        codes = np.arange(1, 11, dtype=np.int64)
        keep = codes.copy()
        sens.mask_weights(codes, sens.MaskSpec(1.0, 0, 0))
        np.testing.assert_array_equal(codes, keep)

    def test_maskspec_validation(self):
        with pytest.raises(ConfigError):
            sens.MaskSpec(alpha=1.5, seed=0, layer_index=0)
        with pytest.raises(ConfigError):
            sens.MaskSpec(alpha=0.5, seed=-1, layer_index=0)


class TestKlDivergence:
    def test_identical_is_exactly_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert sens.kl_divergence(p, p.copy()) == 0.0

    def test_hand_value(self):
        assert sens.kl_divergence(
            np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2.0), rel=1e-15)
        # zero entries in p contribute nothing
        assert sens.kl_divergence(
            np.array([0.0, 1.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2.0), rel=1e-15)

    def test_zero_in_q_is_smoothed_finite(self):
        val = sens.kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.isfinite(val)
        assert val > 10  # dominated by 0.5 * log(0.5 / eps)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.uniform(0, 1, 6)
            q = rng.uniform(0, 1, 6)
            assert sens.kl_divergence(p / p.sum(), q / q.sum()) >= 0.0

    def test_validation(self):
        ok = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            sens.kl_divergence(ok, np.array([0.3, 0.3, 0.4]))
        with pytest.raises(ValueError):
            sens.kl_divergence(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            sens.kl_divergence(np.array([-0.5, 1.5]), ok)
        with pytest.raises(ValueError):
            sens.kl_divergence(np.array([0.6, 0.6]), ok)


class TestSoftmax:
    def test_rows_are_distributions(self):
        z = np.random.default_rng(5).standard_normal((7, 10)) * 30
        p = sens.softmax(z)
        assert (p > 0).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariant_and_overflow_safe(self):
        z = np.array([[1000.0, 1001.0, 999.0]])
        p = sens.softmax(z)
        np.testing.assert_allclose(p, sens.softmax(z - 1000.0), atol=1e-15)
        assert np.isfinite(p).all()


def _kl_ref(p, q, eps=1e-12):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if (q < eps).any():
        q = np.maximum(q, eps)
        q = q / q.sum()
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0) / q), 0.0)
    return max(float(terms.sum()), 0.0)


def _softmax_ref(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _mqe_oracle(net, batch, alpha, seed, bits=8):
    """Score layers with quantization/masking primitives spelled out inline."""
    slots = m.weighted_layers(net)
    acts = m.run_layers(net, batch)
    wparams, codes, aparams = [], [], []
    for i in slots:
        layer = net.layers[i]
        wp = quant.calibrate_minmax(layer.weight, bits, symmetric=True)
        wparams.append(wp)
        codes.append(quant.quantize(layer.weight, wp))
        aparams.append(quant.calibrate_minmax(acts[i], bits, symmetric=False))

    pos_of = {i: p for p, i in enumerate(slots)}

    def run(weight_codes):
        def hook(i, layer, x):
            if i not in pos_of:
                return layer, x
            p = pos_of[i]
            w = quant.dequantize(weight_codes[p], wparams[p])
            return dataclasses.replace(layer, weight=w), quant.fake_quantize(x, aparams[p])

        return m.run_layers(net, batch, hook)[-1]

    base = _softmax_ref(run(codes))
    omega = []
    for pos, layer_idx in enumerate(slots):
        flat = codes[pos].copy().reshape(-1)
        k = int(np.floor(alpha * flat.size + 0.5))
        if k:
            idx = np.random.default_rng(
                np.random.SeedSequence([seed, layer_idx])).choice(flat.size, size=k, replace=False)
            flat[idx] = 0
        masked = list(codes)
        masked[pos] = flat.reshape(codes[pos].shape)
        probs = _softmax_ref(run(masked))
        omega.append(np.mean([_kl_ref(base[j], probs[j]) for j in range(base.shape[0])]))
    return np.array(omega)


class TestMqeSensitivity:
    def test_matches_straight_line_oracle(self):
        net = zoo.tiny_cnn(0)
        batch = _batch((2, 8, 8))
        report = sens.mqe_sensitivity(net, batch, alpha=0.5, seed=0)
        np.testing.assert_allclose(report.omega, _mqe_oracle(net, batch, 0.5, 0), atol=1e-12)

    def test_alpha_zero_scores_all_zero(self):
        net = zoo.tiny_cnn(0)
        report = sens.mqe_sensitivity(net, _batch((2, 8, 8)), alpha=0.0)
        np.testing.assert_array_equal(report.omega, np.zeros(3))

    def test_scores_nonnegative_and_shaped(self):
        net = zoo.toy_cnn(0)
        report = sens.mqe_sensitivity(net, _batch((3, 8, 8)), alpha=0.5)
        assert report.omega.shape == (5,)
        assert (report.omega >= 0).all()
        assert report.method == "mqe"
        assert report.bits == 8

    def test_deterministic(self):
        net = zoo.tiny_cnn(0)
        batch = _batch((2, 8, 8))
        a = sens.mqe_sensitivity(net, batch, alpha=0.5, seed=7)
        b = sens.mqe_sensitivity(net, batch, alpha=0.5, seed=7)
        np.testing.assert_array_equal(a.omega, b.omega)

    def test_duplicating_batch_leaves_scores_unchanged(self):
        net = zoo.tiny_cnn(0)
        batch = _batch((2, 8, 8), n=8)
        once = sens.mqe_sensitivity(net, batch, alpha=0.5)
        twice = sens.mqe_sensitivity(net, np.concatenate([batch, batch]), alpha=0.5)
        np.testing.assert_allclose(twice.omega, once.omega, rtol=1e-9, atol=1e-12)

    def test_work_counters(self):
        net = zoo.tiny_cnn(0)
        batch = _batch((2, 8, 8), n=4)
        with _call_counts() as (quantize_calls, mask_calls):
            sens.mqe_sensitivity(net, batch, alpha=0.5)
        assert quantize_calls.call_count == 1
        assert mask_calls.call_count == 3

        with _call_counts() as (quantize_calls, mask_calls):
            sens.naive_sensitivity(net, batch, bits=4)
        assert quantize_calls.call_count == 3
        assert mask_calls.call_count == 0


class TestNaiveSensitivity:
    def test_passthrough_bits_score_zero(self):
        net = zoo.tiny_cnn(0)
        report = sens.naive_sensitivity(net, _batch((2, 8, 8), n=4), bits=32)
        np.testing.assert_array_equal(report.omega, np.zeros(3))
        assert report.method == "naive"

    def test_runs_no_recorded_forward(self):
        # every activation stays passthrough, so no grid reads a calibration pass
        net = zoo.toy_cnn(0)
        with mock.patch.object(m, "forward", wraps=m.forward) as forward:
            sens.naive_sensitivity(net, _batch((3, 8, 8), n=4), bits=4)
        assert not [call for call in forward.call_args_list if call.kwargs.get("record") or call.args[2:3] == (True,)]

    def test_single_layer_equals_whole_model_divergence(self):
        net = zoo.bn_passthrough_net()
        batch = _batch((3, 2, 2))
        report = sens.naive_sensitivity(net, batch, bits=4)
        assert report.omega.shape == (1,)

        logits, _ = m.forward(net, batch)
        qm = quant.quantize_model(
            net, quant.BitConfig([4], [quant.PASSTHROUGH_BITS]), batch)
        qlogits = quant.quantized_forward(qm, batch)
        base, probs = _softmax_ref(logits), _softmax_ref(qlogits)
        want = np.mean([_kl_ref(base[j], probs[j]) for j in range(base.shape[0])])
        assert report.omega[0] == pytest.approx(want, abs=1e-12)

    def test_rank_relation_is_reported(self):
        # the two methods perturb the model differently, so rank agreement is
        # informative but not guaranteed on tiny random fixtures
        net = zoo.tiny_cnn(0)
        batch = _batch((2, 8, 8), n=32)
        fast = sens.mqe_sensitivity(net, batch, alpha=0.5).omega
        slow = sens.naive_sensitivity(net, batch, bits=4).omega
        ra = np.argsort(np.argsort(fast))
        rb = np.argsort(np.argsort(slow))
        rho = float(np.corrcoef(ra, rb)[0, 1])
        print(f"spearman(mqe, naive) on 3-layer fixture: {rho:.3f}")
        assert -1.0 <= rho <= 1.0


class TestReportSerialization:
    def test_round_trip(self):
        net = zoo.tiny_cnn(0)
        report = sens.mqe_sensitivity(net, _batch((2, 8, 8), n=4), alpha=0.25, seed=9)
        back = sens.SensitivityReport.from_dict(report.to_dict())
        np.testing.assert_array_equal(back.omega, report.omega)
        assert (back.alpha, back.seed, back.method, back.bits) == (0.25, 9, "mqe", 8)

    def test_dict_is_json_ready(self):
        import json

        net = zoo.bn_passthrough_net()
        report = sens.naive_sensitivity(net, _batch((3, 2, 2), n=4))
        text = json.dumps(report.to_dict())
        assert sens.SensitivityReport.from_dict(json.loads(text)).alpha is None
