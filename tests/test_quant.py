import numpy as np
import pytest

from mixbit import model as m
from mixbit import quant, zoo
from mixbit.errors import ConfigError, ShapeMismatchError


class TestRounding:
    def test_halves_away_from_zero(self):
        x = np.array([0.5, -0.5, 1.5, 2.5, -2.5, 0.49, -0.49, 3.0])
        np.testing.assert_array_equal(
            quant.round_half_away(x), [1, -1, 2, 3, -3, 0, 0, 3])


class TestCalibration:
    def test_symmetric_full_span(self):
        p = quant.calibrate_minmax(np.array([-1.0, 0.3, 1.0]), 8, symmetric=True)
        assert p.scale == 1.0 / 127.0
        assert p.zero_point == 0
        assert (p.qmin, p.qmax) == (-128, 127)

    def test_asymmetric_span(self):
        p = quant.calibrate_minmax(np.array([0.0, 1.1, 2.55]), 8, symmetric=False)
        assert p.scale == pytest.approx(0.01)
        # the minimum must land exactly on the integer range floor
        assert quant.quantize(np.array([0.0]), p)[0] == p.qmin

    def test_asymmetric_floor_mapping_general(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(50) * rng.uniform(0.1, 10)
            for bits in (4, 8):
                p = quant.calibrate_minmax(v, bits, symmetric=False)
                assert quant.quantize(np.array([v.min()]), p)[0] == p.qmin

    def test_constant_tensor(self):
        v = np.full(5, 0.7)
        for symmetric in (True, False):
            p = quant.calibrate_minmax(v, 4, symmetric=symmetric)
            assert p.scale == 1.0
            back = quant.fake_quantize(v, p)
            assert np.unique(back).size == 1
            assert np.abs(back - v).max() <= p.scale / 2

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            quant.calibrate_minmax(np.array([]), 8, symmetric=True)
        with pytest.raises(ValueError):
            quant.calibrate_minmax(np.array([1.0, np.inf]), 8, symmetric=True)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            quant.calibrate_minmax(np.array([1.0]), 5, symmetric=True)


class TestQuantizeDequantize:
    def test_worked_example(self):
        p = quant.QuantParams(scale=0.1, zero_point=0, bits=8, symmetric=True)
        codes = quant.quantize(np.array([0.23]), p)
        assert codes[0] == 2
        assert quant.dequantize(codes, p)[0] == pytest.approx(0.2)

    def test_saturation_at_4_bits(self):
        p = quant.QuantParams(scale=0.1, zero_point=0, bits=4, symmetric=True)
        assert quant.quantize(np.array([1.0]), p)[0] == 7
        assert quant.quantize(np.array([-100.0]), p)[0] == -8

    @pytest.mark.parametrize("bits,symmetric", [(4, True), (4, False), (8, True), (8, False)])
    def test_round_trip_bound(self, bits, symmetric):
        rng = np.random.default_rng(bits + symmetric)
        for _ in range(10):
            v = rng.uniform(-3, 5, size=200)
            p = quant.calibrate_minmax(v, bits, symmetric=symmetric)
            err = np.abs(quant.fake_quantize(v, p).astype(np.float64) - v)
            assert err.max() <= p.scale / 2 + 1e-12

    def test_idempotence(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100)
        for symmetric in (True, False):
            p = quant.calibrate_minmax(v, 4, symmetric=symmetric)
            once = quant.fake_quantize(v, p)
            np.testing.assert_array_equal(once, quant.fake_quantize(once, p))

    def test_error_monotonic_in_bits_aggregate(self):
        # aggregate, not per element: individual values can land closer to a
        # coarse grid point than a fine one
        rng = np.random.default_rng(4)
        for symmetric in (True, False):
            v = rng.standard_normal(500)
            e4 = np.abs(quant.fake_quantize(
                v, quant.calibrate_minmax(v, 4, symmetric)).astype(np.float64) - v)
            e8 = np.abs(quant.fake_quantize(
                v, quant.calibrate_minmax(v, 8, symmetric)).astype(np.float64) - v)
            assert e8.max() <= e4.max()
            assert e8.mean() <= e4.mean()

    def test_rejects_nonfinite(self):
        p = quant.QuantParams(scale=1.0, zero_point=0, bits=8, symmetric=True)
        with pytest.raises(ValueError):
            quant.quantize(np.array([np.nan]), p)


class TestQuantParams:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            quant.QuantParams(scale=0.0, zero_point=0, bits=8, symmetric=True)
        with pytest.raises(ConfigError):
            quant.QuantParams(scale=1.0, zero_point=3, bits=8, symmetric=True)
        with pytest.raises(ConfigError):
            quant.QuantParams(scale=1.0, zero_point=0, bits=16, symmetric=False)


class TestBitConfig:
    def test_uniform(self):
        cfg = quant.BitConfig.uniform(3, 4)
        assert cfg.weight_bits == [4, 4, 4]
        assert cfg.activation_bits == [4, 4, 4]

    def test_rejects_bad_entries(self):
        with pytest.raises(ConfigError):
            quant.BitConfig([4, 6], [8, 8])
        with pytest.raises(ConfigError):
            quant.BitConfig([4], [8, 8])


class TestQuantizeModel:
    def test_wrong_length_config(self):
        net = zoo.tiny_cnn(0)
        batch = np.zeros((2, 2, 8, 8), dtype=np.float32)
        with pytest.raises(ConfigError):
            quant.quantize_model(net, quant.BitConfig.uniform(2, 8), batch)

    def test_passthrough_activations_still_check_the_batch(self):
        # no grid reads a calibration pass here, but a malformed batch still raises
        net = zoo.toy_cnn(0)
        with pytest.raises(ShapeMismatchError):
            quant.quantize_model(net, quant.BitConfig.uniform(5, 32), np.zeros((2, 3, 4, 4), dtype=np.float32))

    def test_passthrough_is_bitwise_identity(self):
        net = zoo.toy_cnn(0)
        rng = np.random.default_rng(5)
        batch = rng.standard_normal((4, 3, 8, 8), dtype=np.float32)
        qm = quant.quantize_model(net, quant.BitConfig.uniform(5, 32), batch)
        got = quant.quantized_forward(qm, batch)
        plain, _ = m.forward(net, batch)
        np.testing.assert_array_equal(got, plain)

    def test_agreement_ordering_8_vs_4(self):
        net = zoo.toy_cnn(0)
        xs, _ = zoo.make_eval_dataset(net, samples=128, seed=11)
        calib = np.random.default_rng(6).standard_normal((8, 3, 8, 8), dtype=np.float32)
        fp = m.forward(net, xs)[0].argmax(axis=1)

        def agreement(bits):
            qm = quant.quantize_model(net, quant.BitConfig.uniform(5, bits), calib)
            return float(np.mean(quant.quantized_forward(qm, xs).argmax(axis=1) == fp))

        assert agreement(8) >= agreement(4)

    def test_exactly_representable_weights_lossless(self):
        # integer weights with max |w| = 7 give a 4-bit scale of exactly 1,
        # and an input attaining 0 and 15 on the integer grid gives an
        # activation scale of exactly 1, so nothing is perturbed end to end
        rng = np.random.default_rng(7)
        w = rng.integers(-7, 8, size=(4, 16)).astype(np.float32)
        w[0, 0] = 7.0
        bias = rng.integers(-3, 4, size=4).astype(np.float32)
        net = m.ModelGraph(
            layers=[m.ReLU(), m.Linear(16, 4, weight=w, bias=bias)],
            input_shape=(1, 4, 4),
            class_count=4,
        )
        batch = rng.integers(0, 16, size=(3, 1, 4, 4)).astype(np.float32)
        batch[0, 0, 0, 0] = 0.0
        batch[1, 0, 0, 0] = 15.0
        qm = quant.quantize_model(net, quant.BitConfig.uniform(1, 4), batch)
        assert qm.weight_params[0].scale == 1.0
        assert qm.act_params[0].scale == 1.0
        assert qm.act_params[0].zero_point == 8
        got = quant.quantized_forward(qm, batch)
        plain, _ = m.forward(net, batch)
        np.testing.assert_array_equal(got, plain)

    def test_quantized_forward_interval_bound(self):
        # error propagated through one linear layer is bounded by the exact
        # per-tensor quantization deltas
        net = zoo.bn_passthrough_net()
        rng = np.random.default_rng(8)
        batch = rng.standard_normal((4, 3, 2, 2), dtype=np.float32)
        qm = quant.quantize_model(net, quant.BitConfig.uniform(1, 8), batch)
        got = quant.quantized_forward(qm, batch)
        plain, _ = m.forward(net, batch)

        lin = net.layers[2]
        slot_idx = m.weighted_layers(net)[0]
        x = m.run_layers(net, batch)[slot_idx].reshape(batch.shape[0], -1).astype(np.float64)
        xq = quant.fake_quantize(x, qm.act_params[0]).astype(np.float64)
        assert np.abs(xq - x).max() <= qm.act_params[0].scale / 2 + 1e-12
        wq = quant.dequantize(qm.weight_codes[0], qm.weight_params[0]).astype(np.float64)
        w = lin.weight.astype(np.float64)
        bound = np.abs(xq - x) @ np.abs(wq).T + np.abs(x) @ np.abs(wq - w).T
        assert np.all(np.abs(got - plain) <= bound + 1e-5)

    def test_masking_isolation(self):
        net = zoo.tiny_cnn(0)
        batch = np.random.default_rng(9).standard_normal((2, 2, 8, 8), dtype=np.float32)
        qm = quant.quantize_model(net, quant.BitConfig.uniform(3, 8), batch)
        before = [c.copy() for c in qm.weight_codes]
        qm2 = qm.with_weight_codes(1, np.zeros_like(qm.weight_codes[1]))
        np.testing.assert_array_equal(qm.weight_codes[1], before[1])
        for pos in (0, 2):
            assert qm2.weight_codes[pos] is qm.weight_codes[pos]


class TestModelSize:
    def test_hand_summed_sizes(self):
        net = zoo.tiny_cnn(0)
        # weights: conv 4*2*3*3 = 72, conv 4*4*3*3 = 144, linear 64*10 = 640
        assert quant.weight_bit_sizes(net, [8] * 3) == [576, 1152, 5120]
        mixed = quant.model_size(net, quant.BitConfig([8, 4, 4], [8, 8, 8]))
        assert mixed.weight_bits == 72 * 8 + 144 * 4 + 640 * 4
        # fixed: biases 4 + 4 + 10, BN vectors 2 * 4 * 4, all at 32 bits
        assert mixed.fixed_bits == 32 * (18 + 32)
        assert mixed.total_bits == mixed.weight_bits + mixed.fixed_bits

    def test_single_layer_example(self):
        net = m.ModelGraph(
            layers=[m.Linear(100, 10, weight=np.zeros((10, 100), dtype=np.float32))],
            input_shape=(1, 10, 10),
            class_count=10,
        )
        size = quant.model_size(net, quant.BitConfig.uniform(1, 8))
        assert size.weight_bits == 8000
        assert size.fixed_bits == 0

    def test_exact_2x_ratio(self):
        net = zoo.toy_cnn(0)
        s4 = quant.model_size(net, quant.BitConfig.uniform(5, 4))
        s8 = quant.model_size(net, quant.BitConfig.uniform(5, 8))
        assert s8.weight_bits == 2 * s4.weight_bits

    def test_mixed_plan_bracketed(self):
        net = zoo.toy_cnn(0)
        s4 = quant.model_size(net, quant.BitConfig.uniform(5, 4)).weight_bits
        s8 = quant.model_size(net, quant.BitConfig.uniform(5, 8)).weight_bits
        mixed = quant.model_size(net, quant.BitConfig([4, 8, 4, 8, 4], [8] * 5)).weight_bits
        assert s4 <= mixed <= s8

    def test_megabytes(self):
        size = quant.ModelSize(weight_bits=8_000_000, fixed_bits=0)
        assert size.megabytes == pytest.approx(1.0)
