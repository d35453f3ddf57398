import json
import re
import shutil

import numpy as np
import pytest

import oracles
from mixbit import model as m
from mixbit import zoo
from mixbit.errors import (
    ModelFormatError,
    NumericFailureError,
    ShapeMismatchError,
    UnsupportedLayerError,
)


def _conv_fixture():
    w = np.array([[[[2.0, 0.0], [0.0, -1.0]]]], dtype=np.float32)
    return m.Conv2d(1, 1, 2, 2, stride=1, padding=0,
                    weight=w, bias=np.array([0.5], dtype=np.float32))


def _conv_logits(conv, x):
    """Logits of a ModelGraph holding only `conv`, for the (N, C, H, W) batch x."""
    net = m.ModelGraph(layers=[conv], input_shape=x.shape[1:], class_count=0)
    net.class_count = int(np.prod(m.infer_shapes(net)[-1]))
    logits, _ = m.forward(net, x)
    return logits


X_3X3 = np.arange(1, 10, dtype=np.float32).reshape(1, 3, 3)
X_4X4 = np.arange(1, 17, dtype=np.float32).reshape(1, 4, 4)


class TestConvFixtures:
    def test_hand_computed_stride1(self):
        # each output: 2*topleft - bottomright + 0.5
        out = _conv_logits(_conv_fixture(), X_3X3[None])
        expected = np.array([[[-2.5, -1.5], [0.5, 1.5]]], dtype=np.float32)
        np.testing.assert_array_equal(out, expected[None])

    def test_hand_computed_stride2_pad1(self):
        conv = _conv_fixture()
        conv.stride, conv.padding = 2, 1
        out = _conv_logits(conv, X_3X3[None])
        expected = np.array([[[-0.5, -2.5], [-6.5, 1.5]]], dtype=np.float32)
        np.testing.assert_array_equal(out, expected[None])

    def test_two_layer_hand_computed_net(self):
        # 3x3 cross-shaped kernel on the 4x4 ramp, then ReLU
        w = np.array([[[[1, 0, -1], [0, 2, 0], [-1, 0, 1]]]], dtype=np.float32)
        layers = [
            m.Conv2d(1, 1, 3, 3, weight=w, bias=np.array([-15.0], dtype=np.float32)),
            m.ReLU(),
        ]
        net = m.ModelGraph(layers=layers, input_shape=(1, 4, 4), class_count=4)
        logits, _ = m.forward(net, X_4X4[None])
        expected = np.array([[[[0.0, 0.0], [5.0, 7.0]]]], dtype=np.float32)
        np.testing.assert_array_equal(logits, expected)

    def test_identity_conv_passthrough(self):
        eye = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            eye[c, c, 0, 0] = 1.0
        net = m.ModelGraph(
            layers=[m.Conv2d(3, 3, 1, 1, weight=eye)],
            input_shape=(3, 2, 2),
            class_count=12,
        )
        x = np.random.default_rng(0).standard_normal((2, 3, 2, 2), dtype=np.float32)
        logits, _ = m.forward(net, x)
        np.testing.assert_array_equal(logits, x)

    def test_bn_identity_parameters(self):
        bn = m.BatchNorm(
            2,
            running_mean=np.zeros(2, dtype=np.float32),
            running_var=np.ones(2, dtype=np.float32),
            gamma=np.ones(2, dtype=np.float32),
            beta=np.zeros(2, dtype=np.float32),
            eps=0.0,
        )
        net = m.ModelGraph(layers=[bn], input_shape=(2, 3, 3), class_count=18)
        x = np.random.default_rng(1).standard_normal((4, 2, 3, 3), dtype=np.float32)
        logits, _ = m.forward(net, x)
        np.testing.assert_array_equal(logits, x)


class TestIm2col:
    """Window unfolding inside the conv forward pass."""

    def test_hand_enumerated_windows(self):
        # output channel k of a one-hot kernel bank picks window element k
        conv = m.Conv2d(1, 9, 3, 3, weight=np.eye(9, dtype=np.float32).reshape(9, 1, 3, 3))
        out = _conv_logits(conv, X_4X4[None])
        assert out.shape == (1, 9, 2, 2)
        windows = np.array([
            [1, 2, 3, 5, 6, 7, 9, 10, 11],
            [2, 3, 4, 6, 7, 8, 10, 11, 12],
            [5, 6, 7, 9, 10, 11, 13, 14, 15],
            [6, 7, 8, 10, 11, 12, 14, 15, 16],
        ], dtype=np.float32).T
        np.testing.assert_array_equal(out.reshape(9, 4), windows)

    def test_1x1_kernel_is_reshape(self):
        # small integers keep the float32 products and sums exact
        rng = np.random.default_rng(2)
        x = rng.integers(-4, 5, size=(1, 3, 5, 4)).astype(np.float32)
        w = rng.integers(-4, 5, size=(2, 3, 1, 1)).astype(np.float32)
        out = _conv_logits(m.Conv2d(3, 2, 1, 1, weight=w), x)
        np.testing.assert_array_equal(out.reshape(2, 20), w.reshape(2, 3) @ x.reshape(3, 20))

    def test_dimension_formula(self):
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        conv = m.Conv2d(3, 5, 3, 3, padding=1,
                        weight=np.zeros((5, 3, 3, 3), dtype=np.float32))
        assert _conv_logits(conv, x).shape == (1, 5, 8, 8)

    def test_kernel_larger_than_input(self):
        conv = m.Conv2d(1, 1, 5, 5, weight=np.zeros((1, 1, 5, 5), dtype=np.float32))
        with pytest.raises(ShapeMismatchError):
            _conv_logits(conv, X_3X3[None])

    def test_channel_mismatch(self):
        conv = m.Conv2d(2, 1, 2, 2, weight=np.zeros((1, 2, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeMismatchError):
            _conv_logits(conv, X_3X3[None])


class TestConvViaMatmul:
    """The forward pass's im2col GEMM against the window-walk oracle."""

    @pytest.mark.parametrize("case", [
        (1, 1, 3, 1, 0, 4, 4),
        (2, 3, 3, 1, 1, 6, 5),
        (4, 2, 2, 2, 0, 8, 8),
        (3, 4, 1, 1, 0, 5, 7),
        (2, 2, 3, 2, 1, 7, 7),
    ])
    def test_matches_window_walk_oracle(self, case):
        in_c, out_c, k, stride, pad, h, w = case
        rng = np.random.default_rng(hash(case) % 2 ** 32)
        # quarter-scale values keep float32 accumulation error well under the
        # 1e-6 bound while still exercising inexact arithmetic
        q = np.float32(0.25)
        conv = m.Conv2d(in_c, out_c, k, k, stride=stride, padding=pad,
                        weight=q * rng.standard_normal((out_c, in_c, k, k), dtype=np.float32),
                        bias=(q * rng.standard_normal(out_c)).astype(np.float32))
        x = q * rng.standard_normal((2, in_c, h, w), dtype=np.float32)
        got = _conv_logits(conv, x)
        want = oracles.conv_ref(x, conv.weight, conv.bias, stride, pad)
        np.testing.assert_allclose(got, want, atol=1e-6, rtol=0)


class TestForward:
    def test_record_does_not_change_logits(self):
        net = zoo.tiny_cnn(0)
        x = np.random.default_rng(3).standard_normal((4, 2, 8, 8), dtype=np.float32)
        plain, none_trace = m.forward(net, x, record=False)
        recorded, trace = m.forward(net, x, record=True)
        assert none_trace is None
        np.testing.assert_array_equal(plain, recorded)
        assert set(trace.bn_means) == set(m.bn_layers(net))

    def test_trace_stats_match_independent_computation(self):
        net = zoo.tiny_cnn(0)
        x = np.random.default_rng(4).standard_normal((4, 2, 8, 8), dtype=np.float32)
        _, trace = m.forward(net, x, record=True)
        acts = m.run_layers(net, x)
        ref_acts = oracles.forward_ref(net, x)
        for i in m.bn_layers(net):
            # trace comes from float32 activations, the oracle from float64
            mean, std = oracles.channel_stats_ref(acts[i])
            np.testing.assert_array_equal(trace.bn_means[i], mean)
            np.testing.assert_array_equal(trace.bn_stds[i], std)
            ref_mean, ref_std = oracles.channel_stats_ref(ref_acts[i])
            np.testing.assert_allclose(trace.bn_means[i], ref_mean, atol=1e-4)
            np.testing.assert_allclose(trace.bn_stds[i], ref_std, atol=1e-4)

    def test_matches_float64_oracle_end_to_end(self):
        net = zoo.toy_cnn(0)
        x = np.random.default_rng(5).standard_normal((3, 3, 8, 8), dtype=np.float32)
        logits, _ = m.forward(net, x)
        ref = oracles.forward_ref(net, x)[-1]
        np.testing.assert_allclose(logits, ref, atol=1e-4, rtol=1e-4)

    def test_residual_adds_recorded_activation(self):
        net = zoo.toy_cnn(0)
        x = np.random.default_rng(6).standard_normal((2, 3, 8, 8), dtype=np.float32)
        acts = m.run_layers(net, x)
        res_idx = next(i for i, l in enumerate(net.layers) if isinstance(l, m.ResidualAdd))
        src = net.layers[res_idx].source
        np.testing.assert_array_equal(acts[res_idx + 1], acts[res_idx] + acts[src + 1])

    def test_batch_shape_rejected(self):
        net = zoo.tiny_cnn(0)
        with pytest.raises(ShapeMismatchError):
            m.forward(net, np.zeros((4, 3, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeMismatchError):
            m.forward(net, np.zeros((2, 8, 8), dtype=np.float32))

    def test_nonfinite_input_rejected(self):
        net = zoo.tiny_cnn(0)
        x = np.zeros((1, 2, 8, 8), dtype=np.float32)
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericFailureError):
            m.forward(net, x)

    def test_nonfinite_intermediate_names_layer(self):
        big = np.full((1, 1, 1, 1), 1e30, dtype=np.float32)
        w = np.full((1, 1, 1, 1), 1e30, dtype=np.float32)
        net = m.ModelGraph(
            layers=[m.Conv2d(1, 1, 1, 1, weight=w)],
            input_shape=(1, 1, 1),
            class_count=1,
        )
        with pytest.raises(NumericFailureError) as err, np.errstate(over="ignore"):
            m.forward(net, big)
        assert err.value.layer_index == 0


class TestValidation:
    def test_shape_composition_errors(self):
        bad = m.ModelGraph(
            layers=[m.Conv2d(3, 4, 3, 3, weight=np.zeros((4, 3, 3, 3), dtype=np.float32))],
            input_shape=(2, 8, 8),
            class_count=10,
        )
        with pytest.raises(ShapeMismatchError):
            m.validate_model(bad)

    @pytest.mark.parametrize("field, value", [("stride", 0), ("kernel_h", 0), ("padding", -1)])
    def test_conv_geometry_out_of_range(self, field, value):
        net = zoo.toy_cnn(0)
        setattr(net.layers[0], field, value)
        with pytest.raises(ShapeMismatchError, match="layer 0: kernel and stride"):
            m.validate_model(net)

    def test_residual_source_bounds(self):
        net = zoo.toy_cnn(0)
        res_idx = next(i for i, l in enumerate(net.layers) if isinstance(l, m.ResidualAdd))
        net.layers[res_idx] = m.ResidualAdd(source=res_idx + 1)
        with pytest.raises(ShapeMismatchError):
            m.validate_model(net)

    def test_nonpositive_running_var(self):
        net = zoo.tiny_cnn(0)
        bn = net.layers[m.bn_layers(net)[0]]
        bn.running_var = bn.running_var.copy()
        bn.running_var[0] = 0.0
        with pytest.raises(ShapeMismatchError):
            m.validate_model(net)

    def test_wrong_weight_shape(self):
        net = zoo.tiny_cnn(0)
        first = net.layers[0]
        first.weight = first.weight[:, :, :2, :2]
        with pytest.raises(ShapeMismatchError):
            m.validate_model(net)

    def test_wrong_head_size(self):
        net = zoo.tiny_cnn(0)
        net.class_count = 11
        with pytest.raises(ShapeMismatchError):
            m.validate_model(net)


class TestInputGradient:
    def test_zero_at_exact_statistics(self):
        # channel values {2, -1, 2, -1}: mean 0.5 and std 1.5 exactly, the
        # stored targets, so every loss term vanishes identically
        net = zoo.bn_passthrough_net()
        x = np.tile(np.array([[2.0, -1.0], [2.0, -1.0]], dtype=np.float32), (1, 3, 1, 1))
        grad = m.input_gradient(net, x)
        assert np.abs(grad).max() <= 1e-8

    def test_closed_form_single_bn(self):
        net = zoo.bn_passthrough_net()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 2, 2), dtype=np.float32)
        grad = m.input_gradient(net, x)

        u = net.layers[0].running_mean.astype(np.float64)
        sig = np.sqrt(net.layers[0].running_var.astype(np.float64))
        mean, std = oracles.channel_stats_ref(x)
        nhw = x.shape[0] * x.shape[2] * x.shape[3]
        closed = (2 * (mean - u) / nhw)[None, :, None, None] \
            + (2 * (std - sig) / (nhw * std))[None, :, None, None] \
            * (x.astype(np.float64) - mean[None, :, None, None])
        np.testing.assert_allclose(grad, closed, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("fixture", [zoo.bn_passthrough_net, zoo.tiny_cnn, zoo.toy_cnn])
    def test_finite_difference_oracle(self, fixture):
        net = fixture()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, *net.input_shape), dtype=np.float32)
        grad = m.input_gradient(net, x)
        coords = rng.choice(x.size, size=min(12, x.size), replace=False)
        fd = oracles.fd_gradient(net, x, coords)
        scale = max(np.abs(fd).max(), 1e-12)
        rel = np.abs(grad.reshape(-1)[coords] - fd).max() / scale
        assert rel <= 1e-3, f"finite-difference mismatch: rel={rel:.2e}"

    def test_requires_bn_layer(self):
        net = zoo.decorrelation_net(0)
        x = np.zeros((1, 4, 64, 64), dtype=np.float32)
        with pytest.raises(UnsupportedLayerError):
            m.input_gradient(net, x)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = zoo.toy_cnn(0)
        path = tmp_path / "net.json"
        m.save_model(net, path)
        loaded = m.load_model(path)
        for a, b in zip(net.layers, loaded.layers):
            assert type(a) is type(b)
            for name, arr in m._param_arrays(a):
                np.testing.assert_array_equal(arr, dict(m._param_arrays(b))[name])
        x = np.random.default_rng(9).standard_normal((2, 3, 8, 8), dtype=np.float32)
        np.testing.assert_array_equal(m.forward(net, x)[0], m.forward(loaded, x)[0])

    def test_save_load_save_byte_identical(self, tmp_path):
        net = zoo.tiny_cnn(0)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        m.save_model(net, p1)
        m.save_model(m.load_model(p1), p2)
        assert m.blob_path_for(p1).read_bytes() == m.blob_path_for(p2).read_bytes()
        assert json.loads(p1.read_text())["layers"] == json.loads(p2.read_text())["layers"]

    def test_truncated_blob(self, tmp_path):
        path = tmp_path / "net.json"
        m.save_model(zoo.tiny_cnn(0), path)
        blob = m.blob_path_for(path)
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ModelFormatError):
            m.load_model(path)

    def test_unknown_layer_kind(self, tmp_path):
        path = tmp_path / "net.json"
        m.save_model(zoo.tiny_cnn(0), path)
        doc = json.loads(path.read_text())
        doc["layers"][2]["kind"] = "swish"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedLayerError):
            m.load_model(path)

    @pytest.mark.parametrize("key, value, message", [
        ("version", 2, "version must be 1, got 2"),
        ("version", "x", 'version: expected an integer, got "x"'),
        ("blob", None, "blob: expected a string, got null"),
        ("blob", 5, "blob: expected a string, got 5"),
    ], ids=["version2", "string_version", "null_blob", "int_blob"])
    def test_version_and_blob_are_checked(self, tmp_path, key, value, message):
        path = m.save_model(zoo.tiny_cnn(0), tmp_path / "net.json")
        # the blob under the name str(value) would load if the value were coerced
        shutil.copy(m.blob_path_for(path), tmp_path / str(value))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            m.load_model(path)

    def test_param_name_is_not_a_header_key(self, tmp_path):
        path = m.save_model(zoo.tiny_cnn(0), tmp_path / "net.json")
        doc = json.loads(path.read_text())
        doc["layers"][0]["bias"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"layer 0 \(conv2d\) in .*: bias: unknown key"):
            m.load_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ModelFormatError):
            m.load_model(path)
