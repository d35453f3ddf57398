"""Fixed sample blocks: exact whatever the split, and bounded in memory.

The conv kernels work m.BLOCK samples at a time and eval runs its dataset in
chunks of that size. Both must give the bytes an unsplit computation gives,
and eval's working memory must not grow with the number of eval samples.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mixbit import cli, quant, zoo
from mixbit import model as m


def res32_net(seed=0):
    """3x32x32 residual net: stem, one residual block, a stride-2 conv, two linears."""
    rng = np.random.default_rng(seed)
    layers = [
        zoo._conv(rng, 3, 8, 3, padding=1),             # 0
        zoo._bn(8),                                     # 1
        m.ReLU(),                                       # 2
        zoo._conv(rng, 8, 8, 3, padding=1),             # 3
        zoo._bn(8),                                     # 4
        m.ResidualAdd(source=2),                        # 5
        m.ReLU(),                                       # 6
        zoo._conv(rng, 8, 16, 3, stride=2, padding=1),  # 7: 16x16
        zoo._bn(16),                                    # 8
        m.ReLU(),                                       # 9
        m.AvgPool(4, 4),                                # 10: 4x4
        zoo._linear(rng, 256, 32),                      # 11
        m.ReLU(),                                       # 12
        zoo._linear(rng, 32, 10),                       # 13
    ]
    net = m.ModelGraph(layers=layers, input_shape=(3, 32, 32), class_count=10)
    zoo._freeze_bn_stats(net, seed + 1)
    return net


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# conv kernels: blocks against a per-sample reference


def _sample_cols(layer, xi):
    """(C*kh*kw, oh*ow) im2col of one padded sample, built independently of the package."""
    p, s = layer.padding, layer.stride
    xp = np.pad(xi, ((0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (layer.kernel_h, layer.kernel_w), axis=(1, 2))[:, ::s, ::s]
    c, oh, ow = win.shape[:3]
    return win.transpose(0, 3, 4, 1, 2).reshape(c * layer.kernel_h * layer.kernel_w, oh * ow), (oh, ow)


def _reference_forward(layer, x):
    wmat = layer.weight.reshape(layer.out_channels, -1)
    outs = []
    for xi in x:
        cols, (oh, ow) = _sample_cols(layer, xi)
        outs.append((wmat @ cols + layer.bias[:, None]).reshape(layer.out_channels, oh, ow))
    return np.stack(outs)


def _reference_backward(layer, x, grad_out):
    p, s, kh, kw = layer.padding, layer.stride, layer.kernel_h, layer.kernel_w
    wmat_t = layer.weight.reshape(layer.out_channels, -1).T
    grads = []
    for xi, gi in zip(x, grad_out):
        oh, ow = gi.shape[1:]
        cols = (wmat_t @ gi.reshape(layer.out_channels, -1)).reshape(layer.in_channels, kh, kw, oh, ow)
        gpad = np.zeros((layer.in_channels, xi.shape[1] + 2 * p, xi.shape[2] + 2 * p), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                gpad[:, i:i + oh * s:s, j:j + ow * s:s] += cols[:, i, j]
        grads.append(gpad[:, p:gpad.shape[1] - p, p:gpad.shape[2] - p])
    return np.stack(grads)


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
def test_conv_blocks_match_per_sample_reference(n, stride, padding):
    rng = np.random.default_rng(100 * n + 10 * stride + padding)
    layer = zoo._conv(rng, 3, 5, 3, stride=stride, padding=padding)
    x = rng.standard_normal((n, 3, 9, 9), dtype=np.float32)
    y = m._conv_forward(layer, x, layer.weight)
    assert _same_bits(y, _reference_forward(layer, x))
    grad_out = rng.standard_normal(y.shape, dtype=np.float32)
    assert _same_bits(m._conv_backward_input(layer, x, grad_out), _reference_backward(layer, x, grad_out))


# ---------------------------------------------------------------------------
# quantized forward: chunk sizes


@pytest.mark.parametrize("build", [zoo.toy_cnn, res32_net], ids=["toy_cnn", "res32_net"])
def test_quantized_forward_is_chunk_invariant(build):
    net = build(0)
    slots = len(m.weighted_layers(net))
    bits = [(4, 8)[i % 2] for i in range(slots)]
    calib = np.random.default_rng(2).standard_normal((16, *net.input_shape), dtype=np.float32)
    qm = quant.quantize_model(net, quant.BitConfig(bits, bits), calib)
    xs, _ = zoo.make_eval_dataset(net, 256, 0.1, 3)
    outputs = [np.concatenate([quant.quantized_forward(qm, xs[lo:lo + size]) for lo in range(0, 256, size)])
               for size in (1, 7, 32, 256)]
    for out in outputs[1:]:
        assert _same_bits(out, outputs[0])


def test_eval_batches_concatenate_to_the_dataset():
    net = zoo.toy_cnn(0)
    chunks = list(zoo.eval_batches(net, 70, 0.2, 5))
    assert [len(xs) for xs, _ in chunks] == [32, 32, 6]
    rng = np.random.default_rng(5)
    anchors = rng.standard_normal((10, *net.input_shape), dtype=np.float32)
    ks = np.arange(70) % 10
    want = anchors[ks] + np.float32(0.2) * rng.standard_normal((70, *net.input_shape), dtype=np.float32)
    assert _same_bits(np.concatenate([xs for xs, _ in chunks]), want)
    labels = m.forward(net, anchors)[0].argmax(axis=1)[ks]
    assert np.array_equal(np.concatenate([ys for _, ys in chunks]), labels)


# ---------------------------------------------------------------------------
# eval memory


def test_eval_peak_memory_does_not_grow_with_samples(tmp_path):
    model_path = m.save_model(res32_net(0), tmp_path / "res32.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": str(model_path), "distill": {"steps": 2, "batch_size": 8},
                                  "sensitivity": {"method": "naive"}}))
    out = tmp_path / "out"
    for stage in ("distill", "sense", "profile", "plan"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK, stage
    cfg = cli.load_config(str(config), cli.build_parser().parse_args(["eval", "--out", str(out)]))
    peaks = {}
    for samples in (64, 1024):
        run_cfg = dataclasses.replace(cfg, eval=dataclasses.replace(cfg.eval, samples=samples))
        tracemalloc.start()
        try:
            cli.stage_eval(run_cfg)
            peaks[samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 1024 samples would hold 12.6 MB of inputs alone; the kept predictions and
    # labels add about 100 bytes a sample
    assert peaks[1024] < peaks[64] + 256 * 1024, peaks
