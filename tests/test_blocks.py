"""Sample blocks: exact whatever the split, and bounded in memory.

The conv kernels work at most m.BLOCK samples at a time, fewer where their
window rows would exceed the window budget m._budget, and eval runs its
dataset in chunks of m.BLOCK. All must give the bytes an unsplit computation
gives, whatever the BLAS thread count, and eval's working memory must not grow
with the number of eval samples.
"""

import contextvars
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import mixbit
from mixbit import cli, quant, sensitivity, zoo
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


def _window_rows(xi, kh, kw, stride, ph, pw):
    """(oh*ow, kh*kw*C) window rows of one padded HWC sample, built independently of the package."""
    xp = np.pad(xi, ((ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::stride, ::stride]  # (oh, ow, C, kh, kw)
    oh, ow, c = win.shape[:3]
    return win.transpose(0, 1, 3, 4, 2).reshape(oh * ow, kh * kw * c), (oh, ow)


def _reference_forward(layer, x):
    """One (oh*ow, kh*kw*C) @ (kh*kw*C, O) GEMM per sample, in NCHW."""
    kh, kw, p = layer.kernel_h, layer.kernel_w, layer.padding
    wmat = layer.weight.transpose(2, 3, 1, 0).reshape(kh * kw * layer.in_channels, layer.out_channels)
    outs = []
    for xi in x:
        rows, (oh, ow) = _window_rows(xi.transpose(1, 2, 0), kh, kw, layer.stride, p, p)
        outs.append((rows @ wmat + layer.bias).reshape(oh, ow, layer.out_channels).transpose(2, 0, 1))
    return np.stack(outs)


def _reference_backward(layer, x, grad_out):
    """Per sample: at stride 1 with padding below the kernel, the GEMM of grad_out's window rows with
    the flipped kernel; otherwise grad_out's rows times the kernel matrix, scattered tap by tap."""
    p, s, kh, kw = layer.padding, layer.stride, layer.kernel_h, layer.kernel_w
    c, o = layer.in_channels, layer.out_channels
    grads = []
    for xi, gi in zip(x, grad_out):
        h, w = xi.shape[1:]
        ghwc = gi.transpose(1, 2, 0)
        if s == 1 and p < min(kh, kw):
            flipped = layer.weight[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
            rows, _ = _window_rows(ghwc, kh, kw, 1, kh - 1 - p, kw - 1 - p)
            grads.append((rows @ flipped).reshape(h, w, c).transpose(2, 0, 1))
            continue
        oh, ow = ghwc.shape[:2]
        wmat_t = layer.weight.transpose(2, 3, 1, 0).reshape(kh * kw * c, o).T
        cols = (ghwc.reshape(oh * ow, o) @ wmat_t).reshape(oh, ow, kh, kw, c)
        gpad = np.zeros((h + 2 * p, w + 2 * p, c), dtype=np.float32)
        for i in range(kh):
            for j in range(kw):
                gpad[i:i + oh * s:s, j:j + ow * s:s] += cols[:, :, i, j]
        grads.append(gpad[p:p + h, p:p + w].transpose(2, 0, 1))
    return np.stack(grads)


def _check_conv_against_reference(layer, x, rng):
    y = m._conv_forward(layer, x)
    assert _same_bits(y, _reference_forward(layer, x))
    grad_out = rng.standard_normal(y.shape, dtype=np.float32)
    assert _same_bits(m._conv_backward_input(layer, x.shape, grad_out), _reference_backward(layer, x, grad_out))


@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
def test_conv_blocks_match_per_sample_reference(n, stride, padding):
    rng = np.random.default_rng(100 * n + 10 * stride + padding)
    layer = zoo._conv(rng, 3, 5, 3, stride=stride, padding=padding)
    _check_conv_against_reference(layer, rng.standard_normal((n, 3, 9, 9), dtype=np.float32), rng)


# (kernel_h, kernel_w, stride, padding): non-square kernels, and padding at or above the kernel
_GEOMETRIES = [(3, 2, 1, 1), (2, 3, 1, 0), (1, 3, 1, 0), (3, 2, 2, 1), (1, 1, 1, 1), (2, 2, 1, 3), (3, 3, 2, 3)]


def _conv_layer(rng, kh, kw, stride, padding, in_c=3, out_c=5):
    weight = rng.standard_normal((out_c, in_c, kh, kw), dtype=np.float32)
    bias = rng.standard_normal(out_c, dtype=np.float32)
    return m.Conv2d(in_c, out_c, kh, kw, stride=stride, padding=padding, weight=weight, bias=bias)


@pytest.mark.parametrize("kh,kw,stride,padding", _GEOMETRIES)
@pytest.mark.parametrize("n", [1, 33])
def test_conv_geometries_match_per_sample_reference(n, kh, kw, stride, padding):
    rng = np.random.default_rng([n, kh, kw, stride, padding])
    layer = _conv_layer(rng, kh, kw, stride, padding)
    _check_conv_against_reference(layer, rng.standard_normal((n, 3, 7, 8), dtype=np.float32), rng)


def _budget_for(samples, layer, x):
    """A window byte budget that holds `samples` samples of the conv's forward rows (1 byte: one sample)."""
    _, _, oh, ow = m._conv_forward(layer, x[:1]).shape
    return samples * oh * ow * layer.kernel_h * layer.kernel_w * layer.in_channels * 4 if samples > 1 else 1


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
def test_conv_sub_blocks_match_per_sample_reference(n, stride, padding, samples, monkeypatch):
    rng = np.random.default_rng(100 * n + 10 * stride + padding)
    layer = zoo._conv(rng, 3, 5, 3, stride=stride, padding=padding)
    x = rng.standard_normal((n, 3, 9, 9), dtype=np.float32)
    monkeypatch.setattr(m, "_budget", contextvars.ContextVar("budget", default=_budget_for(samples, layer, x)))
    _check_conv_against_reference(layer, x, rng)


@pytest.mark.parametrize("samples", [1, 3])
@pytest.mark.parametrize("kh,kw,stride,padding", _GEOMETRIES)
@pytest.mark.parametrize("n", [1, 33])
def test_conv_geometries_in_sub_blocks_match_per_sample_reference(n, kh, kw, stride, padding, samples,
                                                                  monkeypatch):
    rng = np.random.default_rng([n, kh, kw, stride, padding])
    layer = _conv_layer(rng, kh, kw, stride, padding)
    x = rng.standard_normal((n, 3, 7, 8), dtype=np.float32)
    monkeypatch.setattr(m, "_budget", contextvars.ContextVar("budget", default=_budget_for(samples, layer, x)))
    _check_conv_against_reference(layer, x, rng)


def test_block_samples_stay_within_the_byte_budget():
    assert m._block_samples(1) == m.BLOCK
    assert m._block_samples(m._WINDOW_BYTES // 3) == 3
    assert m._block_samples(m._WINDOW_BYTES // 3 + 1) == 2
    assert m._block_samples(m._WINDOW_BYTES + 1) == 1


@pytest.mark.parametrize("kh,kw,stride,padding", [(3, 3, 1, 0), (3, 3, 1, 1), (3, 3, 1, 2), *_GEOMETRIES])
def test_conv_input_gradient_equals_the_scatter(kh, kw, stride, padding):
    # small integers keep every sum exact whatever its order, so the flipped-kernel
    # conv and the scatter of the definition must agree exactly
    rng = np.random.default_rng([kh, kw, stride, padding])
    layer = _conv_layer(rng, kh, kw, stride, padding, in_c=4, out_c=6)
    layer.weight = rng.integers(-3, 4, layer.weight.shape).astype(np.float32)
    x = np.zeros((3, 4, 7, 8), dtype=np.float32)
    grad_out = rng.integers(-3, 4, m._conv_forward(layer, x).shape).astype(np.float32)
    _, _, oh, ow = grad_out.shape
    gpad = np.zeros((3, 4, 7 + 2 * padding, 8 + 2 * padding), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            # tap (i, j) of every output cell reads input cell (stride * y + i, stride * x + j)
            gpad[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += \
                np.einsum("nohw,oc->nchw", grad_out, layer.weight[:, :, i, j])
    want = gpad[:, :, padding:padding + 7, padding:padding + 8]
    assert np.array_equal(m._conv_backward_input(layer, x.shape, grad_out), want)


def test_pool_backward_writes_positive_zero():
    layer = m.AvgPool(2, 2)
    x = np.ones((1, 2, 5, 5), dtype=np.float32)  # the last row and column lie in no window
    grad_out = np.array([-0.0, 0.0, -1.0, 2.0] * 2, dtype=np.float32).reshape(1, 2, 2, 2)
    gx = m._avgpool_backward(layer, x, grad_out)
    want = np.repeat(np.repeat(grad_out * np.float32(0.25), 2, axis=2), 2, axis=3)
    assert np.array_equal(gx[:, :, :4, :4], want) and not gx[:, :, 4:].any() and not gx[:, :, :, 4:].any()
    assert not np.signbit(gx[:, :, :4, :4][want == 0]).any()


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
# distill memory


def test_distill_step_frees_activations_and_gradients_below_their_layer():
    net = res32_net(0)
    x = np.random.default_rng(1).standard_normal((32, *net.input_shape), dtype=np.float32)
    targets = m.bn_targets(net)
    m._stat_loss_and_gradient(net, x, targets)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        m._stat_loss_and_gradient(net, x, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 25.6 MB when every activation and gradient lives until the pass returns
    assert peak < 22e6, peak


def _traced_peak(fn):
    fn()  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distill_step_keeps_only_what_its_backward_reads():
    net = res32_net(0)
    x = np.random.default_rng(1).standard_normal((32, *net.input_shape), dtype=np.float32)
    targets = m.bn_targets(net)
    # 20.07 MB when the forward keeps every activation and each statistic's float64 centered copy
    peak = _traced_peak(lambda: m._stat_loss_and_gradient(net, x, targets))
    assert peak < 13e6, peak


def test_mqe_base_pass_keeps_only_what_its_sweeps_read():
    net = res32_net(0)
    x = np.random.default_rng(1).standard_normal((32, *net.input_shape), dtype=np.float32)
    # 16.00 MB when the base pass keeps every activation and filters them afterwards
    peak = _traced_peak(lambda: sensitivity.mqe_sensitivity(net, x))
    assert peak < 13e6, peak


@pytest.mark.parametrize("name", ["toy_cnn", "res32_net"])
def test_stat_grad_of_a_part_is_its_rows_of_the_whole_term(name):
    net = {"toy_cnn": zoo.toy_cnn, "res32_net": res32_net}[name](0)
    acts = m.run_layers(net, np.random.default_rng(3).standard_normal((33, *net.input_shape), dtype=np.float32))
    for i, target in m.bn_targets(net).items():
        x = acts[i]
        stats = m._channel_stats(x)
        # the statistics of joined parts are those of the whole input
        assert all(_same_bits(a, b) for a, b in zip(m._channel_stats(np.concatenate([x[:16], x[16:]])), stats))
        term = m._stat_grad(x, stats, target, 33)
        assert term.dtype == np.float32 and term.shape == x.shape
        parts = [m._stat_grad(x[lo:hi], stats, target, 33) for lo, hi in ((0, 1), (1, 16), (16, 33))]
        assert _same_bits(np.concatenate(parts), term)


def test_recorded_forward_peaks_no_higher_than_a_plain_one():
    # recording keeps per-layer statistics, not activations
    net = res32_net(0)
    x = np.random.default_rng(2).standard_normal((64, *net.input_shape), dtype=np.float32)
    m.forward(net, x, record=True)  # first-call allocations stay out of the peaks
    peaks = {}
    for record in (False, True):
        tracemalloc.start()
        try:
            m.forward(net, x, record=record)
            peaks[record] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[True] <= 1.1 * peaks[False], peaks


# ---------------------------------------------------------------------------
# eval memory


def test_eval_peak_memory_does_not_grow_with_samples(tmp_path):
    model_path = m.save_model(res32_net(0), tmp_path / "res32.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": str(model_path), "distill": {"steps": 2, "batch_size": 8},
                                  "sensitivity": {"method": "naive"}}))
    out = tmp_path / "out"
    for stage in ("distill", "sense", "profile", "plan", "quantize"):
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


def test_eval_draws_its_set_once(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 8}, "eval": {"samples": 40}}))
    out = tmp_path / "out"
    for stage in ("distill", "sense", "profile", "plan", "quantize"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK, stage
    # every variant runs on each chunk of one draw
    with mock.patch.object(zoo, "eval_batches", wraps=zoo.eval_batches) as draws:
        assert cli.main(["eval", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    assert draws.call_count == 1


# ---------------------------------------------------------------------------
# eval: the planned variant resumes from a uniform one


def _quantized_dir(tmp_path, name, seed, activation_bits="plan", ratio=0.5, beta=0.5):
    """Run distill to quantize on a light config; the eval stage's config."""
    doc = {"distill": {"steps": 2, "batch_size": 8}, "eval": {"samples": 70}}  # chunks of 32, 32 and 6
    if name == "res32_net":
        doc["model"] = str(m.save_model(res32_net(seed), tmp_path / "res32.json"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    args = ["--config", str(config), "--out", str(tmp_path / "out"), "--seed", str(seed),
            "--bits-activations", activation_bits, "--ratio", str(ratio), "--beta", str(beta)]
    for stage in ("distill", "sense", "profile", "plan", "quantize"):
        assert cli.main([stage, *args]) == cli.EXIT_OK, stage
    return cli.load_config(str(config), cli.build_parser().parse_args(["eval", *args]))


def _eval_from_the_input(cfg):
    """{variant: (accuracy, agreement)}, every variant run from the input over the whole eval set at once."""
    net, _ = cli.ensure_model(cfg)
    count = len(m.weighted_layers(net))
    batch = cli._load_distilled(cfg, net)
    models = [quant.quantize_model(net, quant.BitConfig.uniform(count, b), batch) for b in (32, 8, 4)]
    models.append(cli._load_quantized(cfg, net, cli._load_plan(cfg, net)[2]))
    xs, ys = zoo.make_eval_dataset(net, cfg.eval.samples, cfg.eval.noise, cfg.eval.seed)
    preds = [quant.quantized_forward(qm, xs).argmax(axis=1) for qm in models]
    return {name: (float(np.mean(p == ys)), float(np.mean(p == preds[0])))
            for name, p in zip(("fp32", "int8", "int4", "planned"), preds)}


def _eval_with_planned_starts(cfg):
    """stage_eval's {variant: (accuracy, agreement)} and the set of layers its planned passes start at."""
    with mock.patch.object(quant, "_quantized_run", wraps=quant._quantized_run) as passes:
        doc = cli.stage_eval(cfg)
    # the planned model is the one read from quantized.json, whose weight grids are _WeightGrids
    starts = {len(call.args[2]) for call in passes.call_args_list
              if isinstance(call.args[0].weight_params[0], cli._WeightGrid)}
    return {name: (r["accuracy"], r["agreement"]) for name, r in doc["variants"].items()}, starts


# With every grid frozen from one batch, a planned layer runs alike the uniform variant at its widths:
# under --bits-activations 8, only int8, and only where the plan gives 8 bits.
@pytest.mark.parametrize("name, seed, flags, plan, shared", [
    ("toy_cnn", 0, ("plan", 0.5, 0.5), [4, 4, 8, 4, 8], 2),      # int4's first two layers
    ("toy_cnn", 1, ("8", 0.5, 0.5), [8, 4, 8, 4, 8], 1),         # int8's first layer
    ("toy_cnn", 0, ("plan", 0.0, 0.5), [4, 4, 4, 4, 4], 5),      # int4 throughout
    ("res32_net", 2, ("plan", 0.5, 0.5), [4, 4, 4, 4, 8], 4),    # int4 up to the last linear
    ("res32_net", 1, ("8", 0.9, 1.0), [8, 8, 8, 4, 8], 3),       # int8 up to the first linear
])
def test_planned_variant_resumes_where_it_leaves_a_uniform_one(tmp_path, name, seed, flags, plan, shared):
    cfg = _quantized_dir(tmp_path, name, seed, *flags)
    net, _ = cli.ensure_model(cfg)
    assert cli._load_plan(cfg, net)[1].weight_bits == plan
    slots = m.weighted_layers(net)
    results, starts = _eval_with_planned_starts(cfg)
    assert starts == {slots[shared] if shared < len(slots) else len(net.layers)}
    assert results == _eval_from_the_input(cfg)


def test_planned_grids_unlike_the_uniform_ones_run_from_the_input(tmp_path):
    cfg = _quantized_dir(tmp_path, "toy_cnn", 0)
    out = Path(cfg.output_dir)
    kept = {f: (out / f).read_bytes() for f in (cli.ART_DISTILLED, "distilled.bin")}
    # quantized.json from another distilled batch: the weight grids agree, the activation grids do not
    other = dataclasses.replace(cfg, distill=dataclasses.replace(cfg.distill, seed=cfg.distill.seed + 1))
    cli.stage_distill(other)
    cli.stage_quantize(other)
    for f, data in kept.items():
        (out / f).write_bytes(data)
    results, starts = _eval_with_planned_starts(cfg)
    assert starts == {0}
    assert results == _eval_from_the_input(cfg)


# ---------------------------------------------------------------------------
# BLAS threads


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_canonical_hash_does_not_depend_on_blas_threads(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(Path(mixbit.__file__).parent.parent), MIXBIT_LOG="WARNING")

    def pipeline(out, *args, threads=None, preexec_fn=None):
        run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "mixbit.cli", "pipeline", "--out", str(out), "--seed", "0", *args],
                       env=run_env, check=True, stdout=subprocess.DEVNULL, preexec_fn=preexec_fn)
        return json.loads((out / cli.ART_REPORT_JSON).read_text())["meta"]["canonical_sha256"]

    hashes = [pipeline(tmp_path / f"threads_{threads}", threads=threads) for threads in (None, "1")]
    assert hashes[0] == hashes[1]
    # cli.main holds OpenBLAS to one thread and runs res32_net's distill, sense and eval passes as one
    # sample part per usable CPU: on one CPU they run unsplit, and every artifact must keep its bytes
    config = tmp_path / "res32.json"
    config.write_text(json.dumps({"model": str(m.save_model(res32_net(0), tmp_path / "net.json")),
                                  "distill": {"steps": 5}}))
    outs = [tmp_path / "one_cpu", tmp_path / "every_cpu"]
    hashes = [pipeline(outs[0], "--config", str(config), preexec_fn=_one_cpu),
              pipeline(outs[1], "--config", str(config))]
    assert hashes[0] == hashes[1]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != cli.ART_REPORT_JSON:  # whose timestamp differs
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
