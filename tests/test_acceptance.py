"""Acceptance suite: one test per release criterion, one printed verdict line each.

Every expected value here is either derived by hand in the test body, computed
by an independent reference implementation, or checked as an ordering/property
rather than a number. Runtime-limited criteria measure wall time explicitly.
"""

import json
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from mixbit import cli, distill, hwsim, model as m, planner, quant, sensitivity as sens, zoo
from oracles import fd_gradient

from mixbit.errors import InfeasibleHardwareError


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One full pipeline run with stock settings, shared by criteria 9 and 11."""
    out = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    rc = cli.main(["pipeline", "--out", str(out), "--seed", "0"])
    elapsed = time.perf_counter() - t0
    assert rc == cli.EXIT_OK
    report = json.loads((out / cli.ART_REPORT_JSON).read_text())
    return out, report, elapsed


def test_criterion_01_round_trip_error_bound():
    with criterion(1, "round-trip error within half a step, 10k values per mode"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        for bits in (4, 8):
            for symmetric in (True, False):
                lo = rng.uniform(-10, 0)
                hi = lo + rng.uniform(0.5, 20)
                values = rng.uniform(lo, hi, size=10_000)
                params = quant.calibrate_minmax(values, bits, symmetric=symmetric)
                back = quant.fake_quantize(values, params).astype(np.float64)
                violations = int((np.abs(back - values) > params.scale / 2).sum())
                assert violations == 0, (bits, symmetric, violations)
        assert time.perf_counter() - t0 < 1.0


def _enumerate_best(costs, gains, budget):
    """Exhaustive knapsack reference; ties prefer upgrading lower indices."""
    n = len(costs)
    masks = np.arange(1 << n, dtype=np.int64)
    used = np.zeros(masks.size, dtype=np.int64)
    extra = np.zeros(masks.size, dtype=np.float64)
    key = np.zeros(masks.size, dtype=np.int64)
    for j in range(n):
        bit = (masks >> j) & 1
        used += bit * costs[j]
        extra += bit * gains[j]
        key += bit << (n - 1 - j)  # layer 0 is the most significant tie digit
    extra = np.where(used <= budget, extra, -np.inf)
    best = extra.max()
    # argmax over the keyed ties returns a mask index; masks are the
    # enumeration order, so the index IS the mask (layer j at plain bit j)
    pick = int(np.where(extra == best, key, -1).argmax())
    bits = [8 if (pick >> j) & 1 else 4 for j in range(n)]
    return best, bits


def test_criterion_02_planner_exactness_and_speed():
    with criterion(2, "exact knapsack vs enumeration on 200 instances; 64 layers < 1 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            elems = rng.integers(1, 21, size=n) * 2  # even: byte rounding is exact
            scores = rng.integers(-8, 9, size=n) / 8.0  # eighths: exact float sums
            sizes4 = [int(e) * 4 for e in elems]
            sizes8 = [int(e) * 8 for e in elems]
            limit = int(round(sum(sizes4) + rng.uniform() * (sum(sizes8) - sum(sizes4))))
            res = planner.solve_bitplan(scores, sizes4, sizes8, limit)

            costs = np.array([e for e in elems], dtype=np.int64) // 2  # by8 - by4
            budget = limit // 8 - int(sum(e // 2 for e in elems))
            gains = 4.0 * scores
            best_extra, best_bits = _enumerate_best(costs, gains, budget)
            assert res.weight_bits == best_bits
            assert res.objective == planner.plan_objective(scores, best_bits)
            assert res.objective == float(4.0 * scores.sum() + best_extra)
        assert time.perf_counter() - t0 < 30.0

        rng = np.random.default_rng(2)
        scores = rng.integers(-8, 9, size=64) / 8.0
        elems = rng.integers(1, 41, size=64) * 2
        sizes4 = [int(e) * 4 for e in elems]
        sizes8 = [int(e) * 8 for e in elems]
        limit = int(round(sum(sizes4) + 0.5 * (sum(sizes8) - sum(sizes4))))
        t1 = time.perf_counter()
        res = planner.solve_bitplan(scores, sizes4, sizes8, limit)
        assert time.perf_counter() - t1 < 1.0
        assert len(res.weight_bits) == 64
        assert planner.feasible(sizes4, sizes8, res.weight_bits, limit)


def test_criterion_03_tile_side_fixtures():
    with criterion(3, "six hand-traced tile-length pairs reproduce exactly"):
        fixtures = [(64, 64), (100, 128), (80, 64), (10, 16), (200, 128), (140, 64)]
        for side, want in fixtures:
            assert hwsim.tile_side(side, 128, 16) == want, (side, want)


def test_criterion_04_buffer_allocation_fixtures():
    with criterion(4, "buffer-sizing fixtures reproduce exactly"):
        alloc = hwsim.bram_allocate(hwsim.HwConfig(bram_total=140, coe_w=1, coe_f=1, coe_o=2))
        assert alloc.l_max == 32
        assert (alloc.weight_blocks, alloc.feature_blocks, alloc.output_blocks) == (32, 32, 64)
        tight = hwsim.bram_allocate(hwsim.HwConfig(bram_total=24, coe_w=1, coe_f=1, coe_o=1))
        assert tight.l_max == 8
        with pytest.raises(InfeasibleHardwareError):
            hwsim.bram_allocate(hwsim.HwConfig(coe_w=10, coe_f=10, coe_o=10))


def test_criterion_05_blocked_transfer_volume():
    with criterion(5, "blocked transfer equals 3*L^3/M for every divisor tile, L <= 64"):
        checked = 0
        for L in range(1, 65):
            for M in range(1, L + 1):
                if L % M:
                    continue
                want = 3 * L ** 3 // M
                assert hwsim.blocked_transfer_elements(L, L, L, M) == want
                assert hwsim.transfer_volume(L, M) == want
                checked += 1
        assert checked == 280  # sum of divisor counts for 1..64


@contextmanager
def _call_counts():
    """Mocks wrapping quant.quantize_model and sensitivity.mask_weights; they count calls."""
    with mock.patch.object(quant, "quantize_model", wraps=quant.quantize_model) as quantize_calls, \
            mock.patch.object(sens, "mask_weights", wraps=sens.mask_weights) as mask_calls:
        yield quantize_calls, mask_calls


def test_criterion_06_sensitivity_properties():
    with criterion(6, "masked sensitivity: zeros at alpha=0, >=0, reproducible, 1+L passes"):
        net = zoo.tiny_cnn(0)
        batch = np.random.default_rng(3).standard_normal((16, 2, 8, 8), dtype=np.float32)

        zero = sens.mqe_sensitivity(net, batch, alpha=0.0)
        np.testing.assert_array_equal(zero.omega, np.zeros(3))

        with _call_counts() as (quantize_calls, mask_calls):
            a = sens.mqe_sensitivity(net, batch, alpha=0.5, seed=0)
        assert (a.omega >= 0).all()
        assert quantize_calls.call_count == 1
        assert mask_calls.call_count == 3

        b = sens.mqe_sensitivity(net, batch, alpha=0.5, seed=0)
        np.testing.assert_array_equal(a.omega, b.omega)

        with _call_counts() as (quantize_calls, mask_calls):
            naive = sens.naive_sensitivity(net, batch, bits=4)
        assert quantize_calls.call_count == 3
        assert mask_calls.call_count == 0
        assert (naive.omega >= 0).all()


def test_criterion_07_distillation_convergence():
    with criterion(7, "statistic matching: closed-form fixture <= 1e-4; loss never ends higher"):
        net = zoo.bn_passthrough_net()
        cfg = distill.DistillConfig(batch_size=4, steps=500, learning_rate=0.1, seed=0)
        out = distill.synthesize(net, cfg)
        assert out.final_loss <= 1e-4
        _, trace = m.forward(net, out.data, record=True)
        np.testing.assert_allclose(trace.bn_means[0], 0.5, atol=1e-2)
        np.testing.assert_allclose(trace.bn_stds[0], 1.5, atol=1e-2)

        fixtures = [
            (zoo.bn_passthrough_net(), (3, 2, 2)),
            (zoo.tiny_cnn(0), (2, 8, 8)),
            (zoo.toy_cnn(0), (3, 8, 8)),
        ]
        for model, shape in fixtures:
            cfg = distill.DistillConfig(batch_size=16, steps=200, learning_rate=0.05, seed=0)
            result = distill.synthesize(model, cfg)
            x0 = np.random.default_rng(cfg.seed).standard_normal(
                (cfg.batch_size, *shape), dtype=np.float32)
            _, trace = m.forward(model, x0, record=True)
            initial = distill.bn_stat_loss(trace, model)
            assert result.final_loss <= initial


def test_criterion_08_gradient_check():
    with criterion(8, "analytic input gradient matches finite differences to 1e-3"):
        fixtures = [
            (zoo.bn_passthrough_net(), (3, 2, 2)),
            (zoo.tiny_cnn(0), (2, 8, 8)),
            (zoo.toy_cnn(0), (3, 8, 8)),
        ]
        rng = np.random.default_rng(4)
        for net, shape in fixtures:
            batch = rng.standard_normal((2, *shape), dtype=np.float32)
            grad = m.input_gradient(net, batch)
            coords = rng.choice(batch.size, size=min(12, batch.size), replace=False)
            fd = fd_gradient(net, batch, coords)
            analytic = grad.reshape(-1)[coords]
            rel = np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel <= 1e-3, (type(net).__name__, rel)


def test_criterion_09_end_to_end_ordering(default_run):
    with criterion(9, "accuracy bracket, planned cycles <= 8-bit cycles, size within limit"):
        out, report, elapsed = default_run
        assert elapsed < 120.0
        variants = report["eval"]["variants"]
        samples = report["eval"]["samples"]
        slack = 1.0 / samples  # one misclassification
        acc4 = variants["int4"]["accuracy"]
        acc8 = variants["int8"]["accuracy"]
        accp = variants["planned"]["accuracy"]
        assert acc4 <= accp + slack
        assert accp <= acc8 + slack
        assert variants["planned"]["total_cycles"] <= variants["int8"]["total_cycles"]
        assert report["sizes"]["weight_bits_total"] <= report["sizes"]["limit_bits"]


def test_criterion_10_weight_count_cost_decorrelation():
    with criterion(10, "fewer-weight layer can cost strictly more cycles"):
        net = zoo.decorrelation_net(0)
        prof = hwsim.profile_model(net, (8,))
        conv_idx, lin_idx = prof.layer_indices()
        elems = dict(zip(prof.layer_indices(), prof.weight_elems()))
        assert elems[conv_idx] < elems[lin_idx]
        assert prof.cost(conv_idx, 8).total_cycles > prof.cost(lin_idx, 8).total_cycles


def test_criterion_11_blend_ablation(default_run):
    with criterion(11, "blend ablation: three distinct plans, balanced one undominated"):
        out, _, _ = default_run
        cfg = cli.load_config(None, cli.build_parser().parse_args(
            ["plan", "--out", str(out)]))
        net, _ = cli.ensure_model(cfg)
        batch = cli._load_distilled(cfg)
        report = sens.SensitivityReport.from_dict(
            json.loads((out / cli.ART_SENSITIVITY).read_text()))
        profile = hwsim.HwProfile.load_json(out / cli.ART_PROFILE_JSON)
        xs, labels = zoo.make_eval_dataset(net, cfg.eval_samples, cfg.eval_noise, cfg.eval_seed)

        outcomes = {}
        for beta in (1.0, 0.0, 0.5):
            pcfg = planner.PlannerConfig(beta=beta, gamma=1.0 - beta, ratio=0.5)
            plan = planner.plan_pipeline(report, profile, pcfg).weight_bits
            qm = quant.quantize_model(net, quant.BitConfig(plan, list(plan)), batch.data)
            acc = float(np.mean(quant.quantized_forward(qm, xs).argmax(axis=1) == labels))
            cycles = sum(int(profile.cost(idx, b).total_cycles)
                         for idx, b in zip(profile.layer_indices(), plan))
            outcomes[beta] = (tuple(plan), acc, cycles)

        plans = [outcomes[b][0] for b in (1.0, 0.0, 0.5)]
        assert len(set(plans)) == 3, plans

        _, acc_bal, cyc_bal = outcomes[0.5]
        for beta in (1.0, 0.0):
            _, acc_o, cyc_o = outcomes[beta]
            dominates = (acc_o >= acc_bal and cyc_o <= cyc_bal
                         and (acc_o > acc_bal or cyc_o < cyc_bal))
            assert not dominates, (beta, outcomes)
