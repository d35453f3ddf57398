import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from mixbit import hwsim, planner, quant, sensitivity as sens, zoo
from mixbit.errors import ConfigError, InfeasiblePlanError


class TestNormalize:
    def test_hand_values(self):
        np.testing.assert_allclose(planner.normalize([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_constant_vector(self):
        np.testing.assert_array_equal(planner.normalize([3.0, 3.0, 3.0]), [0.0, 0.0, 0.0])

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(20)
        for a, b in [(2.0, 0.0), (0.5, 3.0), (10.0, -7.0)]:
            np.testing.assert_allclose(
                planner.normalize(a * v + b), planner.normalize(v), atol=1e-12)

    def test_order_preserved(self):
        v = np.array([5.0, -1.0, 2.0, 2.0])
        out = planner.normalize(v)
        assert np.array_equal(np.argsort(out, kind="stable"), np.argsort(v, kind="stable"))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            planner.normalize([])
        with pytest.raises(ConfigError):
            planner.normalize([1.0, np.inf])


class TestOmega:
    def test_hand_values(self):
        w = [1.0, 0.5, 0.0]
        c = [0.0, 0.5, 1.0]
        e = [0.0, 0.5, 1.0]
        np.testing.assert_allclose(planner.omega(w, c, e, 0.5, 0.5), [0.5, 0.0, -0.5])

    def test_pure_sensitivity_and_pure_cost(self):
        w = np.array([0.3, 0.9])
        c = np.array([1.0, 0.0])
        e = np.array([0.5, 0.25])
        np.testing.assert_allclose(planner.omega(w, c, e, 1.0, 0.0), w)
        np.testing.assert_allclose(planner.omega(w, c, e, 0.0, 1.0), -(c + e) / 2)

    def test_blend_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            planner.omega([1.0], [0.0], [0.0], 0.7, 0.5)
        with pytest.raises(ConfigError):
            planner.omega([1.0], [0.0, 1.0], [0.0], 0.5, 0.5)
        with pytest.raises(ConfigError, match="got 0.5 \\+ nan"):  # NaN compares false both ways
            planner.omega([1.0], [0.0], [0.0], 0.5, math.nan)


def _brute_force(scores, sizes4, sizes8, limit_bits):
    """Enumerate every plan; ties prefer upgrading lower layer indices."""
    n = len(scores)
    best = None
    for mask in range(1 << n):
        bits = [8 if (mask >> i) & 1 else 4 for i in range(n)]
        used = sum(s8 if b == 8 else s4 for b, s4, s8 in zip(bits, sizes4, sizes8))
        if used > limit_bits:
            continue
        key = (planner.plan_objective(scores, bits),
               tuple(1 if b == 8 else 0 for b in bits))
        if best is None or key > best[0]:
            best = (key, bits)
    return best


def _full_table_plan(scores, sizes4, sizes8, limit_bits):
    """Reference solver: one float64 row per layer over every bit of budget.

    Returns (weight_bits, objective, achieved_size_bits) or raises like
    solve_bitplan; the planner must agree with it cell for cell.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0 or len(sizes4) != n or len(sizes8) != n:
        raise ConfigError("length mismatch")
    costs = [s8 - s4 for s4, s8 in zip(sizes4, sizes8)]
    if any(w < 0 for w in costs):
        raise ConfigError("8-bit sizes must dominate")
    budget = limit_bits - sum(sizes4)
    if budget < 0:
        raise InfeasiblePlanError("below the all-4-bit floor")
    gains = 4.0 * scores
    dp = np.zeros((n + 1, budget + 1), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        dp[i] = dp[i + 1]
        w = costs[i]
        if w <= budget:
            dp[i, w:] = np.maximum(dp[i + 1, w:], dp[i + 1, :budget + 1 - w] + gains[i])
    bits = []
    c = budget
    for i in range(n):
        w = costs[i]
        if w <= c and dp[i + 1, c - w] + gains[i] >= dp[i + 1, c]:
            bits.append(8)
            c -= w
        else:
            bits.append(4)
    achieved = sum(s8 if b == 8 else s4 for b, s4, s8 in zip(bits, sizes4, sizes8))
    return bits, planner.plan_objective(scores, bits), achieved


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (ConfigError, InfeasiblePlanError) as exc:
        return type(exc)


def _resnet50_weights():
    """Weights per weighted layer of ResNet-50: stem, bottleneck convs, fc."""
    counts = [9408]
    in_c = 64
    for width, blocks in ((64, 3), (128, 4), (256, 6), (512, 3)):
        for block in range(blocks):
            counts += [in_c * width, width * width * 9, width * 4 * width]
            if block == 0:
                counts.append(in_c * 4 * width)  # projection shortcut
            in_c = 4 * width
    return counts + [2048 * 1000]


def _check_against_full_table(gcd):
    # e elements cost 4 * e bits to upgrade, so gcd * k elements cost
    # 4 * gcd * k; odd counts (odd gcd and k, 1-element layers at gcd 1)
    # are planned without rounding to bytes
    rng = np.random.default_rng(100 + gcd)
    for trial in range(60):
        n = int(rng.integers(1, 9))
        elems = gcd * rng.integers(1, 24, size=n)
        elems[rng.random(n) < 0.15] = gcd
        elems[rng.integers(0, n)] = gcd  # pins the gcd of the costs
        scores = [
            rng.integers(-8, 9, size=n) / 8.0,  # exact sums, many ties
            rng.standard_normal(n),
            np.zeros(n),
            np.full(n, rng.choice([-0.5, 0.25])),
        ][trial % 4]
        sizes4 = [int(e) * 4 for e in elems]
        sizes8 = [int(e) * 8 for e in elems]
        assert math.gcd(*(s8 - s4 for s4, s8 in zip(sizes4, sizes8))) == 4 * gcd
        floor = sum(sizes4)  # all 4-bit
        full = sum(sizes8)
        for limit in (floor - 1, floor, full, floor + int(rng.integers(0, full - floor + 1))):
            want = _outcome(_full_table_plan, scores, sizes4, sizes8, limit)
            got = _outcome(planner.solve_bitplan, scores, sizes4, sizes8, limit)
            if isinstance(want, type):
                assert got is want
                continue
            assert (got.weight_bits, got.objective, got.achieved_size_bits) == want
            units = (limit - floor) // (4 * gcd)
            assert got.solver_cells == (n + 1) * (units + 1)


# name -> (scores, sizes4, sizes8, limits in bits): instances at the edges of
# the cells each layer updates
_EDGE_INSTANCES = {
    # room for every upgrade: the traceback reads no take bit, every cell it
    # meets lies in the saturated top
    "every_upgrade_fits": ([0.5, 0.25, 1.0, 0.0, 0.75], [12, 20, 8, 40, 28], [24, 40, 16, 80, 56],
                           (216, 217, 300)),
    # no headroom at all (cap = 0), with and without a zero-cost upgrade
    "zero_budget": ([0.5, 1.0, 0.25], [8, 12, 4], [16, 24, 8], (24, 27)),
    "zero_budget_zero_cost": ([0.5, 0.0, 1.0], [8, 12, 4], [16, 12, 8], (24, 27)),
    # layer 1 costs more than the budget, between layers that fit
    "costly_layer_between": ([0.5, 2.0, 0.25, 1.0], [8, 400, 12, 4], [16, 800, 24, 8],
                             (424, 436, 448, 820, 824)),
    # upgrades that cost nothing, one of them with a negative score
    "zero_cost_layers": ([0.5, 0.0, 0.25, -0.5, 1.0, 0.0], [8, 20, 12, 20, 4, 6], [16, 20, 24, 20, 8, 6],
                         (70, 78, 82, 94, 100)),
    # a negative score before and after the costliest layer
    "negative_before_largest": ([-0.5, 0.75, 1.0, 0.25], [8, 160, 12, 4], [16, 320, 24, 8],
                                (184, 200, 344, 352, 368)),
    "negative_after_largest": ([0.75, 1.0, -0.5, 0.25], [8, 160, 12, 4], [16, 320, 24, 8],
                               (184, 200, 344, 352, 368)),
}


class TestSolveBitplan:
    def test_worked_example(self):
        # elems 10/20/30 -> upgrade costs 40/80/120 bits, gains 3.6/0.4/2.0;
        # 160 bits of headroom buys layers 0 and 2; the solver works in units
        # of gcd(40, 80, 120) = 40 bits, so it fills 4 rows of 160 // 40 + 1 cells
        scores = [0.9, 0.1, 0.5]
        sizes4 = [40, 80, 120]
        sizes8 = [80, 160, 240]
        res = planner.solve_bitplan(scores, sizes4, sizes8, limit_bits=400)
        assert res.weight_bits == [8, 4, 8]
        assert res.objective == pytest.approx(11.6, rel=1e-12)
        assert res.achieved_size_bits == 400
        assert res.limit_bits == 400
        assert res.solver_cells == 4 * 5

    def test_objective_matches_public_helper(self):
        scores = [0.9, 0.1, 0.5]
        res = planner.solve_bitplan(scores, [40, 80, 120], [80, 160, 240], 400)
        assert res.objective == planner.plan_objective(scores, res.weight_bits)

    def test_negative_scores_never_upgraded(self):
        scores = [0.5, 0.0, -0.3]
        sizes4 = [8, 8, 8]
        sizes8 = [16, 16, 16]
        res = planner.solve_bitplan(scores, sizes4, sizes8, limit_bits=48)
        # slack budget: positive and zero-gain upgrades happen, negative never
        assert res.weight_bits == [8, 8, 4]

    def test_tiny_negative_score_never_upgraded(self):
        # 4 * -1e-17 vanishes against a gain of 4.0, so upgrading layer 0 ties
        # on the objective; the layer is skipped, not upgraded on the tie
        res = planner.solve_bitplan([-1e-17, 1.0], [8, 8], [16, 16], 32)
        assert res.weight_bits == [4, 8]

    def test_zero_cost_upgrade_taken(self):
        # a single-element layer costs 4 bits to upgrade, which the 4 bits of
        # headroom above the 44-bit floor buy
        res = planner.solve_bitplan([0.2, 0.4], [4, 40], [8, 80], limit_bits=48)
        assert res.weight_bits == [8, 4]

    def test_odd_weight_counts_plan_at_the_floor(self):
        # 15 and 16 weights: the all-4-bit floor is 124 bits, which no whole
        # number of bytes per layer reaches
        res = planner.solve_bitplan([0.1, 0.2], [60, 64], [120, 128], 124)
        assert res.weight_bits == [4, 4]
        assert res.achieved_size_bits == 124

    def test_floor_infeasible(self):
        with pytest.raises(InfeasiblePlanError):
            planner.solve_bitplan([1.0, 1.0], [8, 8], [16, 16], limit_bits=8)

    def test_size_dominance_validation(self):
        with pytest.raises(ConfigError):
            planner.solve_bitplan([1.0], [16], [8], limit_bits=16)
        with pytest.raises(ConfigError):
            planner.solve_bitplan([], [], [], limit_bits=0)

    def test_non_finite_scores_rejected(self):
        # a NaN gain would break the saturated top's running sum; no plan is
        # meaningful for it
        for bad in (np.nan, np.inf, -np.inf):
            for scores in ([bad, 1.0], [1.0, bad]):
                with pytest.raises(ConfigError, match="finite"):
                    planner.solve_bitplan(scores, [8, 8], [16, 16], 24)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(50):
            n = int(rng.integers(1, 11))
            elems = rng.integers(1, 40, size=n)
            # eighths keep every objective sum exact in float64, so solver
            # and enumeration agree on ties bit for bit
            scores = rng.integers(-8, 9, size=n) / 8.0
            sizes4 = [int(e) * 4 for e in elems]
            sizes8 = [int(e) * 8 for e in elems]
            limit = int(round(sum(sizes4) + rng.uniform() * (sum(sizes8) - sum(sizes4))))
            want = _brute_force(scores, sizes4, sizes8, limit)
            if want is None:
                with pytest.raises(InfeasiblePlanError):
                    planner.solve_bitplan(scores, sizes4, sizes8, limit)
                continue
            res = planner.solve_bitplan(scores, sizes4, sizes8, limit)
            assert res.weight_bits == want[1]
            assert res.objective == want[0][0]
            assert planner.feasible(sizes4, sizes8, res.weight_bits, limit)
            solved += 1
        assert solved >= 30  # the sweep must mostly exercise the solver

    @pytest.mark.parametrize("gcd", [1, 2, 3, 8, 32])
    def test_matches_full_table_reference(self, gcd):
        _check_against_full_table(gcd)

    @pytest.mark.parametrize("gcd", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("row_block", [1, 3, 8])
    def test_blocked_row_matches_full_table_reference(self, monkeypatch, row_block, gcd):
        # blocks smaller than, equal to and larger than a layer's cost, whose
        # source cells overlap them; the stock block holds every instance above
        monkeypatch.setattr(planner, "_ROW_BLOCK", row_block)
        _check_against_full_table(gcd)

    @pytest.mark.parametrize("scores, sizes4, sizes8, limits",
                             [pytest.param(*case, id=name) for name, case in _EDGE_INSTANCES.items()])
    def test_edge_instances_match_full_table_reference(self, monkeypatch, scores, sizes4, sizes8, limits):
        for row_block in (1, 3, planner._ROW_BLOCK):
            monkeypatch.setattr(planner, "_ROW_BLOCK", row_block)
            for limit in limits:
                got = planner.solve_bitplan(scores, sizes4, sizes8, limit)
                assert (got.weight_bits, got.objective, got.achieved_size_bits) == \
                    _full_table_plan(scores, sizes4, sizes8, limit)

    @pytest.mark.parametrize("extra, unit_bits, peak_mb, positive", [
        pytest.param(0, 256, 50, False, id="False-50"),
        pytest.param(2, 8, 300, False, id="True-300"),
        pytest.param(1, 4, 220, False, id="9409-220"),
        pytest.param(1, 4, 150, False, id="9409-150"),
        pytest.param(1, 4, 150, True, id="9409-positive-150"),
    ])
    def test_resnet50_memory(self, extra, unit_bits, peak_mb, positive):
        # every ResNet-50 upgrade cost is a multiple of 256 bits (32 bytes), so
        # the solver keeps budget // 256 + 1 floats per row, budget in bits; two
        # more weights in one layer give it an odd cost in bytes (gcd 8 bits),
        # one more an odd weight count (gcd 4 bits, 701 M cells), and the row
        # then spans every byte or half-byte of budget. With the scores'
        # absolute values no layer is skipped and every layer keeps take bits.
        counts = _resnet50_weights()
        counts[0] += extra
        n = len(counts)
        scores = np.random.default_rng(0).standard_normal(n)
        if positive:
            scores = np.abs(scores)
        sizes4 = [4 * c for c in counts]
        sizes8 = [8 * c for c in counts]
        limit = planner.resolve_limit(planner.PlannerConfig(ratio=0.5), sizes4, sizes8)
        tracemalloc.start()
        try:
            res = planner.solve_bitplan(scores, sizes4, sizes8, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < peak_mb * 10**6
        assert res.solver_cells == (n + 1) * ((limit - sum(sizes4)) // unit_bits + 1)
        assert planner.feasible(sizes4, sizes8, res.weight_bits, limit)

    def test_objective_monotone_in_limit(self):
        rng = np.random.default_rng(8)
        elems = rng.integers(2, 30, size=8) * 2
        scores = rng.integers(-8, 9, size=8) / 8.0
        sizes4 = [int(e) * 4 for e in elems]
        sizes8 = [int(e) * 8 for e in elems]
        prev = None
        for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
            limit = int(round(sum(sizes4) + ratio * (sum(sizes8) - sum(sizes4))))
            obj = planner.solve_bitplan(scores, sizes4, sizes8, limit).objective
            if prev is not None:
                assert obj >= prev
            prev = obj

    def test_selection_invariant_to_shift_and_scale_at_equal_cost(self):
        # with equal upgrade costs the knapsack picks the top-k scores, so any
        # order-preserving transform (positive shift of all-positive scores,
        # positive scaling) leaves the chosen plan unchanged
        rng = np.random.default_rng(9)
        scores = (rng.integers(1, 16, size=6) / 8.0).tolist()
        sizes4 = [40] * 6
        sizes8 = [80] * 6
        limit = 6 * 40 + 3 * 40  # room for exactly three upgrades
        base = planner.solve_bitplan(scores, sizes4, sizes8, limit).weight_bits
        shifted = planner.solve_bitplan([s + 4.0 for s in scores], sizes4, sizes8, limit)
        scaled = planner.solve_bitplan([s * 2.0 for s in scores], sizes4, sizes8, limit)
        assert shifted.weight_bits == base
        assert scaled.weight_bits == base
        assert base.count(8) == 3


class TestPlannerConfig:
    def test_exactly_one_budget_form(self):
        with pytest.raises(ConfigError):
            planner.PlannerConfig(ratio=0.5, limit_bits=1000)
        assert planner.PlannerConfig(ratio=None, limit_bits=None).ratio == 0.5

    def test_unset_fields_follow_the_config_file_rules(self):
        cfg = planner.PlannerConfig(beta=0.3)
        assert (cfg.gamma, cfg.ratio, cfg.activation_bits) == (pytest.approx(0.7), 0.5, "plan")
        cfg = planner.PlannerConfig(limit_bits=1000)
        assert (cfg.ratio, cfg.limit_bits) == (None, 1000)
        assert planner.PlannerConfig(activation_bits="8").activation_bits == "8"
        for bad in ("4", 8):
            with pytest.raises(ConfigError, match="activation_bits"):
                planner.PlannerConfig(activation_bits=bad)

    def test_blend_validation(self):
        with pytest.raises(ConfigError):
            planner.PlannerConfig(beta=0.7, gamma=0.5)
        with pytest.raises(ConfigError):
            planner.PlannerConfig(beta=-0.5, gamma=1.5)
        with pytest.raises(ConfigError):
            planner.PlannerConfig(ratio=2.5)

    def test_resolve_limit(self):
        sizes4 = [100, 140]  # sum 240
        sizes8 = [200, 280]  # sum 480
        assert planner.resolve_limit(planner.PlannerConfig(ratio=0.5), sizes4, sizes8) == 360
        assert planner.resolve_limit(planner.PlannerConfig(ratio=0.3), sizes4, sizes8) == 312
        assert planner.resolve_limit(planner.PlannerConfig(ratio=0.0), sizes4, sizes8) == 240
        cfg = planner.PlannerConfig(ratio=None, limit_bits=300)
        assert planner.resolve_limit(cfg, sizes4, sizes8) == 300
        with pytest.raises(ConfigError):
            planner.resolve_limit(
                planner.PlannerConfig(ratio=None, limit_bits=100), sizes4, sizes8)
        with pytest.raises(ConfigError):
            planner.resolve_limit(
                planner.PlannerConfig(ratio=None, limit_bits=500), sizes4, sizes8)


def _flat_profile(omega_len, elems=None, cycles=None, energy=None):
    """Hand-built profile: one 8-bit row per layer with chosen costs."""
    elems = elems or [10] * omega_len
    cycles = cycles or [100] * omega_len
    energy = energy or [50.0] * omega_len
    rows = []
    for i in range(omega_len):
        cost = hwsim.LayerCost(compute=int(cycles[i]), transfer=0, write_back=0,
                               post_process=0, energy=float(energy[i]), tile=8,
                               dims=(1, 1, 1))
        rows.append(hwsim.ProfileRow(layer_index=i, kind="conv2d", bits=8,
                                     weight_elems=int(elems[i]), cost=cost))
    return hwsim.HwProfile(
        config=hwsim.HwConfig(),
        bram=hwsim.BramAllocation(32, 32, 64, 32),
        candidates=(8,),
        rows=rows,
    )


def _report(omega):
    return sens.SensitivityReport(
        omega=np.asarray(omega, dtype=np.float64),
        batch_size=4, alpha=0.5, seed=0, method="mqe", bits=8)


class TestPlanPipeline:
    def test_pure_sensitivity_reduces_to_greedy_at_equal_cost(self):
        prof = _flat_profile(4)  # equal upgrade costs and constant c/e columns
        cfg = planner.PlannerConfig(beta=1.0, gamma=0.0, ratio=0.5)
        res = planner.plan_pipeline(_report([0.9, 0.2, 0.5, 0.1]), prof, cfg)
        # budget covers two upgrades; greedy takes the two largest scores
        assert res.weight_bits == [8, 4, 8, 4]

    def test_pure_cost_prefers_cheap_layers(self):
        prof = _flat_profile(3, cycles=[300, 100, 200], energy=[3.0, 1.0, 2.0])
        cfg = planner.PlannerConfig(beta=0.0, gamma=1.0, ratio=0.5)
        res = planner.plan_pipeline(_report([0.0, 0.0, 0.0]), prof, cfg)
        # scores are -(c+e)/2 normalized: only the cheapest layer reaches 0,
        # the zero-gain upgrade that the tie rule takes
        assert res.weight_bits == [4, 8, 4]

    def test_ratio_extremes_on_bundled_model(self):
        net = zoo.tiny_cnn(0)
        batch = np.random.default_rng(1).standard_normal((8, 2, 8, 8), dtype=np.float32)
        report = sens.mqe_sensitivity(net, batch, alpha=0.5)
        prof = hwsim.profile_model(net, (4, 8))

        all4 = planner.plan_pipeline(report, prof, planner.PlannerConfig(ratio=0.0))
        assert all4.weight_bits == [4, 4, 4]

        all8 = planner.plan_pipeline(report, prof, planner.PlannerConfig(beta=1.0, gamma=0.0, ratio=1.0))
        # beta=1 makes every score non-negative, so full budget upgrades all
        assert all8.weight_bits == [8, 8, 8]

    def test_brute_force_on_bundled_model(self):
        net = zoo.tiny_cnn(0)
        batch = np.random.default_rng(2).standard_normal((8, 2, 8, 8), dtype=np.float32)
        report = sens.mqe_sensitivity(net, batch, alpha=0.5)
        prof = hwsim.profile_model(net, (4, 8))
        cfg = planner.PlannerConfig(ratio=0.5)
        res = planner.plan_pipeline(report, prof, cfg)

        scores = planner.omega(
            planner.normalize(report.omega),
            planner.normalize(prof.vector(8, "total_cycles")),
            planner.normalize(prof.vector(8, "energy")),
            cfg.beta, cfg.gamma)
        elems = prof.weight_elems()
        sizes4 = [e * 4 for e in elems]
        sizes8 = [e * 8 for e in elems]
        limit = planner.resolve_limit(cfg, sizes4, sizes8)
        want = _brute_force(scores, sizes4, sizes8, limit)
        assert res.weight_bits == want[1]
        assert res.achieved_size_bits <= limit

    def test_size_accounting_matches_quantizer(self):
        net = zoo.toy_cnn(0)
        prof = hwsim.profile_model(net, (4, 8))
        elems = prof.weight_elems()
        sizes4 = [e * 4 for e in elems]
        sizes8 = [e * 8 for e in elems]
        for plan in ([4, 4, 4, 4, 4], [8, 8, 8, 8, 8], [4, 8, 4, 8, 4]):
            size = quant.model_size(net, quant.BitConfig(plan, [8] * 5))
            limit = size.weight_bits
            assert planner.feasible(sizes4, sizes8, plan, limit)
            assert sum(s8 if b == 8 else s4
                       for b, s4, s8 in zip(plan, sizes4, sizes8)) == size.weight_bits

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            planner.plan_pipeline(_report([1.0, 2.0]), _flat_profile(3))


class TestPlanResult:
    def test_round_trip_json_ready(self):
        res = planner.solve_bitplan([0.9, 0.1], [40, 80], [80, 160], 240)
        back = json.loads(json.dumps(dataclasses.asdict(res)))
        assert back == dataclasses.asdict(res)
        assert back["weight_bits"] == res.weight_bits
        assert back["objective"] == res.objective
        assert back["achieved_size_bits"] == res.achieved_size_bits
        assert back["solver_cells"] == res.solver_cells
