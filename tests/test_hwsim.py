import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

from mixbit import hwsim, model as m, zoo
from mixbit.errors import ConfigError, InfeasibleHardwareError, UnsupportedLayerError


class TestHwConfig:
    def test_defaults_valid(self):
        cfg = hwsim.HwConfig()
        assert (cfg.bram_total, cfg.lanes, cfg.transfer_bandwidth) == (140, 128, 8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            hwsim.HwConfig(lanes=100)  # not a power of 2
        with pytest.raises(ConfigError):
            hwsim.HwConfig(bram_total=0)
        with pytest.raises(ConfigError):
            hwsim.HwConfig(static_power=-1.0)
        with pytest.raises(ConfigError):
            hwsim.HwConfig(coe_w=0)


class TestBramAllocate:
    def test_default_device(self):
        alloc = hwsim.bram_allocate(hwsim.HwConfig())
        assert alloc.l_max == 32
        assert (alloc.weight_blocks, alloc.feature_blocks, alloc.output_blocks) == (32, 32, 64)
        used = alloc.weight_blocks + alloc.feature_blocks + alloc.output_blocks
        assert used <= 140
        # one more doubling would not fit
        assert 2 * used > 140

    def test_tight_device(self):
        alloc = hwsim.bram_allocate(hwsim.HwConfig(bram_total=24, coe_o=1))
        assert alloc.l_max == 8
        assert (alloc.weight_blocks, alloc.feature_blocks, alloc.output_blocks) == (8, 8, 8)

    def test_infeasible_device(self):
        with pytest.raises(InfeasibleHardwareError):
            hwsim.bram_allocate(hwsim.HwConfig(coe_w=10, coe_f=10, coe_o=10))


class TestMinTileSide:
    @pytest.mark.parametrize("l_max,want", [(128, 16), (64, 8), (32, 8), (16, 4), (1, 1)])
    def test_values(self, l_max, want):
        assert hwsim.min_tile_side(l_max) == want
        assert want * want >= l_max
        assert (want // 2) ** 2 < l_max or want == 1


class TestTileSide:
    @pytest.mark.parametrize("side,want", [
        (64, 64),    # power of 2 in range maps to itself
        (100, 128),  # above the geometric midpoint of (64, 128)
        (80, 64),    # below it
        (10, 16),    # under the floor rounds up
        (200, 128),  # over the cap with remainder 72 > 64
        (140, 64),   # over the cap with remainder 12 <= 64
    ])
    def test_reference_fixtures(self, side, want):
        assert hwsim.tile_side(side, 128, 16) == want

    def test_midpoint_rounds_down(self):
        assert hwsim.tile_side(96, 128, 16) == 64
        assert hwsim.tile_side(48, 128, 16) == 32

    def test_result_always_in_range(self):
        for side in range(1, 400):
            t = hwsim.tile_side(side, 32, 8)
            assert 8 <= t <= 32
            assert t & (t - 1) == 0

    def test_bounds_validation(self):
        with pytest.raises(ConfigError):
            hwsim.tile_side(10, 100, 8)  # l_max not a power of 2
        with pytest.raises(ConfigError):
            hwsim.tile_side(10, 128, 8)  # 8^2 < 128
        with pytest.raises(ConfigError):
            hwsim.tile_side(0, 32, 8)


class TestTransferVolume:
    def test_hand_value(self):
        assert hwsim.transfer_volume(8, 4) == 384  # 3 * 8^3 / 4

    def test_single_tile_is_three_squares(self):
        for L in (4, 16, 32):
            assert hwsim.transfer_volume(L, L) == 3 * L * L

    def test_closed_form_for_all_divisors(self):
        for L in (8, 24, 64):
            for M in range(1, L + 1):
                if L % M:
                    continue
                assert hwsim.transfer_volume(L, M) == 3 * L ** 3 // M

    def test_rejects_nondivisor(self):
        with pytest.raises(ConfigError):
            hwsim.transfer_volume(10, 4)

    def test_blocked_form_matches_on_squares(self):
        for L in (8, 16, 64):
            for M in (1, 2, 4, 8):
                if L % M:
                    continue
                assert hwsim.blocked_transfer_elements(L, L, L, M) == hwsim.transfer_volume(L, M)

    def test_blocked_form_rectangular(self):
        # grid 1 x 2 x 4 tiles of 16^2 elements, three moves per tile product
        assert hwsim.blocked_transfer_elements(16, 27, 64, 16) == 3 * 256 * 8


class TestMatmulCycles:
    def test_hand_fixture(self):
        cfg = hwsim.HwConfig()
        # grid 2; per tile pair 32*32 tree feeds + depth 5 + init 4
        assert hwsim.matmul_cycles(16, 27, 64, 32, cfg) == 2 * (1024 + 5 + 4)

    def test_smallest_case(self):
        assert hwsim.matmul_cycles(1, 1, 1, 1, hwsim.HwConfig()) == 1 + 0 + 4

    def test_scripted_formula(self):
        cfg = hwsim.HwConfig()
        rng = np.random.default_rng(1)
        for _ in range(50):
            rows, inner, cols = rng.integers(1, 200, size=3)
            tile = int(2 ** rng.integers(0, 6))
            lanes = int(2 ** rng.integers(0, 9))
            grid = math.ceil(rows / tile) * math.ceil(inner / tile) * math.ceil(cols / tile)
            depth = (min(tile, lanes) - 1).bit_length()
            want = grid * (tile * tile * math.ceil(tile / lanes) + depth + cfg.mac_init_latency)
            got = hwsim.matmul_cycles(int(rows), int(inner), int(cols), tile, cfg, lanes=lanes)
            assert got == want

    def test_more_lanes_never_slower(self):
        cfg = hwsim.HwConfig()
        prev = None
        for lanes in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            c = hwsim.matmul_cycles(64, 64, 64, 16, cfg, lanes=lanes)
            if prev is not None:
                assert c <= prev
            prev = c

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            hwsim.matmul_cycles(0, 4, 4, 2, hwsim.HwConfig())


class TestEffectiveLanes:
    def test_packing(self):
        cfg = hwsim.HwConfig()  # 128 physical lanes
        assert hwsim.effective_lanes(cfg, 4, 4) == 256
        assert hwsim.effective_lanes(cfg, 8, 8) == 128
        assert hwsim.effective_lanes(cfg, 4, 8) == 128   # widest operand rules
        assert hwsim.effective_lanes(cfg, 32, 32) == 32

    def test_floor_of_one(self):
        assert hwsim.effective_lanes(hwsim.HwConfig(lanes=2), 32, 32) == 1


class TestLayerCost:
    def test_conv_fixture_full_decomposition(self):
        # toy pipeline's first conv: dims (8, 27, 64), tile 8, grid 1*4*8=32
        net = zoo.toy_cnn(0)
        cost = hwsim.layer_cost(net.layers[0], (3, 8, 8), (8, 8, 8), 4, 8, hwsim.HwConfig())
        assert cost.dims == (8, 27, 64)
        assert cost.tile == 8
        assert cost.compute == 32 * (64 + 3 + 4)
        assert cost.transfer == 384    # 32 * (32 + 64) bytes over 8 bytes/cycle
        assert cost.write_back == 256  # 32 * 64 bytes over 8 bytes/cycle
        assert cost.post_process == 512
        assert cost.total_cycles == 2272 + 384 + 256 + 512
        # 8 lanes carry the 8-element rows: (1.0 + 0.05 * 8) per cycle
        assert cost.energy == pytest.approx(1.4 * cost.total_cycles)

    def test_narrow_weights_cut_transfer_only_here(self):
        net = zoo.toy_cnn(0)
        cfg = hwsim.HwConfig()
        c4 = hwsim.layer_cost(net.layers[0], (3, 8, 8), (8, 8, 8), 4, 8, cfg)
        c8 = hwsim.layer_cost(net.layers[0], (3, 8, 8), (8, 8, 8), 8, 8, cfg)
        assert c4.transfer < c8.transfer
        assert c4.compute <= c8.compute
        assert c4.write_back == c8.write_back
        assert c4.post_process == c8.post_process

    def test_double_bandwidth_halves_transfer(self):
        net = zoo.toy_cnn(0)
        slow = hwsim.layer_cost(net.layers[0], (3, 8, 8), (8, 8, 8), 8, 8, hwsim.HwConfig())
        fast = hwsim.layer_cost(net.layers[0], (3, 8, 8), (8, 8, 8), 8, 8,
                                hwsim.HwConfig(transfer_bandwidth=16))
        assert fast.transfer == -(-slow.transfer // 2)
        assert fast.write_back == -(-slow.write_back // 2)
        assert fast.compute == slow.compute

    def test_linear_single_column(self):
        lin = m.Linear(64, 10, weight=np.zeros((10, 64), dtype=np.float32))
        cost = hwsim.layer_cost(lin, (4, 4, 4), (10,), 8, 8, hwsim.HwConfig())
        assert cost.dims == (10, 64, 1)
        assert cost.tile == 8
        # grid ceil(10/8) * ceil(64/8) * 1 = 16
        assert cost.compute == 16 * (64 + 3 + 4)

    def test_unweighted_layer_raises(self):
        # a weighted layer's post_process already covers its BatchNorm and ReLU
        with pytest.raises(UnsupportedLayerError):
            hwsim.layer_cost(m.ReLU(), (8, 8, 8), (8, 8, 8), 8, 8, hwsim.HwConfig())

    def test_transfer_priced_by_blocked_formula(self):
        spy = mock.patch.object(hwsim, "blocked_transfer_elements", wraps=hwsim.blocked_transfer_elements)
        with spy as blocked:
            prof = hwsim.profile_model(zoo.toy_cnn(0), (4, 8, 32))
        assert blocked.call_count == len(prof.rows)


class TestProfile:
    def test_every_config_field_changes_the_profile(self):
        # a knob the cost model does not read would leave rows and bram alike
        changed = {"bram_total": 70, "lanes": 8, "transfer_bandwidth": 4, "mac_init_latency": 2,
                   "post_process_cycles_per_element": 2, "static_power": 0.5,
                   "active_power_per_lane": 0.1, "coe_w": 2, "coe_f": 2, "coe_o": 1}
        assert set(changed) == {f.name for f in dataclasses.fields(hwsim.HwConfig)}
        net = zoo.toy_cnn(0)
        base = hwsim.profile_model(net, (4, 8, 32), hwsim.HwConfig())
        for name, value in changed.items():
            prof = hwsim.profile_model(net, (4, 8, 32), hwsim.HwConfig(**{name: value}))
            assert (prof.rows, prof.bram) != (base.rows, base.bram), name

    def test_row_count_and_layers(self):
        net = zoo.toy_cnn(0)
        prof = hwsim.profile_model(net, (4, 8, 32))
        assert len(prof.rows) == 5 * 3
        assert prof.layer_indices() == m.weighted_layers(net)
        assert prof.weight_elems() == [216, 576, 1152, 2048, 320]
        for row in prof.rows:
            assert row.cost.total_cycles > 0
            assert row.cost.energy > 0

    def test_cost_lookup(self):
        net = zoo.tiny_cnn(0)
        prof = hwsim.profile_model(net, (4, 8))
        assert prof.cost(0, 4).transfer < prof.cost(0, 8).transfer
        with pytest.raises(KeyError):
            prof.cost(0, 32)
        with pytest.raises(ConfigError):
            hwsim.profile_model(net, (4, 16))

    def test_vector_columns(self):
        net = zoo.tiny_cnn(0)
        prof = hwsim.profile_model(net, (4, 8))
        cycles = prof.vector(8, "total_cycles")
        energy = prof.vector(8, "energy")
        assert cycles.shape == energy.shape == (3,)
        assert (cycles > 0).all() and (energy > 0).all()

    def test_json_round_trip_lossless(self, tmp_path):
        net = zoo.tiny_cnn(0)
        prof = hwsim.profile_model(net, (4, 8, 32))
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(prof.to_dict()))
        back = hwsim.HwProfile.load_json(path)
        assert back.to_dict() == prof.to_dict()
        for a, b in zip(back.rows, prof.rows):
            assert a.cost.energy == b.cost.energy  # float preserved exactly

    def test_rejects_repeated_rows(self):
        doc = hwsim.profile_model(zoo.tiny_cnn(0), (4, 8)).to_dict()
        doc["rows"].append(doc["rows"][0])
        with pytest.raises(ConfigError, match="repeat"):
            hwsim.HwProfile.from_dict(doc)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["rows"].pop(),
        lambda doc: doc["candidates"].append(32),
        lambda doc: doc["candidates"].remove(8),
        lambda doc: doc["rows"][0].update(bits=32),
    ], ids=["missing_row", "extra_candidate", "missing_candidate", "row_off_candidates"])
    def test_rejects_rows_other_than_layers_times_candidates(self, edit):
        doc = hwsim.profile_model(zoo.tiny_cnn(0), (4, 8)).to_dict()
        edit(doc)
        with pytest.raises(ConfigError, match="every layer at each of the candidates"):
            hwsim.HwProfile.from_dict(doc)

    def test_rejects_foreign_document(self):
        with pytest.raises(ConfigError):
            hwsim.HwProfile.from_dict({"format": "something-else", "rows": []})

    def test_csv_export(self, tmp_path):
        net = zoo.tiny_cnn(0)
        prof = hwsim.profile_model(net, (4, 8))
        path = tmp_path / "profile.csv"
        prof.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(prof.rows)
        assert lines[0].startswith("layer_index,kind,bits")
        # energy column reparses to the exact float
        first = lines[1].split(",")
        assert float(first[-1]) == prof.rows[0].cost.energy

    def test_weight_count_and_cost_can_invert(self):
        # the 16-weight conv sweeps a 64x64 map and outruns the 2560-weight head
        net = zoo.decorrelation_net(0)
        prof = hwsim.profile_model(net, (8,))
        conv_idx, lin_idx = prof.layer_indices()
        elems = dict(zip(prof.layer_indices(), prof.weight_elems()))
        assert elems[conv_idx] < elems[lin_idx]
        assert prof.cost(conv_idx, 8).total_cycles > prof.cost(lin_idx, 8).total_cycles


class TestUnsupported:
    def test_no_matmul_form(self):
        with pytest.raises(UnsupportedLayerError):
            hwsim._matmul_dims(m.ReLU(), (1, 2, 2))
