"""Parametric accelerator cost model for blocked matrix multiplication.

Every weighted layer is costed as a tiled matmul: conv layers through their
unfolded (kernel matrix) x (feature matrix) form, linear layers as matmuls
with a single output column. On-chip buffer capacity fixes the largest tile
side; each matrix side is then snapped to a power-of-2 tile length, and the
per-layer cost splits into four pipeline steps: compute on a multiply-add
tree, input transfer, result write-back, and elementwise post-processing
(batch norm, activation, requantization). 4-bit operands pack two per 8-bit
lane slot, so narrow layers see twice the effective lane count.

Units: cycles for time, bytes for traffic, dimensionless energy units for
power. Costs are per single-sample inference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import model as m
from . import quant
from .errors import ConfigError, InfeasibleHardwareError, RangeError, UnsupportedLayerError, build

PROFILE_FORMAT = "mixbit-profile"

# Smallest tile side the buffer-sizing loop will consider.
_MIN_ALLOC_SIDE = 8


@dataclass(frozen=True)
class HwConfig:
    """Accelerator parameters. Defaults describe a small 140-block device."""

    bram_total: int = 140            # on-chip memory blocks available
    lanes: int = 128                 # multiply lanes feeding one adder tree
    transfer_bandwidth: int = 8      # bytes moved per cycle
    mac_init_latency: int = 4        # cycles to prime the tree pipeline
    post_process_cycles_per_element: int = 1
    static_power: float = 1.0        # energy units per cycle, always on
    active_power_per_lane: float = 0.05
    coe_w: int = 1                   # blocks per unit tile side: weights
    coe_f: int = 1                   # blocks per unit tile side: features
    coe_o: int = 2                   # blocks per unit tile side: outputs

    def __post_init__(self):
        for name in ("bram_total", "lanes", "transfer_bandwidth", "mac_init_latency",
                     "post_process_cycles_per_element", "coe_w", "coe_f", "coe_o"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise RangeError("{at}{} must be a positive integer, got {!r}", name, v)
        if self.lanes & (self.lanes - 1):
            raise RangeError("{at}lanes must be a power of 2, got {}", self.lanes)
        for name in ("static_power", "active_power_per_lane"):
            v = getattr(self, name)
            if not 0 <= v < math.inf:
                raise RangeError("{at}{} must be finite and non-negative, got {}", name, v)


@dataclass(frozen=True)
class BramAllocation:
    """Block split between weight, feature, and output buffers."""

    weight_blocks: int
    feature_blocks: int
    output_blocks: int
    l_max: int


def bram_allocate(config: HwConfig) -> BramAllocation:
    """Size the three on-chip buffers by doubling the tile side until full.

    Starting at side 8, each buffer takes side * coe blocks; the side doubles
    while the three buffers fit in bram_total, then backs off one doubling.
    Raises InfeasibleHardwareError when even side 8 does not fit.
    """
    side = _MIN_ALLOC_SIDE
    while True:
        need = side * (config.coe_w + config.coe_f + config.coe_o)
        if need <= config.bram_total:
            side *= 2
        else:
            break
    side //= 2
    if side < _MIN_ALLOC_SIDE:
        raise InfeasibleHardwareError(
            f"buffers for the smallest tile side ({_MIN_ALLOC_SIDE}) need "
            f"{_MIN_ALLOC_SIDE * (config.coe_w + config.coe_f + config.coe_o)} blocks, "
            f"only {config.bram_total} available"
        )
    return BramAllocation(
        weight_blocks=side * config.coe_w,
        feature_blocks=side * config.coe_f,
        output_blocks=side * config.coe_o,
        l_max=side,
    )


def min_tile_side(l_max: int) -> int:
    """Smallest power of 2 whose square reaches l_max (floor of the tile range)."""
    side = 1
    while side * side < l_max:
        side *= 2
    return side


def _check_tile_bounds(l_max: int, l_min: int) -> None:
    if l_max < 1 or l_max & (l_max - 1):
        raise ConfigError(f"l_max must be a power of 2, got {l_max}")
    if l_min < 1 or l_min & (l_min - 1):
        raise ConfigError(f"l_min must be a power of 2, got {l_min}")
    if not l_min <= l_max:
        raise ConfigError(f"l_min {l_min} exceeds l_max {l_max}")
    if l_min * l_min < l_max:
        raise ConfigError(f"l_min {l_min} too small for l_max {l_max}: need l_min^2 >= l_max")


def tile_side(side: int, l_max: int, l_min: int) -> int:
    """Snap one matrix side to its tile length.

    Sides above l_max tile at l_max or l_max/2 depending on the remainder;
    sides below l_min round up to l_min; powers of 2 in range map to
    themselves; everything else rounds to the nearer power of 2 (midpoint
    between neighbors rounds down), capped at l_max. The result always lies
    in [l_min, l_max].
    """
    if side < 1:
        raise ConfigError(f"matrix side must be positive, got {side}")
    _check_tile_bounds(l_max, l_min)
    if side > l_max:
        r = side % l_max
        return l_max if r > l_max // 2 else l_max // 2
    if side < l_min:
        return l_min
    if side & (side - 1) == 0:
        return side
    n = int(math.floor(math.log2(side)))
    threshold = (2 ** n + 2 ** (n + 1)) / 2
    t = 2 ** (n + 1) if side > threshold else 2 ** n
    return min(t, l_max)


def transfer_volume(side: int, tile: int) -> int:
    """Elements moved for a blocked square matmul of side L with M x M tiles.

    Each of the (L/M)^3 tile-level products moves two M^2 input tiles in and
    one M^2 result tile out, giving 3 M^2 (L/M)^3 = 3 L^3 / M elements.
    Requires tile | side.
    """
    if side % tile:
        raise ConfigError(f"tile {tile} must divide matrix side {side}")
    n = side // tile
    return 3 * tile * tile * n ** 3


def _tile_products(rows: int, inner: int, cols: int, tile: int) -> int:
    return _ceil_div(rows, tile) * _ceil_div(inner, tile) * _ceil_div(cols, tile)


def blocked_transfer_elements(rows: int, inner: int, cols: int, tile: int) -> int:
    """Transfer accounting of the cost model: 3 T^2 elements per tile product."""
    return 3 * tile * tile * _tile_products(rows, inner, cols, tile)


def _tree_latency(k_tile: int, lanes: int, config: HwConfig) -> int:
    depth = (min(k_tile, lanes) - 1).bit_length()
    return depth + config.mac_init_latency


def matmul_cycles(rows: int, inner: int, cols: int, tile: int, config: HwConfig, lanes: int) -> int:
    """Compute cycles for a (rows x inner) @ (inner x cols) tiled matmul.

    Every T x T output tile needs T^2 dot products over a length-T slice;
    each dot product feeds the adder tree ceil(T / lanes) times, and the
    pipeline drains once per tile pair (tree depth plus init latency).
    """
    if min(rows, inner, cols, tile) < 1:
        raise ConfigError("matrix dimensions and tile must be positive")
    per_pair = tile * tile * _ceil_div(tile, lanes) + _tree_latency(tile, lanes, config)
    return _tile_products(rows, inner, cols, tile) * per_pair


def effective_lanes(config: HwConfig, weight_bits: int, act_bits: int) -> int:
    """Lane count after operand packing; the wider operand sets the slot size."""
    slot = max(weight_bits, act_bits)
    return max(1, config.lanes * 8 // slot)


@dataclass(frozen=True)
class LayerCost:
    """Four-step cycle decomposition plus energy for one layer at one bit pair."""

    compute: int
    transfer: int
    write_back: int
    post_process: int
    energy: float
    tile: int
    dims: list[int]  # [rows, inner, cols] of the costed matmul

    @property
    def total_cycles(self) -> int:
        return self.compute + self.transfer + self.write_back + self.post_process


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _matmul_dims(layer, in_shape: tuple) -> tuple:
    if isinstance(layer, m.Conv2d):
        oh, ow = m._conv_out_hw(in_shape[1], in_shape[2], layer)
        return (layer.out_channels, layer.in_channels * layer.kernel_h * layer.kernel_w, oh * ow)
    if isinstance(layer, m.Linear):
        return (layer.out_features, layer.in_features, 1)
    raise UnsupportedLayerError(f"{type(layer).__name__} has no matmul form")


def layer_cost(layer, in_shape: tuple, out_shape: tuple, weight_bits: int, act_bits: int,
               config: HwConfig, l_max: int) -> LayerCost:
    """Cost one weighted (conv or linear) layer at the given weight/activation bit-widths.

    The layer runs as a tiled matmul whose tile side comes from the smallest
    edge of the unfolded matrices, snapped by the tile-side rule within
    [min_tile_side(l_max), l_max], l_max being the buffer-sizing result
    (bram_allocate) for `config`. Transfer and write-back move the elements that
    blocked_transfer_elements counts, one third per operand stream: weight
    and feature tiles in, result tiles out. post_process covers the layer's
    BatchNorm, activation and requantization, one pass per output element.
    Any other layer raises UnsupportedLayerError.
    """
    rows, inner, cols = _matmul_dims(layer, in_shape)
    tile = tile_side(min(rows, inner, cols), l_max, min_tile_side(l_max))

    lanes = effective_lanes(config, weight_bits, act_bits)
    compute = matmul_cycles(rows, inner, cols, tile, config, lanes)
    per_stream = blocked_transfer_elements(rows, inner, cols, tile) // 3
    transfer = _ceil_div(per_stream * (weight_bits + act_bits), 8 * config.transfer_bandwidth)
    write_back = _ceil_div(per_stream * act_bits, 8 * config.transfer_bandwidth)
    post = int(np.prod(out_shape)) * config.post_process_cycles_per_element

    total = compute + transfer + write_back + post
    lanes_used = min(config.lanes, max(1, _ceil_div(tile * max(weight_bits, act_bits), 8)))
    energy = (config.static_power + config.active_power_per_lane * lanes_used) * total
    return LayerCost(compute=compute, transfer=transfer, write_back=write_back,
                     post_process=post, energy=energy, tile=tile, dims=[rows, inner, cols])


# ---------------------------------------------------------------------------
# whole-model profile


@dataclass
class ProfileRow:
    layer_index: int
    kind: str
    bits: int
    weight_elems: int
    cost: LayerCost


# profile.csv: a row's fields with its cost's fields and total cycles inlined
_CSV_COLUMNS = ("layer_index", "kind", "bits", "weight_elems", "tile", "compute", "transfer",
                "write_back", "post_process", "total_cycles", "energy")


@dataclass
class HwProfile:
    """Per-weighted-layer, per-bit-width cost table, indexed by (layer_index, bits).

    profile.json is {"format": PROFILE_FORMAT} and the fields, each row with
    its cost nested; total_cycles is derived, so only profile.csv holds it.
    """

    config: HwConfig
    bram: BramAllocation
    candidates: list[int]
    rows: list[ProfileRow]

    def __post_init__(self):
        self._costs = {(r.layer_index, r.bits): r.cost for r in self.rows}
        if len(self._costs) != len(self.rows):
            raise ConfigError("profile rows repeat a (layer_index, bits) pair")
        # layer index -> weight count, in order of first appearance
        self._elems = {r.layer_index: r.weight_elems for r in self.rows}
        if set(self._costs) != {(i, b) for i in self._elems for b in self.candidates}:
            raise ConfigError(f"profile rows must cost every layer at each of the candidates {list(self.candidates)}")

    def cost(self, layer_index: int, bits: int) -> LayerCost:
        try:
            return self._costs[layer_index, bits]
        except KeyError:
            raise KeyError(f"no profile row for layer {layer_index} at {bits} bits") from None

    def layer_indices(self) -> list[int]:
        return list(self._elems)

    def weight_elems(self) -> list[int]:
        return list(self._elems.values())

    def vector(self, bits: int, field: str) -> np.ndarray:
        """Per-layer column at one bit-width; field names a LayerCost attribute."""
        return np.asarray([getattr(self.cost(i, bits), field) for i in self._elems], dtype=np.float64)

    def to_dict(self) -> dict:
        return {"format": PROFILE_FORMAT, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "HwProfile":
        if d.get("format") != PROFILE_FORMAT:
            raise ConfigError("not a profile document")
        profile = build(cls, {k: v for k, v in d.items() if k != "format"})
        try:  # the rows were costed with the buffers config allocates
            allocated = bram_allocate(profile.config)
        except InfeasibleHardwareError as exc:
            raise ConfigError(f"bram: config allocates no buffers ({exc})") from exc
        if profile.bram != allocated:
            raise ConfigError(f"bram: {asdict(profile.bram)} is not what config allocates: {asdict(allocated)}")
        return profile

    @classmethod
    def load_json(cls, path) -> "HwProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, _CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows({**asdict(r), **asdict(r.cost), "total_cycles": r.cost.total_cycles}
                             for r in self.rows)


def profile_model(model: m.ModelGraph, candidates, config: HwConfig = HwConfig()) -> HwProfile:
    """Cost every weighted layer at every candidate bit-width.

    Bit-width 32 rows model the unquantized baseline. The row count is
    |weighted layers| x |candidates|.
    """
    m.validate_model(model)
    candidates = [int(b) for b in candidates]
    for b in candidates:
        if b not in quant.BIT_CHOICES:
            raise ConfigError(f"unsupported profile bit-width {b}")
    bram = bram_allocate(config)
    shapes = m.infer_shapes(model)
    rows = []
    for idx in m.weighted_layers(model):
        layer = model.layers[idx]
        in_shape = tuple(model.input_shape) if idx == 0 else shapes[idx - 1]
        for bits in candidates:
            cost = layer_cost(layer, in_shape, shapes[idx], bits, bits, config, bram.l_max)
            rows.append(ProfileRow(idx, layer.kind, bits, int(layer.weight.size), cost))
    return HwProfile(config=config, bram=bram, candidates=candidates, rows=rows)
