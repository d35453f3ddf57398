"""Bit-width allocation as an exactly solved 0/1 knapsack.

Every weighted layer starts at 4 bits; upgrading layer i to 8 bits pays its
extra weight bits and earns 4 * score_i, where the per-layer score blends
normalized sensitivity against normalized cycle and energy cost. Dynamic
programming over the bit budget maximizes sum(bits_i * score_i) exactly;
ties prefer upgrading lower layer indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePlanError, RangeError
from .hwsim import HwProfile
from .sensitivity import SensitivityReport

BIT_LOW = 4
BIT_HIGH = 8
_ROW_BLOCK = 1 << 15  # cells of the knapsack row updated per step; 2**14 to 2**16 run alike


def normalize(values) -> np.ndarray:
    """Rescale to [0, 1] by (v - min) / (max - min); constant input gives zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ConfigError("cannot normalize an empty vector")
    if not np.isfinite(v).all():
        raise ConfigError("cannot normalize non-finite values")
    lo, hi = float(v.min()), float(v.max())
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def omega(w_hat, c_hat, e_hat, beta: float, gamma: float) -> np.ndarray:
    """Blend sensitivity against cost: beta * w - (gamma / 2) * (c + e).

    beta and gamma must sum to 1; beta=1 ranks purely by sensitivity,
    gamma=1 purely by hardware cost.
    """
    if not abs(beta + gamma - 1.0) <= 1e-9:
        raise ConfigError(f"beta + gamma must equal 1, got {beta} + {gamma}")
    w_hat = np.asarray(w_hat, dtype=np.float64)
    c_hat = np.asarray(c_hat, dtype=np.float64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if not (w_hat.shape == c_hat.shape == e_hat.shape):
        raise ConfigError("score vectors must share one shape")
    return beta * w_hat - (gamma / 2.0) * (c_hat + e_hat)


@dataclass
class PlanResult:
    """Chosen per-layer weight bits plus solver accounting."""

    weight_bits: list[int]
    objective: float
    achieved_size_bits: int
    limit_bits: int
    solver_cells: int


def plan_objective(scores, weight_bits) -> float:
    """Objective of a concrete plan: sum of bits_i * score_i, left to right."""
    total = 0.0
    for b, s in zip(weight_bits, scores):
        total += float(b) * float(s)
    return total


def feasible(sizes4, sizes8, weight_bits, limit_bits: int) -> bool:
    """Whether the plan's weight bits, summed over layers, stay within limit_bits."""
    used = sum(s8 if b == BIT_HIGH else s4 for b, s4, s8 in zip(weight_bits, sizes4, sizes8))
    return used <= limit_bits


def solve_bitplan(scores, sizes4, sizes8, limit_bits: int) -> PlanResult:
    """Exact 0/1 knapsack over layer upgrades.

    scores are the blended per-layer values; sizes4/sizes8 the per-layer
    weight sizes in bits at each candidate. The solver maximizes
    sum(bits_i * score_i) subject to the summed weight bits staying within
    limit_bits. Among equal-objective plans it returns the one upgrading the
    lowest layer indices (an upgrade with zero marginal gain is taken when
    budget allows). Layers with negative scores are never upgraded, not even
    when the gain is too small to change a sum: they are left out of the
    dynamic program.

    The solver keeps one float per unit of budget (units of the costs'
    gcd) and a buffer of _ROW_BLOCK floats through which each layer updates
    the row one block at a time. A layer updates only the cells [lo, hi)
    that its traceback can reach below a saturated top, and keeps one take
    bit per cell of that range. solver_cells counts the whole
    (layers + 1) x (units + 1) table, skipped layers and cells outside the
    ranges included.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0 or len(sizes4) != n or len(sizes8) != n:
        raise ConfigError("scores, sizes4, and sizes8 must be equal-length and non-empty")
    if not np.isfinite(scores).all():
        raise ConfigError("scores must be finite")
    costs = [s8 - s4 for s4, s8 in zip(sizes4, sizes8)]
    if min(costs) < 0:
        raise ConfigError("8-bit sizes must dominate 4-bit sizes")
    budget = limit_bits - sum(sizes4)
    if budget < 0:
        raise InfeasiblePlanError(
            f"size limit {limit_bits} bits is below the all-4-bit floor of {sum(sizes4)} bits"
        )
    gains = (BIT_HIGH - BIT_LOW) * scores

    # Every subset of costs sums to a multiple of their gcd g, so a subset
    # fits budget bits exactly when it fits budget // g units: solving in
    # units fills the same cells the bit table would, with the same floats.
    g = math.gcd(*costs) or 1
    units = [w // g for w in costs]
    cap = budget // g

    # row[c]: best extra gain from the active layers after i with c units of
    # headroom, updated in place to layers i.. (a layer with negative gain,
    # or costlier than cap, is left out: row never decreases in c, so a
    # negative gain could win only a rounding tie). Layer i updates only the
    # cells [lo, hi):
    # - The traceback meets layer i with c >= cap - below, below being the
    #   units of the active layers before i, and the layer updated next reads
    #   no cell under that; a cell under w cannot take the upgrade.
    # - Every cell c >= top, the units of the active layers after i, holds
    #   full, the running sum of their gains, and its flag is set: there
    #   row[c - w] + gain >= row[c] adds each gain to the same float. From
    #   top + w up the update would write full + gain, so it stops at hi and
    #   the traceback takes the upgrade at any c >= hi. The cells [top, hi)
    #   it reads are filled with full first.
    # take[i] = (lo, hi, bits), one bit per cell of [lo, hi): whether
    # upgrading layer i attains row[c] (>= prefers the upgrade, so ties go to
    # the lowest index); a left-out layer's range starts above cap. The range
    # is updated from the top down in blocks of _ROW_BLOCK cells: a block's
    # candidates row[c - w] + gain go into buf before the block is written,
    # and every cell below the block still holds the previous layer's value,
    # so the floats and ties match a full-row update.
    active = [i for i in range(n) if units[i] <= cap and gains[i] >= 0]
    below = sum(units[i] for i in active)
    row = np.zeros(cap + 1, dtype=np.float64)
    buf = np.empty(min(_ROW_BLOCK, cap + 1), dtype=np.float64)
    take = [(cap + 1, cap + 1, None)] * n
    top, full = 0, 0.0
    for i in reversed(active):
        w = units[i]
        below -= w
        lo, hi = max(w, cap - below), min(cap + 1, top + w)
        row[top:hi] = full
        upgrade = np.empty(max(hi - lo, 0), dtype=bool)
        for b_hi in range(hi, lo, -buf.size):
            b_lo = max(b_hi - buf.size, lo)
            cand = np.add(row[b_lo - w:b_hi - w], gains[i], out=buf[:b_hi - b_lo])
            np.greater_equal(cand, row[b_lo:b_hi], out=upgrade[b_lo - lo:b_hi - lo])
            np.maximum(row[b_lo:b_hi], cand, out=row[b_lo:b_hi])
        take[i] = lo, hi, np.packbits(upgrade)
        top += w
        full += gains[i]

    # np.packbits puts cell c in byte (c - lo) // 8, most significant bit first
    plan = []
    c = cap
    for i, (lo, hi, bits) in enumerate(take):
        if c >= hi or (c >= lo and bits[(c - lo) >> 3] >> (7 - ((c - lo) & 7)) & 1):
            plan.append(BIT_HIGH)
            c -= units[i]
        else:
            plan.append(BIT_LOW)

    achieved = sum(s8 if b == BIT_HIGH else s4 for b, s4, s8 in zip(plan, sizes4, sizes8))
    return PlanResult(
        weight_bits=plan,
        objective=plan_objective(scores, plan),
        achieved_size_bits=int(achieved),
        limit_bits=int(limit_bits),
        solver_cells=int((n + 1) * (cap + 1)),
    )


@dataclass(frozen=True)
class PlannerConfig:
    """The `planner` section: blend weights, the size budget and the activation-width mode.

    gamma left unset follows 1 - beta. The budget is absolute (limit_bits)
    or a ratio r, which picks size4 + r * (size8 - size4) over the weighted
    layers' weight bits; at most one may be set, and ratio left unset is 0.5
    unless limit_bits is given. activation_bits "plan" runs each layer's
    activations at its planned weight width, "8" runs them all at 8 bits.
    """

    beta: float = 0.5
    gamma: float | None = None
    ratio: float | None = None
    limit_bits: int | None = None
    activation_bits: str = "plan"

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 - self.beta)
        if self.ratio is None and self.limit_bits is None:
            object.__setattr__(self, "ratio", 0.5)
        if not abs(self.beta + self.gamma - 1.0) <= 1e-9:
            raise RangeError("{at}beta + {at}gamma must equal 1, got {} + {}", self.beta, self.gamma)
        if not 0.0 <= self.beta <= 1.0:
            raise RangeError("{at}beta must lie in [0, 1], got {}", self.beta)
        if self.ratio is not None and self.limit_bits is not None:
            raise RangeError("set only one of {at}ratio and {at}limit_bits")
        if self.ratio is not None and not 0.0 <= self.ratio <= 1.0:
            raise RangeError("{at}ratio must lie in [0, 1], got {}", self.ratio)
        if self.limit_bits is not None and self.limit_bits < 0:
            raise RangeError("{at}limit_bits must be non-negative, got {}", self.limit_bits)
        if self.activation_bits not in ("plan", "8"):
            raise RangeError("{at}activation_bits must be 'plan' or '8', got {!r}", self.activation_bits)


def resolve_limit(config: PlannerConfig, sizes4, sizes8) -> int:
    """Absolute weight-bit budget implied by the config."""
    s4, s8 = sum(sizes4), sum(sizes8)
    if config.limit_bits is not None:
        if not s4 <= config.limit_bits <= s8:
            raise ConfigError(
                f"planner.limit_bits must lie between the all-4 size {s4} and all-8 size {s8}, "
                f"got {config.limit_bits}"
            )
        return config.limit_bits
    return int(round(s4 + config.ratio * (s8 - s4)))


def blend_scores(sensitivity, profile: HwProfile, beta: float, gamma: float) -> tuple:
    """Min-max normalize sensitivity and the profile's 8-bit cycles and energy, then blend.

    Returns (w_hat, c_hat, e_hat, scores); the planner solves on the scores
    and the report prints all four.
    """
    w_hat = normalize(sensitivity)
    c_hat = normalize(profile.vector(8, "total_cycles"))
    e_hat = normalize(profile.vector(8, "energy"))
    return w_hat, c_hat, e_hat, omega(w_hat, c_hat, e_hat, beta, gamma)


def plan_pipeline(report: SensitivityReport, profile: HwProfile,
                  config: PlannerConfig = PlannerConfig()) -> PlanResult:
    """Blend a sensitivity report with an 8-bit hardware profile and solve."""
    n = len(profile.layer_indices())
    if report.omega.size != n:
        raise ConfigError(
            f"sensitivity report covers {report.omega.size} layers, profile covers {n}"
        )
    *_, scores = blend_scores(report.omega, profile, config.beta, config.gamma)
    elems = profile.weight_elems()
    sizes4 = [e * BIT_LOW for e in elems]
    sizes8 = [e * BIT_HIGH for e in elems]
    limit = resolve_limit(config, sizes4, sizes8)
    return solve_bitplan(scores, sizes4, sizes8, limit)
