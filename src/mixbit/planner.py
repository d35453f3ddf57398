"""Bit-width allocation as an exactly solved 0/1 knapsack.

Every weighted layer starts at 4 bits; upgrading layer i to 8 bits pays its
extra weight bytes and earns 4 * score_i, where the per-layer score blends
normalized sensitivity against normalized cycle and energy cost. Dynamic
programming over the byte budget maximizes sum(bits_i * score_i) exactly;
ties prefer upgrading lower layer indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasiblePlanError
from .hwsim import HwProfile
from .sensitivity import SensitivityReport

BIT_LOW = 4
BIT_HIGH = 8


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
    if abs(beta + gamma - 1.0) > 1e-9:
        raise ConfigError(f"beta + gamma must equal 1, got {beta} + {gamma}")
    w_hat = np.asarray(w_hat, dtype=np.float64)
    c_hat = np.asarray(c_hat, dtype=np.float64)
    e_hat = np.asarray(e_hat, dtype=np.float64)
    if not (w_hat.shape == c_hat.shape == e_hat.shape):
        raise ConfigError("score vectors must share one shape")
    return beta * w_hat - (gamma / 2.0) * (c_hat + e_hat)


def _layer_bytes(bits_list) -> list[int]:
    # per-layer size in bytes, rounded up per layer
    return [-(-b // 8) for b in bits_list]


@dataclass
class PlanResult:
    """Chosen per-layer weight bits plus solver accounting.

    wall_time_s stays out of to_dict() so that plan.json is byte-identical
    across reruns; it is None for a result read back with from_dict().
    """

    weight_bits: list
    objective: float
    achieved_size_bits: int
    limit_bits: int
    solver_cells: int
    wall_time_s: float | None = None

    def to_dict(self) -> dict:
        return {
            "weight_bits": [int(b) for b in self.weight_bits],
            "objective": float(self.objective),
            "achieved_size_bits": int(self.achieved_size_bits),
            "limit_bits": int(self.limit_bits),
            "solver_cells": int(self.solver_cells),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlanResult":
        return cls(
            weight_bits=[int(b) for b in d["weight_bits"]],
            objective=float(d["objective"]),
            achieved_size_bits=int(d["achieved_size_bits"]),
            limit_bits=int(d["limit_bits"]),
            solver_cells=int(d["solver_cells"]),
        )


def plan_objective(scores, weight_bits) -> float:
    """Objective of a concrete plan: sum of bits_i * score_i, left to right."""
    total = 0.0
    for b, s in zip(weight_bits, scores):
        total += float(b) * float(s)
    return total


def feasible(sizes4, sizes8, weight_bits, limit_bits: int) -> bool:
    """Size feasibility in the solver's units: per-layer byte round-up."""
    used = sum(
        by8 if b == BIT_HIGH else by4
        for b, by4, by8 in zip(weight_bits, _layer_bytes(sizes4), _layer_bytes(sizes8))
    )
    return used <= limit_bits // 8


def solve_bitplan(scores, sizes4, sizes8, limit_bits: int) -> PlanResult:
    """Exact 0/1 knapsack over layer upgrades.

    scores are the blended per-layer values; sizes4/sizes8 the per-layer
    weight sizes in bits at each candidate. The solver maximizes
    sum(bits_i * score_i) subject to the byte-rounded size staying within
    limit_bits. Among equal-objective plans it returns the one upgrading the
    lowest layer indices (an upgrade with zero marginal gain is taken when
    budget allows). Layers with negative scores are never upgraded.
    """
    start = time.perf_counter()
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0 or len(sizes4) != n or len(sizes8) != n:
        raise ConfigError("scores, sizes4, and sizes8 must be equal-length and non-empty")
    by4 = _layer_bytes(sizes4)
    by8 = _layer_bytes(sizes8)
    if any(b8 < b4 for b4, b8 in zip(by4, by8)):
        raise ConfigError("8-bit sizes must dominate 4-bit sizes")
    budget = limit_bits // 8 - sum(by4)
    if budget < 0:
        raise InfeasiblePlanError(
            f"size limit {limit_bits} bits is below the all-4-bit floor of {sum(s for s in sizes4)} bits"
        )
    costs = [b8 - b4 for b4, b8 in zip(by4, by8)]
    gains = (BIT_HIGH - BIT_LOW) * scores

    # dp[i][c]: best extra gain from layers i.. with c bytes of headroom.
    dp = np.zeros((n + 1, budget + 1), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        dp[i] = dp[i + 1]
        w = costs[i]
        if w <= budget:
            take = dp[i + 1, :budget + 1 - w] + gains[i] if w else dp[i + 1] + gains[i]
            if w:
                dp[i, w:] = np.maximum(dp[i + 1, w:], take)
            else:
                dp[i] = np.maximum(dp[i + 1], take)

    plan = []
    c = budget
    for i in range(n):
        w = costs[i]
        if w <= c and dp[i + 1, c - w] + gains[i] >= dp[i + 1, c]:
            plan.append(BIT_HIGH)
            c -= w
        else:
            plan.append(BIT_LOW)

    achieved = sum(s8 if b == BIT_HIGH else s4 for b, s4, s8 in zip(plan, sizes4, sizes8))
    return PlanResult(
        weight_bits=plan,
        objective=plan_objective(scores, plan),
        achieved_size_bits=int(achieved),
        limit_bits=int(limit_bits),
        solver_cells=int((n + 1) * (budget + 1)),
        wall_time_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class PlannerConfig:
    """Blend weights plus the size budget, absolute or as a ratio.

    Exactly one of limit_bits / ratio must be set; ratio r picks the budget
    size4 + r * (size8 - size4) over the weighted layers' weight bits.
    """

    beta: float = 0.5
    gamma: float = 0.5
    ratio: float | None = 0.5
    limit_bits: int | None = None

    def __post_init__(self):
        if abs(self.beta + self.gamma - 1.0) > 1e-9:
            raise ConfigError(f"planner.beta + planner.gamma must equal 1, got {self.beta} + {self.gamma}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"planner.beta must lie in [0, 1], got {self.beta}")
        if (self.ratio is None) == (self.limit_bits is None):
            raise ConfigError("set exactly one of planner.ratio and planner.limit_bits")
        if self.ratio is not None and not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(f"planner.ratio must lie in [0, 1], got {self.ratio}")
        if self.limit_bits is not None and self.limit_bits < 0:
            raise ConfigError(f"planner.limit_bits must be non-negative, got {self.limit_bits}")


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


def plan_pipeline(report: SensitivityReport, profile: HwProfile,
                  config: PlannerConfig = PlannerConfig()) -> PlanResult:
    """Blend a sensitivity report with an 8-bit hardware profile and solve.

    Cycle and energy columns come from the profile's 8-bit rows; all three
    inputs are min-max normalized before blending.
    """
    n = len(profile.layer_indices())
    if report.omega.size != n:
        raise ConfigError(
            f"sensitivity report covers {report.omega.size} layers, profile covers {n}"
        )
    w_hat = normalize(report.omega)
    c_hat = normalize(profile.vector(8, "total_cycles"))
    e_hat = normalize(profile.vector(8, "energy"))
    scores = omega(w_hat, c_hat, e_hat, config.beta, config.gamma)
    elems = profile.weight_elems()
    sizes4 = [e * BIT_LOW for e in elems]
    sizes8 = [e * BIT_HIGH for e in elems]
    limit = resolve_limit(config, sizes4, sizes8)
    return solve_bitplan(scores, sizes4, sizes8, limit)
