"""The three benchmark workloads: inputs built from a seed, one timed operation, checks.

toy_default  `mixbit pipeline` on the bundled toy_cnn with the stock config.
             Small tensors: per-call overhead bound, distillation dominates.
res32_mqe    `mixbit pipeline` (mqe sensitivity) on a seeded 3x32x32 residual
             net built here, with distillation cut to 20 steps so that it is
             about half of the run. Convolution-GEMM bound.
plan_resnet  `planner.solve_bitplan` on two seeded knapsack instances with the
             per-layer weight counts of ResNet-18 and ResNet-50. Only the
             planner works here.

Operations go through the public API only: `mixbit.cli.main` for pipelines
and `mixbit.planner.solve_bitplan` for the planner.
"""

from __future__ import annotations

import io
import json
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from mixbit import cli, planner
from mixbit import model as m


@dataclass
class Outcome:
    """One operation: its timed seconds, failed checks, and what it produced."""

    seconds: float
    problems: list = field(default_factory=list)
    signature: str | None = None  # must be identical for every operation of a run
    observed: dict = field(default_factory=dict)


def macs_per_sample(net: m.ModelGraph) -> int:
    """Computed multiply-accumulates of one forward pass for one input sample."""
    shapes = m.infer_shapes(net)
    total = 0
    for layer, out_shape in zip(net.layers, shapes):
        if isinstance(layer, m.Conv2d):
            total += int(np.prod(out_shape)) * layer.in_channels * layer.kernel_h * layer.kernel_w
        elif isinstance(layer, m.Linear):
            total += layer.in_features * layer.out_features
    return total


# ---------------------------------------------------------------------------
# res32: seeded residual net with 32x32 inputs

_RES32_WIDTH = 16
_PROBE_BATCH = 64
_VAR_FLOOR = 1e-4


def _conv(rng, in_c, out_c, stride=1) -> m.Conv2d:
    w = rng.standard_normal((out_c, in_c, 3, 3), dtype=np.float32) * np.float32(np.sqrt(2.0 / (in_c * 9)))
    b = (0.1 * rng.standard_normal(out_c)).astype(np.float32)
    return m.Conv2d(in_c, out_c, 3, 3, stride=stride, padding=1, weight=w, bias=b)


def _linear(rng, in_f, out_f) -> m.Linear:
    w = rng.standard_normal((out_f, in_f), dtype=np.float32) * np.float32(np.sqrt(2.0 / in_f))
    b = (0.1 * rng.standard_normal(out_f)).astype(np.float32)
    return m.Linear(in_f, out_f, weight=w, bias=b)


def _bn(channels) -> m.BatchNorm:
    return m.BatchNorm(
        channels,
        running_mean=np.zeros(channels, dtype=np.float32),
        running_var=np.ones(channels, dtype=np.float32),
        gamma=np.ones(channels, dtype=np.float32),
        beta=np.zeros(channels, dtype=np.float32),
    )


def build_res32(seed: int) -> m.ModelGraph:
    """Stem conv, three residual stages (stride-2 convs between them), two linears.

    11 weighted layers. Each BatchNorm's running statistics are then frozen,
    front to back, to what a recorded forward pass over a seeded probe batch
    shows at its input, so the distillation targets are reachable.
    """
    rng = np.random.default_rng(seed)
    layers = []

    def add(layer) -> int:
        layers.append(layer)
        return len(layers) - 1

    w = _RES32_WIDTH
    add(_conv(rng, 3, w))
    add(_bn(w))
    skip = add(m.ReLU())
    channels = w
    for stage, width in enumerate((w, 2 * w, 4 * w)):
        if stage:
            add(_conv(rng, channels, width, stride=2))
            add(_bn(width))
            skip = add(m.ReLU())
            channels = width
        add(_conv(rng, width, width))
        add(_bn(width))
        add(m.ReLU())
        add(_conv(rng, width, width))
        add(_bn(width))
        add(m.ResidualAdd(source=skip))
        skip = add(m.ReLU())
    add(m.AvgPool(4, 4))  # 8x8 -> 2x2
    add(_linear(rng, channels * 2 * 2, 64))
    add(m.ReLU())
    add(_linear(rng, 64, 10))
    net = m.ModelGraph(layers=layers, input_shape=(3, 32, 32), class_count=10)

    probe = np.random.default_rng(seed + 1).standard_normal((_PROBE_BATCH, 3, 32, 32), dtype=np.float32)
    for i in m.bn_layers(net):
        _, trace = m.forward(net, probe, record=True)
        net.layers[i].running_mean = trace.bn_means[i].astype(np.float32)
        net.layers[i].running_var = np.maximum(trace.bn_stds[i] ** 2, _VAR_FLOOR).astype(np.float32)
    return net


# ---------------------------------------------------------------------------
# pipeline workloads


def _run_pipeline(argv: list, out: Path) -> Outcome:
    sink = io.StringIO()
    start = perf_counter()
    with redirect_stdout(sink):
        code = cli.main([*argv, "--out", str(out)])
    outcome = Outcome(perf_counter() - start)
    if code != cli.EXIT_OK:
        outcome.problems.append(f"exit code {code}")
        return outcome
    report = json.loads((out / cli.ART_REPORT_JSON).read_text())
    stored = report["meta"]["canonical_sha256"]
    if stored != cli.canonical_hash(report):
        outcome.problems.append(f"stored canonical hash {stored} differs from the recomputed one")
    plan = report["plan"]
    if plan["achieved_size_bits"] > plan["limit_bits"]:
        outcome.problems.append(f"plan uses {plan['achieved_size_bits']} > {plan['limit_bits']} bits")
    evaluation = json.loads((out / cli.ART_EVAL).read_text())
    outcome.signature = stored
    outcome.observed = {
        "planned_accuracy": evaluation["variants"]["planned"]["accuracy"],
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        "quantized_bin_bytes": (out / "quantized.bin").stat().st_size,
    }
    return outcome


@dataclass
class PipelineInputs:
    argv: list  # `mixbit` arguments, without --out
    model: Path | None = None  # None: the bundled model, which each run materializes in --out


class Pipeline:
    def operation(self, inputs: PipelineInputs, out: Path) -> Outcome:
        return _run_pipeline(inputs.argv, out)

    def model_path(self, inputs: PipelineInputs, out: Path) -> Path:
        return inputs.model or out / cli.ART_MODEL


class ToyDefault(Pipeline):
    name = "toy_default"

    def setup(self, seed: int, work: Path) -> PipelineInputs:
        return PipelineInputs(["pipeline", "--seed", str(seed)])


class Res32Mqe(Pipeline):
    name = "res32_mqe"
    distill_steps = 20

    def setup(self, seed: int, work: Path) -> PipelineInputs:
        model_path = work / "res32.json"
        m.save_model(build_res32(seed), model_path)
        config_path = work / "res32_mqe.json"
        config_path.write_text(json.dumps({
            "model": str(model_path),
            "distill": {"steps": self.distill_steps},
            "sensitivity": {"method": "mqe"},
        }))
        return PipelineInputs(["pipeline", "--config", str(config_path), "--seed", str(seed)], model_path)


# ---------------------------------------------------------------------------
# planner workload

# Weights per weighted layer, in network order: stem conv, residual-stage
# convs (1x1 downsample projections included), fully connected head.
RESNET18_WEIGHTS = (
    [9408]
    + [36864] * 4
    + [73728, 147456, 147456, 147456, 8192]
    + [294912, 589824, 589824, 589824, 32768]
    + [1179648, 2359296, 2359296, 2359296, 131072]
    + [512000]
)


def _resnet50_weights() -> list:
    counts = [9408]
    in_c = 64
    for width, blocks in ((64, 3), (128, 4), (256, 6), (512, 3)):
        for block in range(blocks):
            counts += [in_c * width, width * width * 9, width * 4 * width]
            if block == 0:
                counts.append(in_c * 4 * width)  # projection shortcut
            in_c = 4 * width
    return counts + [2048 * 1000]


RESNET50_WEIGHTS = _resnet50_weights()
PLAN_RATIO = 0.5


class PlanResnet:
    name = "plan_resnet"

    def setup(self, seed: int, work: Path) -> list:
        """One (scores, sizes4, sizes8, limit_bits) instance per network shape."""
        rng = np.random.default_rng(seed)
        config = planner.PlannerConfig(ratio=PLAN_RATIO)
        instances = []
        for counts in (RESNET18_WEIGHTS, RESNET50_WEIGHTS):
            n = len(counts)
            w_hat, c_hat, e_hat = (planner.normalize(rng.random(n)) for _ in range(3))
            scores = planner.omega(w_hat, c_hat, e_hat, config.beta, config.gamma)
            sizes4 = [planner.BIT_LOW * c for c in counts]
            sizes8 = [planner.BIT_HIGH * c for c in counts]
            instances.append((scores, sizes4, sizes8, planner.resolve_limit(config, sizes4, sizes8)))
        return instances

    def operation(self, instances: list, out: Path) -> Outcome:
        start = perf_counter()
        plans = [planner.solve_bitplan(*instance) for instance in instances]
        outcome = Outcome(perf_counter() - start)
        for (scores, sizes4, sizes8, limit), plan in zip(instances, plans):
            if not planner.feasible(sizes4, sizes8, plan.weight_bits, limit):
                outcome.problems.append(f"{len(scores)}-layer plan exceeds {limit} bits")
            if plan.objective != planner.plan_objective(scores, plan.weight_bits):
                outcome.problems.append(f"{len(scores)}-layer plan objective does not match its bits")
        outcome.signature = repr([(p.weight_bits, p.objective) for p in plans])
        return outcome


WORKLOADS = {w.name: w for w in (ToyDefault(), Res32Mqe(), PlanResnet())}


def run_operation(workload, state, out: Path) -> Outcome:
    """One operation; an unexpected exception is a failed operation, not a crash."""
    start = perf_counter()
    try:
        return workload.operation(state, out)
    except Exception:  # the run goes on and counts the failure
        return Outcome(perf_counter() - start, [traceback.format_exc()])
