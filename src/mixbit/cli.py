"""Command-line pipeline: distill, sense, profile, plan, quantize, eval, report.

Artifacts land in an output directory and each stage consumes the previous
stage's files, so stages can run one at a time or all at once via the
`pipeline` subcommand. With a fixed config and seeds the report is
byte-identical across runs except for its timestamp, and a canonical hash
over everything else is recorded inside it.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import datetime
import hashlib
import io
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import model as m
from . import quant, zoo
from .distill import DistillConfig, SyntheticBatch, synthesize
from .errors import (
    ConfigError,
    DivergenceError,
    InfeasibleHardwareError,
    InfeasiblePlanError,
    ModelFormatError,
    NumericFailureError,
    RangeError,
    ShapeMismatchError,
    UnsupportedLayerError,
    build,
    checked,
)
from .hwsim import HwConfig, HwProfile, profile_model
from .planner import BIT_HIGH, BIT_LOW, PlannerConfig, PlanResult, blend_scores, plan_pipeline
from .sensitivity import SensitivityReport, mqe_sensitivity, naive_sensitivity

log = logging.getLogger("mixbit")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4

# artifact names inside the output directory
ART_MODEL = "model.json"
ART_DISTILLED = "distilled.json"
ART_SENSITIVITY = "sensitivity.json"
ART_PROFILE_JSON = "profile.json"
ART_PROFILE_CSV = "profile.csv"
ART_PLAN = "plan.json"
ART_QUANTIZED = "quantized.json"
ART_EVAL = "eval.json"
ART_REPORT_JSON = "report.json"
ART_REPORT_CSV = "report.csv"

_UNIFORM_BITS = {"fp32": 32, "int8": 8, "int4": 4}


@dataclass(frozen=True)
class SenseConfig:
    """The `sensitivity` section: mqe masking parameters, or the naive width."""

    alpha: float = 0.5
    seed: int = 0
    method: str = "mqe"
    base_bits: int = 8
    naive_bits: int = 4

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise RangeError("{at}alpha must lie in [0, 1], got {}", self.alpha)
        if self.seed < 0:
            raise RangeError("{at}seed must be non-negative, got {}", self.seed)
        if self.method not in ("mqe", "naive"):
            raise RangeError("{at}method must be 'mqe' or 'naive', got {!r}", self.method)
        if self.base_bits not in (4, 8):
            raise RangeError("{at}base_bits must be 4 or 8, got {}", self.base_bits)
        if self.naive_bits not in quant.BIT_CHOICES:
            raise RangeError("{at}naive_bits must be one of {}, got {}", list(quant.BIT_CHOICES), self.naive_bits)


@dataclass(frozen=True)
class EvalConfig:
    """The `eval` section: size, input noise and seed of the synthetic eval set."""

    samples: int = 256
    noise: float = 0.1
    seed: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise RangeError("{at}samples must be >= 1, got {}", self.samples)
        if not 0.0 <= self.noise < math.inf:
            raise RangeError("{at}noise must be finite and non-negative, got {}", self.noise)
        if self.seed < 0:
            raise RangeError("{at}seed must be non-negative, got {}", self.seed)


@dataclass(frozen=True)
class PipelineConfig:
    """The whole config file; each section field is built from its JSON object."""

    model: str | None = None
    output_dir: str = "out"
    seed: int = 0
    distill: DistillConfig = DistillConfig()
    sensitivity: SenseConfig = SenseConfig()
    hardware: HwConfig = HwConfig()
    planner: PlannerConfig = PlannerConfig()
    eval: EvalConfig = EvalConfig()

    def __post_init__(self):
        if self.seed < 0:
            raise RangeError("{at}seed must be non-negative, got {}", self.seed)

    # Acceptance criterion 11 reads these three names; no other alias exists.
    @property
    def eval_samples(self) -> int:
        return self.eval.samples

    @property
    def eval_noise(self) -> float:
        return self.eval.noise

    @property
    def eval_seed(self) -> int:
        return self.eval.seed


# argparse dest -> (dotted config key the flag sets, sibling key it drops)
_FLAGS = {
    "out": ("output_dir", None),
    "seed": ("seed", None),
    "ratio": ("planner.ratio", "limit_bits"),
    "alpha": ("sensitivity.alpha", None),
    "beta": ("planner.beta", "gamma"),
    "method": ("sensitivity.method", None),
    "bits_activations": ("planner.activation_bits", None),
}

def load_config(config_path: str | None, overrides: argparse.Namespace) -> PipelineConfig:
    """Merge config file and command-line overrides into one resolved config."""
    doc = {}
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config: top level must be a JSON object")
    for dest, (key, drops) in _FLAGS.items():
        value = getattr(overrides, dest)
        if value is None:
            continue
        section, _, leaf = key.rpartition(".")
        target = doc.setdefault(section, {}) if section else doc
        if isinstance(target, dict):  # build rejects a section that is not an object
            target[leaf] = value
            target.pop(drops, None)
    # the first build checks the master seed that unset sub-seeds then follow
    seed = build(PipelineConfig, doc, "", {}).seed
    return build(PipelineConfig, doc, "", {"distill": {"seed": seed}, "sensitivity": {"seed": seed},
                                           "eval": {"seed": seed + 1}})


# ---------------------------------------------------------------------------
# artifact helpers


def _out(cfg: PipelineConfig) -> Path:
    p = Path(cfg.output_dir)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot make directory {p}: {exc}") from exc
    return p


def _write(path: Path, data) -> None:
    """Write an artifact: text, bytes, or a function that writes it at path. An OSError raises ConfigError."""
    try:
        if callable(data):
            data(path)
        else:
            path.write_bytes(data.encode() if isinstance(data, str) else data)
    except OSError as exc:
        raise ConfigError(f"cannot write artifact {Path(exc.filename or path).name}: {exc}") from exc


def _write_json(path: Path, doc: dict) -> None:
    _write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_artifact(path: Path, parse):
    """Load a stage artifact through parse(doc).

    A missing file, malformed JSON, a document that is not a JSON object, or
    content that parse rejects raises ConfigError naming the file and the
    command that regenerates it.
    """
    if not path.exists():
        raise ConfigError(f"missing artifact {path.name}: run `mixbit {_PRODUCERS[path.name]}` first")
    try:
        return parse(checked(json.loads(path.read_text()), dict, "top level"))
    except (OSError, ValueError, KeyError, TypeError, OverflowError, ConfigError, ShapeMismatchError,
            NumericFailureError) as exc:
        raise ConfigError(f"malformed artifact {path.name} ({exc!r}): "
                          f"rerun `mixbit {_PRODUCERS[path.name]}`") from exc


def write_bundled_model(cfg: PipelineConfig, command: str) -> None:
    """Make the output directory and, unless a model is configured, put the bundled toy CNN for cfg.seed in it.

    distill and pipeline start a run from the model alone, so they rebuild it
    from the seed and overwrite whatever an earlier run left. Every other
    stage reads artifacts made from the model already there: it writes the
    model only when it is missing, and raises ConfigError when the one there
    is unreadable or not this seed's, instead of mixing two models in one run.
    """
    path = _out(cfg) / ART_MODEL  # a bad output_dir exits before any stage works
    if cfg.model:
        return
    net = zoo.toy_cnn(cfg.seed)
    if command in ("distill", "pipeline") or not path.exists():
        _write(path, lambda p: m.save_model(net, p))
        log.info("wrote bundled toy model to %s", path)
        return
    manifest, blob = m.model_files(net, path)
    try:
        same = path.read_text() == manifest and m.blob_path_for(path).read_bytes() == blob
    except OSError as exc:
        raise ConfigError(f"cannot read artifact {Path(exc.filename or path).name}: {exc}") from exc
    if not same:
        raise ConfigError(f"{path} is not the bundled model for seed {cfg.seed}: the earlier stages ran "
                          f"with another --seed; give every stage the same --seed, or rerun `mixbit distill`")


def ensure_model(cfg: PipelineConfig) -> tuple[m.ModelGraph, Path]:
    """Load the configured model, or the bundled one write_bundled_model wrote."""
    path = Path(cfg.model) if cfg.model else _out(cfg) / ART_MODEL
    return m.load_model(path), path


def _load_distilled(cfg: PipelineConfig, net: m.ModelGraph | None = None) -> np.ndarray:
    """The distilled float32 batch; the rest of distilled.json is written for the record only.

    A batch that is not finite or not of the model's input shape is
    malformed. net is the model the stage has loaded; acceptance criterion
    11 calls with cfg alone, and the model is loaded here.
    """
    out = _out(cfg)
    if net is None:
        net, _ = ensure_model(cfg)

    def parse(doc: dict) -> np.ndarray:
        blob = out / checked(doc["blob"], str, "blob")
        shape = checked(doc["shape"], list[int], "shape")
        flat = np.frombuffer(blob.read_bytes(), dtype="<f4")
        if flat.size != math.prod(shape):
            raise ValueError(f"{blob.name} holds {flat.size} values, shape {shape} needs {math.prod(shape)}")
        return m._check_batch(net, flat.reshape(shape).astype(np.float32))

    return _read_artifact(out / ART_DISTILLED, parse)


def _load_profile(cfg: PipelineConfig) -> HwProfile:
    def parse(doc: dict) -> HwProfile:
        profile = HwProfile.from_dict(doc)
        if profile.candidates != list(quant.BIT_CHOICES):  # the bit-widths stage_profile costs
            raise ConfigError(f"candidates {profile.candidates} are not {list(quant.BIT_CHOICES)}")
        return profile

    return _read_artifact(_out(cfg) / ART_PROFILE_JSON, parse)


def _load_plan(cfg: PipelineConfig, net: m.ModelGraph) -> tuple[PlannerConfig, PlanResult, quant.BitConfig]:
    """plan.json as the planner section it was solved with, the plan it holds and the bits it plans for net."""
    def parse(doc: dict) -> tuple[PlannerConfig, PlanResult, quant.BitConfig]:
        planner_doc = doc.pop("planner", None)
        plan = build(PlanResult, doc)
        wb, count = plan.weight_bits, len(m.weighted_layers(net))
        if any(b not in (BIT_LOW, BIT_HIGH) for b in wb):
            raise ConfigError(f"weight_bits must be a list of {BIT_LOW} and {BIT_HIGH}, got {wb}")
        planner_cfg = build(PlannerConfig, planner_doc, "planner.")
        if len(wb) != count:
            raise ConfigError(f"weight_bits covers {len(wb)} layers, the model has {count} weighted layers")
        return planner_cfg, plan, quant.BitConfig(wb, [8] * count if planner_cfg.activation_bits == "8" else list(wb))

    return _read_artifact(_out(cfg) / ART_PLAN, parse)


@dataclass(frozen=True)
class _WeightGrid(quant.QuantParams):
    """A weight grid and where its layer's codes lie in quantized.bin, one signed byte each."""

    offset: int
    count: int
    shape: list[int]


@dataclass
class _QuantizedLayer:
    layer_index: int
    kind: str
    weight: _WeightGrid
    activation: quant.QuantParams


@dataclass
class _QuantizedFile:
    """quantized.json: every planned layer has both grids, since plan.json admits only 4 and 8 bits."""

    blob: str
    layers: list[_QuantizedLayer]


def _load_quantized(cfg: PipelineConfig, net: m.ModelGraph, bits: quant.BitConfig) -> quant.QuantizedModel:
    """The model that quantized.json and quantized.bin hold for the planned bits.

    Each layer's codes must follow the previous layer's in the blob, match
    the model's weight in count and shape, and lie in its grid's range, the
    blob must hold no more, and no grid may dequantize past float32's range.
    A file whose grids have other bits than the plan's is stale.
    """
    out = _out(cfg)

    def parse(doc: dict) -> quant.QuantizedModel:
        qf = build(_QuantizedFile, doc)
        slots = [(idx, net.layers[idx].kind) for idx in m.weighted_layers(net)]
        if [(layer.layer_index, layer.kind) for layer in qf.layers] != slots:
            raise ValueError(f"layers must be the model's weighted layers {slots}")
        grids = [layer.weight for layer in qf.layers]
        blob = np.frombuffer((out / qf.blob).read_bytes(), dtype="<i1")
        if blob.size != (total := sum(w.count for w in grids)):
            raise ValueError(f"{qf.blob} holds {blob.size} codes, the layers {total}")
        codes, end = [], 0
        for idx, w, act in zip(m.weighted_layers(net), grids, [layer.activation for layer in qf.layers]):
            for kind, p in (("weight", w), ("activation", act)):  # before anything is dequantized
                if not p.scale * max(-p.qmin - p.zero_point, p.qmax + p.zero_point) <= np.finfo(np.float32).max:
                    raise ValueError(f"layer {idx}: the {kind} grid's scale {p.scale} dequantizes past float32")
            shape = list(net.layers[idx].weight.shape)
            if (w.offset, w.count, w.shape) != (end, math.prod(shape), shape):
                raise ValueError(f"layer {idx}: codes at offset {w.offset}, count {w.count}, shape {w.shape}, "
                                 f"not offset {end}, count {math.prod(shape)}, shape {shape}")
            end += w.count
            codes.append(blob[w.offset:end].reshape(shape))
            if codes[-1].min() < w.qmin or codes[-1].max() > w.qmax:
                raise ValueError(f"layer {idx}: codes outside [{w.qmin}, {w.qmax}]")
        return quant.QuantizedModel(net, grids, [layer.activation for layer in qf.layers], codes)

    qm = _read_artifact(out / ART_QUANTIZED, parse)
    stored = quant.BitConfig([p.bits for p in qm.weight_params], [p.bits for p in qm.act_params])
    if stored != bits:
        raise ConfigError(f"{ART_QUANTIZED} holds weight bits {stored.weight_bits} and activation bits "
                          f"{stored.activation_bits}, {ART_PLAN} plans {bits.weight_bits} and "
                          f"{bits.activation_bits}: rerun `mixbit {_PRODUCERS[ART_QUANTIZED]}`")
    return qm


# ---------------------------------------------------------------------------
# stages


def stage_distill(cfg: PipelineConfig) -> SyntheticBatch:
    net, _ = ensure_model(cfg)
    batch = synthesize(net, cfg.distill)
    out = _out(cfg)
    blob_name = "distilled.bin"
    _write(out / blob_name, batch.data.astype("<f4").tobytes())
    _write_json(out / ART_DISTILLED, {
        "blob": blob_name,
        "shape": list(batch.data.shape),
        "seed": batch.seed,
        "steps": cfg.distill.steps,
        "learning_rate": cfg.distill.learning_rate,
        "final_loss": batch.final_loss,
        "loss_history": batch.loss_history,
    })
    log.info("distilled batch %s, final loss %.3g", batch.data.shape, batch.final_loss)
    return batch


def stage_sense(cfg: PipelineConfig) -> SensitivityReport:
    net, _ = ensure_model(cfg)
    batch = _load_distilled(cfg, net)
    sc = cfg.sensitivity
    if sc.method == "mqe":
        report = mqe_sensitivity(net, batch, alpha=sc.alpha, seed=sc.seed, base_bits=sc.base_bits)
    else:
        report = naive_sensitivity(net, batch, bits=sc.naive_bits)
    _write_json(_out(cfg) / ART_SENSITIVITY, report.to_dict())
    log.info("sensitivity (%s): %s", report.method, np.round(report.omega, 6).tolist())
    return report


def stage_profile(cfg: PipelineConfig) -> HwProfile:
    net, _ = ensure_model(cfg)
    profile = profile_model(net, quant.BIT_CHOICES, cfg.hardware)
    out = _out(cfg)
    _write_json(out / ART_PROFILE_JSON, profile.to_dict())
    _write(out / ART_PROFILE_CSV, profile.save_csv)
    log.info("profiled %d rows, l_max=%d", len(profile.rows), profile.bram.l_max)
    return profile


def stage_plan(cfg: PipelineConfig) -> PlanResult:
    report = _read_artifact(_out(cfg) / ART_SENSITIVITY, SensitivityReport.from_dict)
    plan = plan_pipeline(report, _load_profile(cfg), cfg.planner)
    _write_json(_out(cfg) / ART_PLAN, {"planner": dataclasses.asdict(cfg.planner), **dataclasses.asdict(plan)})
    log.info("plan: %s (objective %.6g)", plan.weight_bits, plan.objective)
    return plan


def stage_quantize(cfg: PipelineConfig) -> quant.QuantizedModel:
    net, _ = ensure_model(cfg)
    qm = quant.quantize_model(net, _load_plan(cfg, net)[2], _load_distilled(cfg, net))
    layers, offset = [], 0
    for idx, wp, ap, codes in zip(m.weighted_layers(net), qm.weight_params, qm.act_params, qm.weight_codes):
        grid = _WeightGrid(**dataclasses.asdict(wp), offset=offset, count=codes.size, shape=list(codes.shape))
        layers.append(_QuantizedLayer(idx, net.layers[idx].kind, grid, ap))
        offset += codes.size
    out = _out(cfg)
    _write(out / "quantized.bin", b"".join(codes.astype("<i1").tobytes() for codes in qm.weight_codes))
    _write_json(out / ART_QUANTIZED, dataclasses.asdict(_QuantizedFile("quantized.bin", layers)))
    log.info("quantized model: %d weight codes", offset)
    return qm


def stage_eval(cfg: PipelineConfig) -> dict:
    net, _ = ensure_model(cfg)
    *_, planned_bits = _load_plan(cfg, net)
    planned = _load_quantized(cfg, net, planned_bits)
    batch = _load_distilled(cfg, net)
    profile = _load_profile(cfg)
    count = len(m.weighted_layers(net))
    variants = {name: quant.BitConfig.uniform(count, bits) for name, bits in _UNIFORM_BITS.items()}

    _, calib = m.forward(net, batch, record=True)  # shared by every uniform variant's grids
    models = [quant.quantize_model(net, bit_cfg, batch, calib) for bit_cfg in variants.values()]
    variants["planned"] = planned_bits  # runs the model quantize wrote, resumed from a uniform variant
    # one draw of the eval set, a chunk at a time, runs every variant; only predictions are kept
    labels, preds = [], []
    for xs, ys in zoo.eval_batches(net, cfg.eval.samples, cfg.eval.noise, cfg.eval.seed):
        labels.append(ys)
        preds.append([z.argmax(axis=1) for z in quant.forward_all([*models, planned], xs)])
    labels, preds = np.concatenate(labels), np.concatenate(preds, axis=1)  # preds: one row per variant

    results = {}
    for (name, bit_cfg), p in zip(variants.items(), preds):
        size = quant.model_size(net, bit_cfg)
        cycles = sum(int(profile.cost(idx, b).total_cycles)
                     for idx, b in zip(profile.layer_indices(), bit_cfg.weight_bits))
        results[name] = {
            "weight_bits": list(bit_cfg.weight_bits),
            "accuracy": float(np.mean(p == labels)),
            "agreement": float(np.mean(p == preds[0])),  # against fp32
            "total_cycles": cycles,
            "weight_bits_total": size.weight_bits,
            "total_bits": size.total_bits,
        }
    doc = {**dataclasses.asdict(cfg.eval), "variants": results}
    _write_json(_out(cfg) / ART_EVAL, doc)
    for name, r in results.items():
        log.info("eval %-8s acc=%.4f agree=%.4f cycles=%d", name, r["accuracy"],
                 r["agreement"], r["total_cycles"])
    return doc


# ---------------------------------------------------------------------------
# report


# Meta fields that depend on when or where a run happened; the model itself
# enters the hash through the sha256 of its files.
_VOLATILE_META = ("timestamp", "model_path", "canonical_sha256")


def canonical_hash(report: dict) -> str:
    """Hash of the report with the volatile meta fields removed."""
    doc = {**report, "meta": {k: v for k, v in report["meta"].items() if k not in _VOLATILE_META}}
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _model_digest(net: m.ModelGraph) -> dict:
    """sha256 of the manifest and blob save_model writes for net as model.json: the file's name stays out."""
    manifest, blob = m.model_files(net, ART_MODEL)
    return {"manifest": hashlib.sha256(manifest.encode()).hexdigest(), "blob": hashlib.sha256(blob).hexdigest()}


def assemble_report(cfg: PipelineConfig) -> dict:
    """Build the final report from the stage artifacts on disk."""
    net, model_path = ensure_model(cfg)
    digest = _model_digest(net)
    out = _out(cfg)
    if model_path.resolve().is_relative_to(out.resolve()):  # keep the report independent of where out lives
        model_path = model_path.resolve().relative_to(out.resolve())
    sense = _read_artifact(out / ART_SENSITIVITY, SensitivityReport.from_dict)
    profile = _load_profile(cfg)
    planner_cfg, plan, planned_bits = _load_plan(cfg, net)
    _load_quantized(cfg, net, planned_bits)
    size = quant.model_size(net, planned_bits)

    def parse_eval(doc: dict) -> dict:  # checks what stage_report prints
        for name, r in checked(doc["variants"], dict, "variants").items():
            for key, kind in (("accuracy", float), ("agreement", float), ("total_cycles", int)):
                checked(r[key], kind, f"variants.{name}.{key}")
        return doc

    eval_doc = _read_artifact(out / ART_EVAL, parse_eval)

    blend = blend_scores(sense.omega, profile, planner_cfg.beta, planner_cfg.gamma)
    layer_rows = []
    for idx, elems, bits, omega, w_hat, c_hat, e_hat, score in zip(
            profile.layer_indices(), profile.weight_elems(), plan.weight_bits, sense.omega.tolist(),
            *(v.tolist() for v in blend)):
        cost = profile.cost(idx, 8)
        layer_rows.append({
            "layer_index": idx,
            "kind": net.layers[idx].kind,
            "weight_elems": elems,
            "omega": omega,
            "omega_hat": w_hat,
            "cycles": {
                "compute": cost.compute,
                "transfer": cost.transfer,
                "write_back": cost.write_back,
                "post_process": cost.post_process,
                "total": cost.total_cycles,
            },
            "energy": cost.energy,
            "c_hat": c_hat,
            "e_hat": e_hat,
            "score": score,
            "bits": bits,
            "weight_size_bits": elems * bits,
        })

    report = {
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool": "mixbit",
            "version": __version__,
            "model_path": str(model_path),
        },
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k not in ("model", "output_dir")},
        "model": {
            "sha256": digest,
            "input_shape": list(net.input_shape),
            "class_count": net.class_count,
            "weighted_layers": len(m.weighted_layers(net)),
        },
        "bram": dataclasses.asdict(profile.bram),
        "layers": layer_rows,
        "plan": {**dataclasses.asdict(plan), "activation_bits": planned_bits.activation_bits},
        "sizes": {"weight_bits_total": size.weight_bits, "fixed_bits": size.fixed_bits,
                  "total_bits": size.total_bits, "megabytes": size.megabytes, "limit_bits": plan.limit_bits},
        "eval": eval_doc,
    }
    report["meta"]["canonical_sha256"] = canonical_hash(report)
    return report


def stage_report(cfg: PipelineConfig) -> dict:
    report = assemble_report(cfg)
    out = _out(cfg)
    _write_json(out / ART_REPORT_JSON, report)
    text = io.StringIO()
    writer = csv.DictWriter(text, ("layer_index", "kind", "weight_elems", "omega", "omega_hat", "c_hat", "e_hat",
                                   "score", "bits", "weight_size_bits", "compute", "transfer", "write_back",
                                   "post_process", "total_cycles", "energy"), extrasaction="ignore")
    writer.writeheader()
    writer.writerows({**r, **r["cycles"], "total_cycles": r["cycles"]["total"]} for r in report["layers"])
    _write(out / ART_REPORT_CSV, text.getvalue())
    print(f"plan: {report['plan']['weight_bits']}  "
          f"size: {report['sizes']['weight_bits_total']}/{report['sizes']['limit_bits']} weight bits")
    for name, r in report["eval"]["variants"].items():
        print(f"  {name:<8} accuracy={r['accuracy']:.4f} agreement={r['agreement']:.4f} "
              f"cycles={r['total_cycles']}")
    print(f"report: {out / ART_REPORT_JSON}")
    return report


def stage_pipeline(cfg: PipelineConfig) -> None:
    for name in _STAGES:
        if name != "pipeline":
            globals()[f"stage_{name}"](cfg)


# ---------------------------------------------------------------------------
# entry point


# subcommand -> (help text, the artifacts its stage writes), in pipeline order. Each
# subcommand is its stage function's name without "stage_", and runs by that module-level
# name, so that a wrapper installed on the module (a profiler's) sees the call.
_STAGES = {stage.__name__.removeprefix("stage_"): (help_text, writes) for stage, help_text, writes in (
    (stage_distill, "synthesize a calibration batch from batch-norm statistics", (ART_DISTILLED, "distilled.bin")),
    (stage_sense, "score per-layer sensitivity on the distilled batch", (ART_SENSITIVITY,)),
    (stage_profile, "cost every layer on the accelerator model", (ART_PROFILE_JSON, ART_PROFILE_CSV)),
    (stage_plan, "solve the bit allocation under the size budget", (ART_PLAN,)),
    (stage_quantize, "freeze grids and integer weights for the planned bits", (ART_QUANTIZED, "quantized.bin")),
    (stage_eval, "compare fp32 / int8 / int4 / planned variants", (ART_EVAL,)),
    (stage_report, "assemble the final report from the stage artifacts", (ART_REPORT_JSON, ART_REPORT_CSV)),
    (stage_pipeline, "run all stages and write the final report", ()),
)}
# artifact -> the subcommand that writes it, named by every "run `mixbit …`" hint
_PRODUCERS = {artifact: name for name, (_, writes) in _STAGES.items() for artifact in writes}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbit",
        description="Plan mixed 4/8-bit quantization for a small CNN under a size budget.",
    )
    parser.add_argument("--version", action="version", version=f"mixbit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _STAGES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--ratio", type=float, help="size budget between all-4 (0) and all-8 (1)")
        p.add_argument("--alpha", type=float, help="mask fraction for sensitivity")
        p.add_argument("--beta", type=float, help="sensitivity weight in the blend (gamma = 1 - beta)")
        p.add_argument("--method", choices=("mqe", "naive"), help="sensitivity method")
        p.add_argument("--bits-activations", choices=("plan", "8"),
                       help="activation widths follow the plan or stay at 8")
    return parser


def _fix_heap_thresholds() -> None:
    """Fix glibc's heap trim threshold at 256 MB and its mmap threshold at 32 MB, and keep one heap arena,
    where there is mallopt.

    By default both thresholds follow the largest mmapped block freed so far, so larger temporaries
    are mapped afresh, or the heap top trimmed, on every step, and their pages fault in again. A
    sample part's thread would get an arena of its own, which keeps what the part frees from the
    other parts: at distill.batch_size 128 the res32 distill peaked 11 MB higher.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def _openblas():
    """The (get, set) thread-count functions of the OpenBLAS in NumPy's wheel, or None where none is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.argtypes, put.restype = ctypes.c_int, (ctypes.c_int,), None
                    return get, put
    return None


def _hold_blas_to_one_thread():
    """Set OpenBLAS to one thread and model._max_parts to the usable CPU count, where OpenBLAS is found, and
    return what puts both back.

    The heavy passes then run their samples as parts on the CPUs (model._parts): on GEMMs of one
    sample each, OpenBLAS's own second thread buys next to nothing, and would contend with a part.
    """
    blas = _openblas()
    if blas is None:
        return lambda: None
    get, put = blas
    earlier = get()
    put(1)
    token = m._max_parts.set(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return lambda: (m._max_parts.reset(token), put(earlier))


def main(argv=None) -> int:
    _fix_heap_thresholds()
    logging.basicConfig(level=os.environ.get("MIXBIT_LOG", "INFO").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    restore = _hold_blas_to_one_thread()
    try:
        cfg = load_config(args.config, args)
        write_bundled_model(cfg, args.command)
        globals()[f"stage_{args.command}"](cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelFormatError, ShapeMismatchError, UnsupportedLayerError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasiblePlanError, InfeasibleHardwareError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericFailureError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        restore()


if __name__ == "__main__":
    sys.exit(main())
