"""Command-line pipeline: distill, sense, profile, plan, quantize, eval.

Artifacts land in an output directory and each stage consumes the previous
stage's files, so stages can run one at a time or all at once via the
`pipeline` subcommand, which additionally assembles the final report. With
a fixed config and seeds the report is byte-identical across runs except
for its timestamp, and a canonical hash over everything else is recorded
inside it.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import datetime
import hashlib
import json
import logging
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
    MixbitError,
    ModelFormatError,
    NumericFailureError,
)
from .hwsim import HwConfig, HwProfile, profile_model
from .planner import PlannerConfig, PlanResult, plan_pipeline
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

_EVAL_VARIANTS = ("fp32", "int8", "int4", "planned")


@dataclass
class PipelineConfig:
    model_path: str | None
    output_dir: str
    seed: int
    distill: DistillConfig
    alpha: float
    sense_seed: int
    method: str
    base_bits: int
    naive_bits: int
    hardware: HwConfig
    planner: PlannerConfig
    activation_bits: str  # "plan" or "8"
    eval_samples: int
    eval_noise: float
    eval_seed: int


def _take(section: dict, path: str, key: str, default, caster):
    if key not in section:
        return default
    try:
        return caster(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{key}: {exc}") from exc


def _check_known(section: dict, path: str, known) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown configuration key")


def load_config(config_path: str | None, overrides: argparse.Namespace) -> PipelineConfig:
    """Merge config file and command-line overrides into one resolved config."""
    raw = {}
    if config_path:
        try:
            raw = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config: top level must be a JSON object")
    _check_known(raw, "config", {"model", "output_dir", "seed", "distill", "sensitivity",
                                 "hardware", "planner", "eval"})

    seed = _take(raw, "config", "seed", 0, int)
    if overrides.seed is not None:
        seed = overrides.seed
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")

    dsec = raw.get("distill", {})
    _check_known(dsec, "distill", {"batch_size", "steps", "learning_rate", "seed"})
    try:
        dcfg = DistillConfig(
            batch_size=_take(dsec, "distill", "batch_size", 32, int),
            steps=_take(dsec, "distill", "steps", 500, int),
            learning_rate=_take(dsec, "distill", "learning_rate", 0.1, float),
            seed=_take(dsec, "distill", "seed", seed, int),
        )
    except ConfigError:
        raise

    ssec = raw.get("sensitivity", {})
    _check_known(ssec, "sensitivity", {"alpha", "seed", "method", "base_bits", "naive_bits"})
    alpha = _take(ssec, "sensitivity", "alpha", 0.5, float)
    if overrides.alpha is not None:
        alpha = overrides.alpha
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"sensitivity.alpha: must lie in [0, 1], got {alpha}")
    method = _take(ssec, "sensitivity", "method", "mqe", str)
    if overrides.method is not None:
        method = overrides.method
    if method not in ("mqe", "naive"):
        raise ConfigError(f"sensitivity.method: must be 'mqe' or 'naive', got {method!r}")
    base_bits = _take(ssec, "sensitivity", "base_bits", 8, int)
    if base_bits not in (4, 8):
        raise ConfigError(f"sensitivity.base_bits: must be 4 or 8, got {base_bits}")
    naive_bits = _take(ssec, "sensitivity", "naive_bits", 4, int)
    if naive_bits not in (4, 8, 32):
        raise ConfigError(f"sensitivity.naive_bits: must be 4, 8, or 32, got {naive_bits}")

    hsec = raw.get("hardware", {})
    hw_fields = {f.name for f in dataclasses.fields(HwConfig)}
    _check_known(hsec, "hardware", hw_fields)
    try:
        hw = HwConfig(**{k: v for k, v in hsec.items()})
    except TypeError as exc:
        raise ConfigError(f"hardware: {exc}") from exc

    psec = raw.get("planner", {})
    _check_known(psec, "planner", {"beta", "gamma", "ratio", "limit_bits", "activation_bits"})
    beta = _take(psec, "planner", "beta", 0.5, float)
    gamma = _take(psec, "planner", "gamma", None, float)
    if overrides.beta is not None:
        beta = overrides.beta
        gamma = None
    if gamma is None:
        gamma = 1.0 - beta
    ratio = _take(psec, "planner", "ratio", None, float)
    limit_bits = _take(psec, "planner", "limit_bits", None, int)
    if overrides.ratio is not None:
        ratio = overrides.ratio
        limit_bits = None
    if ratio is None and limit_bits is None:
        ratio = 0.5
    planner_cfg = PlannerConfig(beta=beta, gamma=gamma, ratio=ratio, limit_bits=limit_bits)
    act_bits = str(_take(psec, "planner", "activation_bits", "plan", str))
    if overrides.bits_activations is not None:
        act_bits = overrides.bits_activations
    if act_bits not in ("plan", "8"):
        raise ConfigError(f"planner.activation_bits: must be 'plan' or '8', got {act_bits!r}")

    esec = raw.get("eval", {})
    _check_known(esec, "eval", {"samples", "noise", "seed"})
    eval_samples = _take(esec, "eval", "samples", 256, int)
    if eval_samples < 1:
        raise ConfigError(f"eval.samples: must be >= 1, got {eval_samples}")
    eval_noise = _take(esec, "eval", "noise", 0.1, float)
    if eval_noise < 0:
        raise ConfigError(f"eval.noise: must be non-negative, got {eval_noise}")
    eval_seed = _take(esec, "eval", "seed", seed + 1, int)

    out_dir = _take(raw, "config", "output_dir", "out", str)
    if overrides.out is not None:
        out_dir = overrides.out

    return PipelineConfig(
        model_path=_take(raw, "config", "model", None, str),
        output_dir=out_dir,
        seed=seed,
        distill=dcfg,
        alpha=alpha,
        sense_seed=_take(ssec, "sensitivity", "seed", seed, int),
        method=method,
        base_bits=base_bits,
        naive_bits=naive_bits,
        hardware=hw,
        planner=planner_cfg,
        activation_bits=act_bits,
        eval_samples=eval_samples,
        eval_noise=eval_noise,
        eval_seed=eval_seed,
    )


# ---------------------------------------------------------------------------
# artifact helpers


def _out(cfg: PipelineConfig) -> Path:
    p = Path(cfg.output_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_artifact(path: Path, produced_by: str, parse=None):
    """Load a stage artifact, passed through parse(doc) when given.

    A missing file, malformed JSON, or content that parse rejects raises
    ConfigError naming the file and the command that regenerates it.
    """
    if not path.exists():
        raise ConfigError(f"missing artifact {path.name}: run `mixbit {produced_by}` first")
    try:
        doc = json.loads(path.read_text())
        return doc if parse is None else parse(doc)
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"malformed artifact {path.name} ({exc!r}): "
                          f"rerun `mixbit {produced_by}`") from exc


def ensure_model(cfg: PipelineConfig) -> tuple[m.ModelGraph, Path]:
    """Load the configured model, or materialize the bundled toy CNN."""
    if cfg.model_path:
        path = Path(cfg.model_path)
        return m.load_model(path), path
    path = _out(cfg) / ART_MODEL
    if not path.exists():
        m.save_model(zoo.toy_cnn(cfg.seed), path)
        log.info("wrote bundled toy model to %s", path)
    return m.load_model(path), path


def _load_distilled(cfg: PipelineConfig) -> SyntheticBatch:
    out = _out(cfg)

    def parse(doc: dict) -> SyntheticBatch:
        blob = out / doc["blob"]
        flat = np.frombuffer(blob.read_bytes(), dtype="<f4")
        need = int(np.prod(doc["shape"]))
        if flat.size != need:
            raise ValueError(f"{blob.name} holds {flat.size} values, shape {doc['shape']} needs {need}")
        return SyntheticBatch(
            data=flat.reshape(doc["shape"]).astype(np.float32),
            final_loss=float(doc["final_loss"]),
            loss_history=[float(v) for v in doc["loss_history"]],
            seed=int(doc["seed"]),
        )

    return _read_artifact(out / ART_DISTILLED, "distill", parse)


# ---------------------------------------------------------------------------
# stages


def stage_distill(cfg: PipelineConfig) -> SyntheticBatch:
    net, _ = ensure_model(cfg)
    batch = synthesize(net, cfg.distill)
    out = _out(cfg)
    blob_name = "distilled.bin"
    (out / blob_name).write_bytes(batch.data.astype("<f4").tobytes())
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
    batch = _load_distilled(cfg)
    if cfg.method == "mqe":
        report = mqe_sensitivity(net, batch.data, alpha=cfg.alpha, seed=cfg.sense_seed,
                                 base_bits=cfg.base_bits)
    else:
        report = naive_sensitivity(net, batch.data, bits=cfg.naive_bits)
    _write_json(_out(cfg) / ART_SENSITIVITY, report.to_dict())
    log.info("sensitivity (%s): %s", report.method, np.round(report.omega, 6).tolist())
    return report


def stage_profile(cfg: PipelineConfig) -> HwProfile:
    net, _ = ensure_model(cfg)
    profile = profile_model(net, (4, 8, 32), cfg.hardware)
    out = _out(cfg)
    profile.save_json(out / ART_PROFILE_JSON)
    profile.save_csv(out / ART_PROFILE_CSV)
    log.info("profiled %d rows, l_max=%d", len(profile.rows), profile.bram.l_max)
    return profile


def stage_plan(cfg: PipelineConfig) -> PlanResult:
    report = _read_artifact(_out(cfg) / ART_SENSITIVITY, "sense", SensitivityReport.from_dict)
    profile = _read_artifact(_out(cfg) / ART_PROFILE_JSON, "profile", HwProfile.from_dict)
    plan = plan_pipeline(report, profile, cfg.planner)
    doc = plan.to_dict()
    doc["beta"] = cfg.planner.beta
    doc["gamma"] = cfg.planner.gamma
    doc["ratio"] = cfg.planner.ratio
    doc["activation_bits"] = cfg.activation_bits
    _write_json(_out(cfg) / ART_PLAN, doc)
    log.info("plan: %s (objective %.6g)", plan.weight_bits, plan.objective)
    return plan


def _plan_bit_config(plan_doc: dict) -> quant.BitConfig:
    wb = [int(b) for b in plan_doc["weight_bits"]]
    if plan_doc.get("activation_bits", "plan") == "8":
        ab = [8] * len(wb)
    else:
        ab = list(wb)
    return quant.BitConfig(wb, ab)


def stage_quantize(cfg: PipelineConfig) -> dict:
    net, _ = ensure_model(cfg)
    batch = _load_distilled(cfg)
    bit_cfg = _read_artifact(_out(cfg) / ART_PLAN, "plan", _plan_bit_config)
    qm = quant.quantize_model(net, bit_cfg, batch.data)

    blob = bytearray()
    layers_doc = []
    offset = 0
    for pos, idx in enumerate(m.weighted_layers(net)):
        wp, ap = qm.weight_params[pos], qm.act_params[pos]
        entry = {"layer_index": idx, "kind": net.layers[idx].kind}
        if wp is None:
            entry["weight"] = None
        else:
            codes = qm.weight_codes[pos].astype("<i1")
            entry["weight"] = {
                "scale": wp.scale, "zero_point": wp.zero_point, "bits": wp.bits,
                "symmetric": wp.symmetric, "offset": offset, "count": int(codes.size),
                "shape": list(codes.shape),
            }
            blob += codes.tobytes()
            offset += int(codes.size)
        entry["activation"] = None if ap is None else {
            "scale": ap.scale, "zero_point": ap.zero_point, "bits": ap.bits,
            "symmetric": ap.symmetric,
        }
        layers_doc.append(entry)

    size = quant.model_size(net, bit_cfg)
    out = _out(cfg)
    (out / "quantized.bin").write_bytes(bytes(blob))
    doc = {
        "blob": "quantized.bin",
        "weight_bits": list(bit_cfg.weight_bits),
        "activation_bits": list(bit_cfg.activation_bits),
        "layers": layers_doc,
        "size": {
            "weight_bits_total": size.weight_bits,
            "fixed_bits": size.fixed_bits,
            "total_bits": size.total_bits,
            "megabytes": size.megabytes,
        },
    }
    _write_json(out / ART_QUANTIZED, doc)
    log.info("quantized model: %d weight bits (+%d fixed)", size.weight_bits, size.fixed_bits)
    return doc


def load_quantized(cfg: PipelineConfig) -> quant.QuantizedModel:
    """Rebuild a QuantizedModel from the quantize stage's artifacts."""
    net, _ = ensure_model(cfg)
    doc = _read_artifact(_out(cfg) / ART_QUANTIZED, "quantize")
    flat = np.frombuffer((_out(cfg) / doc["blob"]).read_bytes(), dtype="<i1")
    bit_cfg = quant.BitConfig([int(b) for b in doc["weight_bits"]],
                              [int(b) for b in doc["activation_bits"]])
    wparams, aparams, codes = [], [], []
    for entry in doc["layers"]:
        w = entry["weight"]
        if w is None:
            wparams.append(None)
            codes.append(None)
        else:
            wparams.append(quant.QuantParams(w["scale"], w["zero_point"], w["bits"], w["symmetric"]))
            codes.append(flat[w["offset"]:w["offset"] + w["count"]]
                         .reshape(w["shape"]).astype(np.int32))
        a = entry["activation"]
        aparams.append(None if a is None else
                       quant.QuantParams(a["scale"], a["zero_point"], a["bits"], a["symmetric"]))
    return quant.QuantizedModel(net, bit_cfg, wparams, aparams, codes)


def _variant_bits(name: str, planned: quant.BitConfig, count: int) -> quant.BitConfig:
    if name == "fp32":
        return quant.BitConfig.uniform(count, 32)
    if name == "int8":
        return quant.BitConfig.uniform(count, 8)
    if name == "int4":
        return quant.BitConfig.uniform(count, 4)
    return planned


def stage_eval(cfg: PipelineConfig) -> dict:
    net, _ = ensure_model(cfg)
    batch = _load_distilled(cfg)
    planned = _read_artifact(_out(cfg) / ART_PLAN, "plan", _plan_bit_config)
    profile = _read_artifact(_out(cfg) / ART_PROFILE_JSON, "profile", HwProfile.from_dict)
    xs, labels = zoo.make_eval_dataset(net, cfg.eval_samples, cfg.eval_noise, cfg.eval_seed)
    count = len(m.weighted_layers(net))

    _, calib = m.forward(net, batch.data, record=True)  # shared by every variant's grids

    results = {}
    fp_preds = None
    for name in _EVAL_VARIANTS:
        bit_cfg = _variant_bits(name, planned, count)
        qm = quant.quantize_model(net, bit_cfg, batch.data, calib)
        preds = quant.quantized_forward(qm, xs).argmax(axis=1)
        if name == "fp32":
            fp_preds = preds
        size = quant.model_size(net, bit_cfg)
        cycles = sum(int(profile.cost(idx, b).total_cycles)
                     for idx, b in zip(profile.layer_indices(), bit_cfg.weight_bits))
        results[name] = {
            "weight_bits": list(bit_cfg.weight_bits),
            "accuracy": float(np.mean(preds == labels)),
            "agreement": float(np.mean(preds == fp_preds)),
            "total_cycles": cycles,
            "weight_bits_total": size.weight_bits,
            "total_bits": size.total_bits,
        }
    doc = {
        "samples": cfg.eval_samples,
        "noise": cfg.eval_noise,
        "seed": cfg.eval_seed,
        "variants": results,
    }
    _write_json(_out(cfg) / ART_EVAL, doc)
    for name in _EVAL_VARIANTS:
        r = results[name]
        log.info("eval %-8s acc=%.4f agree=%.4f cycles=%d", name, r["accuracy"],
                 r["agreement"], r["total_cycles"])
    return doc


# ---------------------------------------------------------------------------
# report


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["meta", "config", "model", "bram", "layers", "plan", "sizes", "eval"],
    "additionalProperties": False,
    "properties": {
        "meta": {
            "type": "object",
            "required": ["timestamp", "tool", "version", "model_path", "canonical_sha256"],
            "properties": {
                "timestamp": {"type": "string"},
                "tool": {"type": "string"},
                "version": {"type": "string"},
                "model_path": {"type": "string"},
                "canonical_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
            },
        },
        "config": {"type": "object"},
        "model": {
            "type": "object",
            "required": ["sha256", "input_shape", "class_count", "weighted_layers"],
            "properties": {
                "sha256": {
                    "type": "object",
                    "required": ["manifest", "blob"],
                    "properties": {
                        "manifest": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                        "blob": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                    },
                },
                "input_shape": {"type": "array", "items": {"type": "integer"}},
                "class_count": {"type": "integer"},
                "weighted_layers": {"type": "integer"},
            },
        },
        "bram": {
            "type": "object",
            "required": ["weight_blocks", "feature_blocks", "output_blocks", "l_max"],
        },
        "layers": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["layer_index", "kind", "weight_elems", "omega", "omega_hat",
                             "cycles", "energy", "c_hat", "e_hat", "score", "bits",
                             "weight_size_bits"],
                "properties": {
                    "layer_index": {"type": "integer"},
                    "kind": {"type": "string"},
                    "weight_elems": {"type": "integer"},
                    "omega": {"type": "number"},
                    "omega_hat": {"type": "number"},
                    "cycles": {
                        "type": "object",
                        "required": ["compute", "transfer", "write_back", "post_process", "total"],
                        "properties": {
                            "compute": {"type": "integer"},
                            "transfer": {"type": "integer"},
                            "write_back": {"type": "integer"},
                            "post_process": {"type": "integer"},
                            "total": {"type": "integer"},
                        },
                    },
                    "energy": {"type": "number"},
                    "c_hat": {"type": "number"},
                    "e_hat": {"type": "number"},
                    "score": {"type": "number"},
                    "bits": {"type": "integer", "enum": [4, 8]},
                    "weight_size_bits": {"type": "integer"},
                },
            },
        },
        "plan": {
            "type": "object",
            "required": ["weight_bits", "activation_bits", "objective",
                         "achieved_size_bits", "limit_bits", "solver_cells"],
        },
        "sizes": {
            "type": "object",
            "required": ["weight_bits_total", "fixed_bits", "total_bits", "megabytes",
                         "limit_bits"],
        },
        "eval": {"type": "object", "required": ["samples", "variants"]},
    },
}


def _config_echo(cfg: PipelineConfig) -> dict:
    return {
        "seed": cfg.seed,
        "distill": dataclasses.asdict(cfg.distill),
        "sensitivity": {
            "alpha": cfg.alpha, "seed": cfg.sense_seed, "method": cfg.method,
            "base_bits": cfg.base_bits, "naive_bits": cfg.naive_bits,
        },
        "hardware": dataclasses.asdict(cfg.hardware),
        "planner": {
            "beta": cfg.planner.beta, "gamma": cfg.planner.gamma,
            "ratio": cfg.planner.ratio, "limit_bits": cfg.planner.limit_bits,
            "activation_bits": cfg.activation_bits,
        },
        "eval": {"samples": cfg.eval_samples, "noise": cfg.eval_noise, "seed": cfg.eval_seed},
    }


# Meta fields that depend on when or where a run happened; the model itself
# enters the hash through the sha256 of its files.
_VOLATILE_META = ("timestamp", "model_path", "canonical_sha256")


def canonical_hash(report: dict) -> str:
    """Hash of the report with the volatile meta fields removed."""
    doc = copy.deepcopy(report)
    for key in _VOLATILE_META:
        doc.get("meta", {}).pop(key, None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _model_digest(path: Path) -> dict:
    """sha256 of a model manifest and of the weight blob it names."""
    manifest = path.read_bytes()
    blob = (path.parent / json.loads(manifest)["blob"]).read_bytes()
    return {"manifest": hashlib.sha256(manifest).hexdigest(), "blob": hashlib.sha256(blob).hexdigest()}


def assemble_report(cfg: PipelineConfig) -> dict:
    """Build the final report from the stage artifacts on disk."""
    net, model_path = ensure_model(cfg)
    digest = _model_digest(model_path)
    out = _out(cfg)
    try:
        # keep the report independent of where the output directory lives
        model_path = model_path.resolve().relative_to(out.resolve())
    except ValueError:
        pass
    sense_doc = _read_artifact(out / ART_SENSITIVITY, "sense")
    profile = HwProfile.from_dict(_read_artifact(out / ART_PROFILE_JSON, "profile"))
    plan_doc = _read_artifact(out / ART_PLAN, "plan")
    quant_doc = _read_artifact(out / ART_QUANTIZED, "quantize")
    eval_doc = _read_artifact(out / ART_EVAL, "eval")

    from .planner import normalize  # local import keeps module load light

    omega = np.asarray(sense_doc["omega"], dtype=np.float64)
    c8 = profile.vector(8, "total_cycles")
    e8 = profile.vector(8, "energy")
    w_hat, c_hat, e_hat = normalize(omega), normalize(c8), normalize(e8)
    beta, gamma = float(plan_doc["beta"]), float(plan_doc["gamma"])
    scores = beta * w_hat - (gamma / 2.0) * (c_hat + e_hat)

    layer_rows = []
    bits = [int(b) for b in plan_doc["weight_bits"]]
    for pos, idx in enumerate(profile.layer_indices()):
        cost = profile.cost(idx, 8)
        elems = profile.weight_elems()[pos]
        layer_rows.append({
            "layer_index": idx,
            "kind": net.layers[idx].kind,
            "weight_elems": elems,
            "omega": float(omega[pos]),
            "omega_hat": float(w_hat[pos]),
            "cycles": {
                "compute": cost.compute,
                "transfer": cost.transfer,
                "write_back": cost.write_back,
                "post_process": cost.post_process,
                "total": cost.total_cycles,
            },
            "energy": float(cost.energy),
            "c_hat": float(c_hat[pos]),
            "e_hat": float(e_hat[pos]),
            "score": float(scores[pos]),
            "bits": bits[pos],
            "weight_size_bits": elems * bits[pos],
        })

    report = {
        "meta": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "tool": "mixbit",
            "version": __version__,
            "model_path": str(model_path),
        },
        "config": _config_echo(cfg),
        "model": {
            "sha256": digest,
            "input_shape": list(net.input_shape),
            "class_count": net.class_count,
            "weighted_layers": len(m.weighted_layers(net)),
        },
        "bram": dataclasses.asdict(profile.bram),
        "layers": layer_rows,
        "plan": {
            "weight_bits": [int(b) for b in plan_doc["weight_bits"]],
            "activation_bits": quant_doc["activation_bits"],
            "objective": float(plan_doc["objective"]),
            "achieved_size_bits": int(plan_doc["achieved_size_bits"]),
            "limit_bits": int(plan_doc["limit_bits"]),
            "solver_cells": int(plan_doc["solver_cells"]),
        },
        "sizes": {
            "weight_bits_total": int(quant_doc["size"]["weight_bits_total"]),
            "fixed_bits": int(quant_doc["size"]["fixed_bits"]),
            "total_bits": int(quant_doc["size"]["total_bits"]),
            "megabytes": float(quant_doc["size"]["megabytes"]),
            "limit_bits": int(plan_doc["limit_bits"]),
        },
        "eval": eval_doc,
    }
    report["meta"]["canonical_sha256"] = canonical_hash(report)
    return report


def _report_csv_rows(report: dict) -> list[list]:
    head = ["layer_index", "kind", "weight_elems", "omega", "omega_hat", "c_hat", "e_hat",
            "score", "bits", "weight_size_bits", "compute", "transfer", "write_back",
            "post_process", "total_cycles", "energy"]
    rows = [head]
    for r in report["layers"]:
        rows.append([
            r["layer_index"], r["kind"], r["weight_elems"], repr(r["omega"]),
            repr(r["omega_hat"]), repr(r["c_hat"]), repr(r["e_hat"]), repr(r["score"]),
            r["bits"], r["weight_size_bits"], r["cycles"]["compute"], r["cycles"]["transfer"],
            r["cycles"]["write_back"], r["cycles"]["post_process"], r["cycles"]["total"],
            repr(r["energy"]),
        ])
    return rows


def stage_pipeline(cfg: PipelineConfig) -> dict:
    stage_distill(cfg)
    stage_sense(cfg)
    stage_profile(cfg)
    stage_plan(cfg)
    stage_quantize(cfg)
    stage_eval(cfg)
    report = assemble_report(cfg)
    out = _out(cfg)
    _write_json(out / ART_REPORT_JSON, report)
    import csv as _csv

    with open(out / ART_REPORT_CSV, "w", newline="") as fh:
        _csv.writer(fh).writerows(_report_csv_rows(report))
    print(f"plan: {report['plan']['weight_bits']}  "
          f"size: {report['sizes']['weight_bits_total']}/{report['sizes']['limit_bits']} weight bits")
    for name, r in report["eval"]["variants"].items():
        print(f"  {name:<8} accuracy={r['accuracy']:.4f} agreement={r['agreement']:.4f} "
              f"cycles={r['total_cycles']}")
    print(f"report: {out / ART_REPORT_JSON}")
    return report


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbit",
        description="Plan mixed 4/8-bit quantization for a small CNN under a size budget.",
    )
    parser.add_argument("--version", action="version", version=f"mixbit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    stages = {
        "distill": "synthesize a calibration batch from batch-norm statistics",
        "sense": "score per-layer sensitivity on the distilled batch",
        "profile": "cost every layer on the accelerator model",
        "plan": "solve the bit allocation under the size budget",
        "quantize": "freeze grids and integer weights for the planned bits",
        "eval": "compare fp32 / int8 / int4 / planned variants",
        "pipeline": "run all stages and write the final report",
    }
    for name, help_text in stages.items():
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


_STAGES = {
    "distill": stage_distill,
    "sense": stage_sense,
    "profile": stage_profile,
    "plan": stage_plan,
    "quantize": stage_quantize,
    "eval": stage_eval,
    "pipeline": stage_pipeline,
}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("MIXBIT_LOG", "INFO").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        _STAGES[args.command](cfg)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelFormatError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasiblePlanError, InfeasibleHardwareError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericFailureError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
