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
import csv
import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import sys
import typing
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
    ShapeMismatchError,
    UnsupportedLayerError,
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
_EVAL_VARIANTS = (*_UNIFORM_BITS, "planned")


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
            raise ConfigError(f"sensitivity.alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise ConfigError(f"sensitivity.seed must be non-negative, got {self.seed}")
        if self.method not in ("mqe", "naive"):
            raise ConfigError(f"sensitivity.method must be 'mqe' or 'naive', got {self.method!r}")
        if self.base_bits not in (4, 8):
            raise ConfigError(f"sensitivity.base_bits must be 4 or 8, got {self.base_bits}")
        if self.naive_bits not in (4, 8, 32):
            raise ConfigError(f"sensitivity.naive_bits must be 4, 8, or 32, got {self.naive_bits}")


@dataclass(frozen=True)
class EvalConfig:
    """The `eval` section: size, input noise and seed of the synthetic eval set."""

    samples: int = 256
    noise: float = 0.1
    seed: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"eval.samples must be >= 1, got {self.samples}")
        if not 0.0 <= self.noise < math.inf:
            raise ConfigError(f"eval.noise must be finite and non-negative, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"eval.seed must be non-negative, got {self.seed}")


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
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

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

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string"}


def _typed(value, hint, where: str):
    """value checked against a field's JSON type; ints widen to float fields."""
    kinds = typing.get_args(hint) or (hint,)
    if value is None and type(None) in kinds:
        return None
    kind = kinds[0]
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where}: expected {_JSON_TYPES[kind]}, got {json.dumps(value)}")
    return value


def _build(cls, doc, path: str, defaults: dict):
    """Instantiate dataclass cls from the JSON object doc.

    Section fields recurse into their own objects; a key missing from doc
    takes defaults[key], else the field's own default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path.rstrip('.')}: must be a JSON object, got {json.dumps(doc)}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    for key in doc:
        if key not in names:
            raise ConfigError(f"{path}{key}: unknown configuration key")
    kwargs = {}
    for name in names:
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build(hints[name], doc.get(name, {}), f"{path}{name}.", defaults.get(name, {}))
        elif name in doc:
            kwargs[name] = _typed(doc[name], hints[name], f"{path}{name}")
        elif name in defaults:
            kwargs[name] = defaults[name]
    return cls(**kwargs)


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
        if isinstance(target, dict):  # _build rejects a section that is not an object
            target[leaf] = value
            target.pop(drops, None)
    # the first build checks the master seed that unset sub-seeds then follow
    seed = _build(PipelineConfig, doc, "", {}).seed
    return _build(PipelineConfig, doc, "", {"distill": {"seed": seed}, "sensitivity": {"seed": seed},
                                            "eval": {"seed": seed + 1}})


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
    except (OSError, ValueError, KeyError, TypeError, OverflowError, ConfigError) as exc:
        raise ConfigError(f"malformed artifact {path.name} ({exc!r}): "
                          f"rerun `mixbit {produced_by}`") from exc


def write_bundled_model(cfg: PipelineConfig, command: str) -> None:
    """Unless a model is configured, put the bundled toy CNN for cfg.seed in the output directory.

    distill and pipeline start a run from the model alone, so they rebuild it
    from the seed and overwrite whatever an earlier run left. Every other
    stage reads artifacts made from the model already there: it writes the
    model only when it is missing, and raises ConfigError when the one there
    is not this seed's, instead of mixing two models in one run.
    """
    if cfg.model:
        return
    net = zoo.toy_cnn(cfg.seed)
    path = _out(cfg) / ART_MODEL
    if command in ("distill", "pipeline") or not path.exists():
        m.save_model(net, path)
        log.info("wrote bundled toy model to %s", path)
        return
    manifest, blob = m.model_files(net, path)
    try:
        same = path.read_text() == manifest and m.blob_path_for(path).read_bytes() == blob
    except OSError:
        same = False
    if not same:
        raise ConfigError(f"{path} is not the bundled model for seed {cfg.seed}: the earlier stages ran "
                          f"with another --seed; give every stage the same --seed, or rerun `mixbit distill`")


def ensure_model(cfg: PipelineConfig) -> tuple[m.ModelGraph, Path]:
    """Load the configured model, or the bundled one write_bundled_model wrote."""
    path = Path(cfg.model) if cfg.model else _out(cfg) / ART_MODEL
    return m.load_model(path), path


def _load_distilled(cfg: PipelineConfig) -> SyntheticBatch:
    out = _out(cfg)

    def parse(doc: dict) -> SyntheticBatch:
        blob = out / doc["blob"]
        flat = np.frombuffer(blob.read_bytes(), dtype="<f4")
        need = math.prod(doc["shape"])  # Python arithmetic: a huge or infinite entry does not overflow
        if flat.size != need:
            raise ValueError(f"{blob.name} holds {flat.size} values, shape {doc['shape']} needs {need}")
        return SyntheticBatch(
            data=flat.reshape(doc["shape"]).astype(np.float32),
            final_loss=float(doc["final_loss"]),
            loss_history=[float(v) for v in doc["loss_history"]],
            seed=int(doc["seed"]),
        )

    return _read_artifact(out / ART_DISTILLED, "distill", parse)


def _load_profile(cfg: PipelineConfig) -> HwProfile:
    def parse(doc: dict) -> HwProfile:
        profile = HwProfile.from_dict(doc)
        if profile.candidates != quant.BIT_CHOICES:  # the bit-widths stage_profile costs
            raise ConfigError(f"candidates {list(profile.candidates)} are not {list(quant.BIT_CHOICES)}")
        return profile

    return _read_artifact(_out(cfg) / ART_PROFILE_JSON, "profile", parse)


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
    sc = cfg.sensitivity
    if sc.method == "mqe":
        report = mqe_sensitivity(net, batch.data, alpha=sc.alpha, seed=sc.seed, base_bits=sc.base_bits)
    else:
        report = naive_sensitivity(net, batch.data, bits=sc.naive_bits)
    _write_json(_out(cfg) / ART_SENSITIVITY, report.to_dict())
    log.info("sensitivity (%s): %s", report.method, np.round(report.omega, 6).tolist())
    return report


def stage_profile(cfg: PipelineConfig) -> HwProfile:
    net, _ = ensure_model(cfg)
    profile = profile_model(net, quant.BIT_CHOICES, cfg.hardware)
    out = _out(cfg)
    _write_json(out / ART_PROFILE_JSON, profile.to_dict())
    profile.save_csv(out / ART_PROFILE_CSV)
    log.info("profiled %d rows, l_max=%d", len(profile.rows), profile.bram.l_max)
    return profile


def stage_plan(cfg: PipelineConfig) -> PlanResult:
    report = _read_artifact(_out(cfg) / ART_SENSITIVITY, "sense", SensitivityReport.from_dict)
    plan = plan_pipeline(report, _load_profile(cfg), cfg.planner)
    _write_json(_out(cfg) / ART_PLAN, {"planner": dataclasses.asdict(cfg.planner), **plan.to_dict()})
    log.info("plan: %s (objective %.6g)", plan.weight_bits, plan.objective)
    return plan


def _plan_bit_config(plan_doc: dict) -> quant.BitConfig:
    wb = plan_doc["weight_bits"]
    if type(wb) is not list or any(type(b) is not int or b not in (BIT_LOW, BIT_HIGH) for b in wb):
        raise ConfigError(f"weight_bits must be a list of {BIT_LOW} and {BIT_HIGH}, got {json.dumps(wb)}")
    # rebuilt to reject a missing or bad key
    planner_cfg = PlannerConfig(**{f.name: plan_doc["planner"][f.name] for f in dataclasses.fields(PlannerConfig)})
    ab = [8] * len(wb) if planner_cfg.activation_bits == "8" else list(wb)
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
            entry["weight"] = {**dataclasses.asdict(wp), "offset": offset, "count": codes.size,
                               "shape": list(codes.shape)}
            blob += codes.tobytes()
            offset += codes.size
        entry["activation"] = None if ap is None else dataclasses.asdict(ap)
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


def stage_eval(cfg: PipelineConfig) -> dict:
    net, _ = ensure_model(cfg)
    batch = _load_distilled(cfg)
    planned = _read_artifact(_out(cfg) / ART_PLAN, "plan", _plan_bit_config)
    profile = _load_profile(cfg)
    count = len(m.weighted_layers(net))

    _, calib = m.forward(net, batch.data, record=True)  # shared by every variant's grids

    results = {}
    fp_preds = labels = None
    for name in _EVAL_VARIANTS:
        bit_cfg = quant.BitConfig.uniform(count, _UNIFORM_BITS[name]) if name in _UNIFORM_BITS else planned
        qm = quant.quantize_model(net, bit_cfg, batch.data, calib)
        # the eval set is drawn and run one chunk at a time; only predictions are kept
        preds, ys = zip(*((quant.quantized_forward(qm, xs).argmax(axis=1), ys)
                          for xs, ys in zoo.eval_batches(net, cfg.eval.samples, cfg.eval.noise, cfg.eval.seed)))
        preds = np.concatenate(preds)
        if name == "fp32":
            fp_preds, labels = preds, np.concatenate(ys)
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
    doc = {**dataclasses.asdict(cfg.eval), "variants": results}
    _write_json(_out(cfg) / ART_EVAL, doc)
    for name in _EVAL_VARIANTS:
        r = results[name]
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
    profile = _load_profile(cfg)
    plan_doc = _read_artifact(out / ART_PLAN, "plan")
    quant_doc = _read_artifact(out / ART_QUANTIZED, "quantize")
    eval_doc = _read_artifact(out / ART_EVAL, "eval")

    omega = np.asarray(sense_doc["omega"], dtype=np.float64)
    w_hat, c_hat, e_hat, scores = blend_scores(omega, profile, float(plan_doc["planner"]["beta"]),
                                               float(plan_doc["planner"]["gamma"]))

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
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k not in ("model", "output_dir")},
        "model": {
            "sha256": digest,
            "input_shape": list(net.input_shape),
            "class_count": net.class_count,
            "weighted_layers": len(m.weighted_layers(net)),
        },
        "bram": dataclasses.asdict(profile.bram),
        "layers": layer_rows,
        "plan": {**{f.name: plan_doc[f.name] for f in dataclasses.fields(PlanResult)},
                 "activation_bits": quant_doc["activation_bits"]},
        "sizes": {**quant_doc["size"], "limit_bits": plan_doc["limit_bits"]},
        "eval": eval_doc,
    }
    report["meta"]["canonical_sha256"] = canonical_hash(report)
    return report


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
    with open(out / ART_REPORT_CSV, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ("layer_index", "kind", "weight_elems", "omega", "omega_hat", "c_hat", "e_hat",
                                     "score", "bits", "weight_size_bits", "compute", "transfer", "write_back",
                                     "post_process", "total_cycles", "energy"), extrasaction="ignore")
        writer.writeheader()
        writer.writerows({**r, **r["cycles"], "total_cycles": r["cycles"]["total"]} for r in report["layers"])
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
        write_bundled_model(cfg, args.command)
        _STAGES[args.command](cfg)
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


if __name__ == "__main__":
    sys.exit(main())
