"""Benchmark for `mixbit pipeline` and the planner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy_default --seed 0 --seconds 25 --trace 0

--workload is one of toy_default, res32_mqe, plan_resnet (see workloads.py), or
`all` (the default), which runs each of them in turn in a fresh Python process.
The inputs are built from --seed, then operations repeat for --seconds (at
least three of them) on those same inputs, each in a fresh output directory.
Every operation's outputs are checked; an operation failing a check counts in
`failed`.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported. With
--trace 1 untraced and traced operations alternate and the per-layer metrics
are reported, from timing wrappers installed around the package's public
functions (spans.py); their values are medians over the traced operations.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")  # scratch space, relative to ROOT
SETUP_REPEATS = 3
MIN_OPERATIONS = 3
WORKLOAD_NAMES = ("toy_default", "res32_mqe", "plan_resnet")

# Traced public functions: each reports .calls, .busy_s and .self_s.
SPAN_LAYERS = (
    "cli.stage_distill", "cli.stage_sense", "cli.stage_profile", "cli.stage_plan",
    "cli.stage_quantize", "cli.stage_eval", "cli.assemble_report",
    "distill.synthesize",
    "model.input_gradient", "model.forward", "model.run_layers", "model.validate_model",
    "quant.quantize_model", "quant.quantized_forward", "quant.fake_quantize",
    "sensitivity.mqe_sensitivity", "sensitivity.kl_divergence",
    "hwsim.profile_model",
    "planner.solve_bitplan",
)
# Functions whose calls are only counted (.calls).
COUNTED = ("quant.dequantize", "sensitivity.mask_weights", "hwsim.HwProfile.cost")
# Values the wrappers accumulate per operation, besides the counts above.
TRACED_VALUES = ("distill.steps", "distill.final_loss", "model.run_layers.macs",
                 "planner.solver_cells", "planner.solve_bitplan.peak_mb")


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "default_threads": blas_threads(np)},
        "cpu_count": len(os.sched_getaffinity(0)),
    }


def blas_threads(np):
    """OpenBLAS's thread count as loaded (left at its default), or None if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports mixbit from this checkout."""
    begin = perf_counter()
    subprocess.run([sys.executable, "-c", "import mixbit"], check=True,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return perf_counter() - begin


def resolve(mixbit, dotted: str):
    owner = mixbit
    *path, attribute = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def install(tracer, mixbit, macs_per_sample) -> None:
    macs_cache = {}  # id(model) -> (model, MACs per sample); the model ref pins the id

    def count_macs(args, result):
        net, batch = args[0], args[1]
        if id(net) not in macs_cache:
            macs_cache[id(net)] = (net, macs_per_sample(net))
        tracer.values["model.run_layers.macs"] += macs_cache[id(net)][1] * batch.shape[0]

    def distilled(args, batch):
        tracer.values["distill.steps"] += len(batch.loss_history)
        tracer.values["distill.final_loss"] = batch.final_loss

    def planned(args, plan):
        tracer.values["planner.solver_cells"] += plan.solver_cells

    after = {"model.run_layers": count_macs, "distill.synthesize": distilled,
             "planner.solve_bitplan": planned}
    for name in SPAN_LAYERS:
        owner, attribute = resolve(mixbit, name)
        wrapper = tracer.span(name, getattr(owner, attribute), after.get(name))
        if name == "planner.solve_bitplan":
            wrapper = tracer.peak_memory(f"{name}.peak_mb", wrapper)
        tracer.patch(owner, attribute, wrapper)
    for name in COUNTED:
        owner, attribute = resolve(mixbit, name)
        tracer.patch(owner, attribute, tracer.counter(f"{name}.calls", getattr(owner, attribute)))


def layer_metrics(tracer, outcome) -> dict:
    """Per-layer values of one traced operation."""
    times = tracer.layer_times()
    out = {}
    for name in SPAN_LAYERS:
        calls, busy, own = times.get(name, (0, 0.0, 0.0))
        out.update({f"{name}.calls": calls, f"{name}.busy_s": busy, f"{name}.self_s": own})
    for name in (*(f"{name}.calls" for name in COUNTED), *TRACED_VALUES):
        out[name] = tracer.values[name]
    busy = out["model.run_layers.busy_s"]
    out["model.run_layers.gmacs_per_s"] = out["model.run_layers.macs"] / busy / 1e9 if busy else 0.0
    seen = outcome.observed
    out["cli.artifact_bytes"] = seen.get("artifact_bytes", 0)
    out["cli.quantized_bin_bytes"] = seen.get("quantized_bin_bytes", 0)
    out["eval.planned_accuracy"] = seen.get("planned_accuracy", 0.0)
    return out


def median(samples: list):
    """Median; for whole numbers (counts) one of the samples, so counts stay exact."""
    if all(isinstance(v, int) for v in samples):
        return statistics.median_low(samples)
    return statistics.median(samples)


def percentile_note(count: int) -> str:
    # the highest percentile that still has ten samples above it
    if count <= 10:
        return f"n={count}; no percentile has ten samples beyond it"
    return f"n={count}; p{100.0 * (count - 10) / count:.1f} is the highest with ten beyond it"


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import mixbit
    import workloads
    from spans import Tracer

    if Path(mixbit.__file__).resolve().parent != ROOT / "src" / "mixbit":
        print(f"imported mixbit from {mixbit.__file__}, not from this checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        import_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(fresh_import_seconds())
            begin = perf_counter()
            state = workload.setup(args.seed, WORK)
            setup_times.append(perf_counter() - begin)

        tracer = Tracer(vars(mixbit)[name] for name in
                        ("cli", "distill", "hwsim", "model", "planner", "quant", "sensitivity", "zoo"))
        plain_s, traced_s, traced_rows = [], [], []
        attempted = failed = 0
        signature = None
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "env": environment(np)}
        begin = perf_counter()
        while perf_counter() - begin < args.seconds or (
                len(traced_s) < 1 if args.trace else attempted < MIN_OPERATIONS):
            traced = bool(args.trace) and attempted % 2 == 1
            out = WORK / f"op{attempted}"
            if traced:
                tracer.reset()
                install(tracer, mixbit, workloads.macs_per_sample)
            try:
                outcome = workloads.run_operation(workload, state, out)
            finally:
                tracer.uninstall()
            attempted += 1
            if signature is None:
                signature = outcome.signature
            elif outcome.signature != signature:
                outcome.problems.append("output differs from the run's first operation")
            if outcome.problems:
                failed += 1
                print(f"operation {attempted} failed: " + "; ".join(outcome.problems), file=sys.stderr)
            (traced_s if traced else plain_s).append(outcome.seconds)
            if traced:
                traced_rows.append(layer_metrics(tracer, outcome))
            if "canonical_sha256" not in info and hasattr(workload, "model_path") and not outcome.problems:
                net = mixbit.model.load_model(workload.model_path(state, out))
                info["macs_per_sample_computed"] = workloads.macs_per_sample(net)
                info["planned_accuracy"] = outcome.observed.get("planned_accuracy")
                info["canonical_sha256"] = signature
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.trace:
        values = {name: median([row[name] for row in traced_rows]) for name in traced_rows[0]}
        values["trace.run_s"] = statistics.median(traced_s)
        values["trace.untraced_run_s"] = statistics.median(plain_s)
        values["trace.overhead_frac"] = values["trace.run_s"] / values["trace.untraced_run_s"] - 1.0
        declared = spec["per_layer"]
    else:
        values = {
            "run_s": statistics.median(plain_s),
            "setup_s": statistics.median(import_times) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        declared = spec["end_to_end"]
        info["run_s_samples"] = percentile_note(len(plain_s))
        info["setup_s_parts"] = {"import_s": import_times, "build_s": setup_times}
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    info["operation_s"] = plain_s
    if args.trace:
        info["traced_operation_s"] = traced_s
    info["failed_frac"] = failed / attempted
    print(json.dumps(info, sort_keys=True))
    for name in sorted(values):
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh Python process, one at a time."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    if not (ROOT / "src" / "mixbit" / "__init__.py").is_file():
        print(f"no mixbit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ["MIXBIT_LOG"] = "WARNING"  # keep log output out of the timed operations
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
