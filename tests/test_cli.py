import argparse
import contextvars
import copy
import dataclasses
import hashlib
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest

from mixbit import cli, errors, hwsim, planner, quant, zoo
from mixbit import model as m


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


LIGHT = {
    "distill": {"steps": 80, "batch_size": 16},
    "eval": {"samples": 64},
}


def _overrides(**kw):
    base = dict(config=None, out=None, seed=None, ratio=None, alpha=None,
                beta=None, method=None, bits_activations=None)
    base.update(kw)
    return argparse.Namespace(**base)


def _small_net():
    """1x4x4 input: conv 1->3 k3 pad 1 (27 weights), BN, ReLU, AvgPool 4, Linear 3->5 (15 weights)."""
    rng = np.random.default_rng(0)
    return m.ModelGraph(layers=[
        m.Conv2d(1, 3, 3, 3, padding=1, weight=rng.standard_normal((3, 1, 3, 3), dtype=np.float32),
                 bias=np.zeros(3, dtype=np.float32)),
        m.BatchNorm(3, running_mean=np.zeros(3, dtype=np.float32), running_var=np.ones(3, dtype=np.float32),
                    gamma=np.ones(3, dtype=np.float32), beta=np.zeros(3, dtype=np.float32)),
        m.ReLU(),
        m.AvgPool(4, 4),
        m.Linear(3, 5, weight=rng.standard_normal((5, 3), dtype=np.float32),
                 bias=np.zeros(5, dtype=np.float32)),
    ], input_shape=(1, 4, 4), class_count=5)


@pytest.fixture(scope="module")
def light_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(LIGHT))
    return str(path)


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.fixture(scope="module")
def pipeline_run(light_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    rc = cli.main(["pipeline", "--config", light_config, "--out", str(out), "--seed", "0"])
    assert rc == cli.EXIT_OK
    report = json.loads((out / cli.ART_REPORT_JSON).read_text())
    made = _digests(out)
    yield out, report
    # tests that rerun a stage work on a copy, so every test reads what the pipeline made
    assert _digests(out) == made, "a test changed the shared pipeline run"


# name -> (artifact, edit, dotted key the reader names, stages that read the artifact)
_STORED_SECTION_MUTATIONS = {
    "lanes_true": (cli.ART_PROFILE_JSON, lambda d: d["config"].update(lanes=True), "config.lanes", ("plan", "eval")),
    "l_max_string": (cli.ART_PROFILE_JSON, lambda d: d["bram"].update(l_max="x"), "bram.l_max", ("plan", "eval")),
    "l_max_64": (cli.ART_PROFILE_JSON, lambda d: d["bram"].update(l_max=64), "bram", ("plan", "eval")),
    "weight_blocks_1": (cli.ART_PROFILE_JSON, lambda d: d["bram"].update(weight_blocks=1), "bram", ("plan", "eval")),
    "bram_total_10": (cli.ART_PROFILE_JSON, lambda d: d["config"].update(bram_total=10), "bram", ("plan", "eval")),
    "float_candidate": (cli.ART_PROFILE_JSON, lambda d: d.update(candidates=[4.0, 8, 32]), "candidates", ("plan",)),
    "unknown_profile_key": (cli.ART_PROFILE_JSON, lambda d: d.update(bogus=1), "bogus", ("plan", "eval")),
    "unknown_row_key": (cli.ART_PROFILE_JSON, lambda d: d["rows"][0].update(extra=3), "rows[0].extra",
                        ("plan", "eval")),
    "unknown_cost_key": (cli.ART_PROFILE_JSON, lambda d: d["rows"][0]["cost"].update(extra=3), "rows[0].cost.extra",
                         ("plan", "eval")),
    "beta_true": (cli.ART_PLAN, lambda d: d["planner"].update(beta=True, gamma=0.0), "planner.beta",
                  ("quantize", "eval")),
    "fractional_limit_bits": (cli.ART_PLAN, lambda d: d["planner"].update(limit_bits=1.5, ratio=None),
                              "planner.limit_bits", ("quantize", "eval")),
    "unknown_planner_key": (cli.ART_PLAN, lambda d: d["planner"].update(bogus=1), "planner.bogus", ("quantize",)),
    "string_objective": (cli.ART_PLAN, lambda d: d.update(objective="x"), "objective", ("quantize", "eval")),
    "unknown_plan_key": (cli.ART_PLAN, lambda d: d.update(bogus=1), "bogus", ("quantize",)),
}


class TestPipeline:
    def test_all_artifacts_written(self, pipeline_run):
        out, _ = pipeline_run
        for name in (cli.ART_MODEL, cli.ART_DISTILLED, "distilled.bin", cli.ART_SENSITIVITY,
                     cli.ART_PROFILE_JSON, cli.ART_PROFILE_CSV, cli.ART_PLAN,
                     cli.ART_QUANTIZED, "quantized.bin", cli.ART_EVAL,
                     cli.ART_REPORT_JSON, cli.ART_REPORT_CSV):
            assert (out / name).exists(), name

    def test_report_matches_schema(self, pipeline_run):
        _, report = pipeline_run
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_report_layer_rows(self, pipeline_run):
        _, report = pipeline_run
        assert report["model"]["weighted_layers"] == 5
        assert len(report["layers"]) == 5
        plan_bits = report["plan"]["weight_bits"]
        for row, bits in zip(report["layers"], plan_bits):
            assert row["bits"] == bits
            assert row["weight_size_bits"] == row["weight_elems"] * bits
            assert row["cycles"]["total"] == sum(
                row["cycles"][k] for k in ("compute", "transfer", "write_back", "post_process"))

    def test_report_scores_are_the_planned_scores(self, pipeline_run):
        _, report = pipeline_run
        scores = [row["score"] for row in report["layers"]]
        assert planner.plan_objective(scores, report["plan"]["weight_bits"]) == report["plan"]["objective"]

    def test_size_within_limit(self, pipeline_run):
        _, report = pipeline_run
        assert report["sizes"]["weight_bits_total"] <= report["sizes"]["limit_bits"]
        assert report["plan"]["achieved_size_bits"] == report["sizes"]["weight_bits_total"]

    def test_eval_variants_complete(self, pipeline_run):
        _, report = pipeline_run
        variants = report["eval"]["variants"]
        assert set(variants) == {"fp32", "int8", "int4", "planned"}
        assert variants["fp32"]["agreement"] == 1.0
        assert variants["int8"]["weight_bits"] == [8] * 5
        assert variants["int4"]["weight_bits"] == [4] * 5
        assert variants["planned"]["weight_bits"] == report["plan"]["weight_bits"]
        # 4-bit weights halve the 8-bit footprint on this model
        assert variants["int4"]["weight_bits_total"] * 2 == variants["int8"]["weight_bits_total"]

    def test_embedded_hash_is_self_consistent(self, pipeline_run):
        _, report = pipeline_run
        assert report["meta"]["canonical_sha256"] == cli.canonical_hash(report)

    def test_quantized_blob_holds_each_layers_codes(self, pipeline_run):
        out, _ = pipeline_run
        doc = json.loads((out / cli.ART_QUANTIZED).read_text())
        blob = np.frombuffer((out / doc["blob"]).read_bytes(), dtype="<i1")
        net = m.load_model(out / cli.ART_MODEL)
        end = 0
        for entry in doc["layers"]:
            w = entry["weight"]
            assert w["offset"] == end  # layers follow each other with no gap or overlap
            assert w["count"] == int(np.prod(w["shape"]))
            end += w["count"]
            grid = quant.QuantParams(w["scale"], w["zero_point"], w["bits"], w["symmetric"])
            codes = blob[w["offset"]:end].reshape(w["shape"])
            want = quant.quantize(net.layers[entry["layer_index"]].weight, grid)
            np.testing.assert_array_equal(codes, want)
        assert end == blob.size

    def test_eval_runs_the_stored_planned_codes(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        before = json.loads((out / cli.ART_EVAL).read_text())["variants"]
        blob = out / "quantized.bin"
        blob.write_bytes(bytes(len(blob.read_bytes())))
        # the three uniform variants are quantized here; the planned one is read from disk
        with mock.patch.object(quant, "quantize_model", wraps=quant.quantize_model) as calls:
            assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        assert calls.call_count == 3
        after = json.loads((out / cli.ART_EVAL).read_text())["variants"]
        assert after["planned"] != before["planned"]
        assert {k: v for k, v in after.items() if k != "planned"} == {k: v for k, v in before.items() if k != "planned"}

    def test_plan_keeps_the_configured_planner_block(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        assert cli.main(["plan", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        plan, report = json.loads((out / cli.ART_PLAN).read_text()), pipeline_run[1]
        # the block is the config as given; the top-level limit_bits is the budget it resolved to
        assert plan["planner"] == dataclasses.asdict(planner.PlannerConfig())
        assert (plan["planner"]["ratio"], plan["planner"]["limit_bits"]) == (0.5, None)
        assert plan["limit_bits"] == 6 * sum(r["weight_elems"] for r in report["layers"])  # 4 + 0.5 * (8 - 4)

    def test_csv_row_count(self, pipeline_run):
        out, report = pipeline_run
        lines = (out / cli.ART_REPORT_CSV).read_text().strip().splitlines()
        assert len(lines) == 1 + len(report["layers"])


class TestDeterminism:
    def test_reports_identical_modulo_timestamp(self, light_config, pipeline_run, tmp_path):
        out_b = tmp_path / "run_b"
        rc = cli.main(["pipeline", "--config", light_config, "--out", str(out_b), "--seed", "0"])
        assert rc == cli.EXIT_OK
        report_a = copy.deepcopy(pipeline_run[1])
        report_b = json.loads((out_b / cli.ART_REPORT_JSON).read_text())

        assert cli.canonical_hash(report_a) == cli.canonical_hash(report_b)
        for doc in (report_a, report_b):
            doc["meta"].pop("timestamp")
            doc["meta"].pop("canonical_sha256")
        assert report_a == report_b

    def test_canonical_hash_does_not_depend_on_the_model_file_name(self, pipeline_run, tmp_path):
        # the bundled run saves its net as model.json; the manifest names its blob after the file
        hashes = {pipeline_run[1]["meta"]["canonical_sha256"]}
        for name in ("net", "net-0"):
            config = tmp_path / f"{name}.config.json"
            path = m.save_model(zoo.toy_cnn(0), tmp_path / f"{name}.json")
            config.write_text(json.dumps({**LIGHT, "model": str(path)}))
            out = tmp_path / f"{name}-out"
            assert cli.main(["pipeline", "--config", str(config), "--out", str(out), "--seed", "0"]) == cli.EXIT_OK
            hashes.add(json.loads((out / cli.ART_REPORT_JSON).read_text())["meta"]["canonical_sha256"])
        assert len(hashes) == 1

    def test_stagewise_run_reproduces_pipeline_report(self, light_config, pipeline_run,
                                                      tmp_path):
        out_c = tmp_path / "run_c"
        for stage in ("distill", "sense", "profile", "plan", "quantize", "eval", "report"):
            rc = cli.main([stage, "--config", light_config, "--out", str(out_c), "--seed", "0"])
            assert rc == cli.EXIT_OK, stage
        out_a, report_a = pipeline_run
        report_c = json.loads((out_c / cli.ART_REPORT_JSON).read_text())
        assert cli.canonical_hash(report_c) == cli.canonical_hash(report_a)
        untimed = [{**r, "meta": {**r["meta"], "timestamp": None}} for r in (report_a, report_c)]
        assert untimed[0] == untimed[1]
        assert (out_c / cli.ART_REPORT_CSV).read_bytes() == (out_a / cli.ART_REPORT_CSV).read_bytes()

    @pytest.mark.parametrize("run", [cli.assemble_report, cli.stage_eval, cli.stage_quantize],
                             ids=["report", "eval", "quantize"])
    def test_plan_json_is_parsed_once(self, light_config, pipeline_run, tmp_path, run):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        with mock.patch.object(cli, "build", wraps=cli.build) as build:
            run(cli.load_config(light_config, _overrides(out=str(out), seed=0)))
        assert [c.args[0] for c in build.call_args_list].count(planner.PlanResult) == 1

    def test_hash_independent_of_model_location(self, light_config, pipeline_run, tmp_path):
        out, report_a = pipeline_run
        hashes = []
        for name in ("here", "there"):
            model_dir = tmp_path / name
            model_dir.mkdir()
            for f in (cli.ART_MODEL, "model.bin"):
                (model_dir / f).write_bytes((out / f).read_bytes())
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**LIGHT, "model": str(model_dir / cli.ART_MODEL)}))
            report = cli.assemble_report(cli.load_config(str(path), _overrides(out=str(out), seed=0)))
            assert report["meta"]["model_path"] == str(model_dir / cli.ART_MODEL)
            hashes.append(cli.canonical_hash(report))
        assert hashes == [cli.canonical_hash(report_a)] * 2

        # the model's bytes, unlike its location, enter the hash
        blob = bytearray((tmp_path / "there" / "model.bin").read_bytes())
        blob[0] ^= 1
        (tmp_path / "there" / "model.bin").write_bytes(bytes(blob))
        cfg = cli.load_config(str(tmp_path / "there.json"), _overrides(out=str(out), seed=0))
        assert cli.canonical_hash(cli.assemble_report(cfg)) != hashes[0]

    def test_integer_and_float_spellings_hash_alike(self, tmp_path):
        hashes = []
        for power in (2, 2.0):  # json.dumps writes these as 2 and 2.0
            path = tmp_path / f"power_{power}.json"
            path.write_text(json.dumps({**LIGHT, "hardware": {"static_power": power}}))
            out = tmp_path / f"out_{power}"
            assert cli.main(["pipeline", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
            hashes.append(json.loads((out / cli.ART_REPORT_JSON).read_text())["meta"]["canonical_sha256"])
        assert hashes[0] == hashes[1]

    def test_bundled_model_follows_seed(self, tmp_path):
        # a directory that holds a seed-0 run must not lend its model to a seed-1 run
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 4}}))
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        for seed, out in (("0", reused), ("1", reused), ("1", fresh)):
            assert cli.main(["distill", "--config", str(config), "--seed", seed, "--out", str(out)]) == cli.EXIT_OK
        for name in (cli.ART_MODEL, "model.bin", "distilled.bin"):
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
        m.save_model(zoo.toy_cnn(1), tmp_path / "seed1" / cli.ART_MODEL)
        assert (reused / "model.bin").read_bytes() == (tmp_path / "seed1" / "model.bin").read_bytes()

    def test_later_stage_with_another_seed_exits_2(self, tmp_path, capsys):
        # sense must not score the seed-0 model on a batch distilled from the seed-5 one
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 4}}))
        out = tmp_path / "out"
        assert cli.main(["distill", "--config", str(config), "--seed", "5", "--out", str(out)]) == cli.EXIT_OK
        blob = (out / "model.bin").read_bytes()
        assert cli.main(["sense", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed 0" in err and "--seed" in err
        assert (out / "model.bin").read_bytes() == blob
        assert not (out / cli.ART_SENSITIVITY).exists()
        assert cli.main(["sense", "--config", str(config), "--seed", "5", "--out", str(out)]) == cli.EXIT_OK

    def test_plan_artifact_identical_across_runs(self, light_config, tmp_path):
        plans = []
        for name in ("a", "b"):
            out = tmp_path / name
            for stage in ("distill", "sense", "profile", "plan"):
                assert cli.main([stage, "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
            plans.append((out / cli.ART_PLAN).read_bytes())
        assert plans[0] == plans[1]


class TestStageFlags:
    def test_plan_ratio_extremes(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        rc = cli.main(["plan", "--config", light_config, "--out", str(out), "--ratio", "0.0"])
        assert rc == cli.EXIT_OK
        assert json.loads((out / cli.ART_PLAN).read_text())["weight_bits"] == [4] * 5

        rc = cli.main(["plan", "--config", light_config, "--out", str(out),
                       "--ratio", "1.0", "--beta", "1.0"])
        assert rc == cli.EXIT_OK
        assert json.loads((out / cli.ART_PLAN).read_text())["weight_bits"] == [8] * 5

    def test_ratio_zero_with_odd_weight_counts(self, tmp_path):
        # 27 conv and 15 linear weights: the all-4-bit floor is 168 bits
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": str(m.save_model(_small_net(), tmp_path / "odd.json")),
                                      "distill": {"steps": 5}}))
        out = tmp_path / "out"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out), "--ratio", "0"])
        assert rc == cli.EXIT_OK
        plan = json.loads((out / cli.ART_PLAN).read_text())
        assert (plan["weight_bits"], plan["achieved_size_bits"], plan["limit_bits"]) == ([4, 4], 168, 168)

    def test_method_override(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        rc = cli.main(["sense", "--config", light_config, "--out", str(out),
                       "--seed", "0", "--method", "naive"])
        assert rc == cli.EXIT_OK
        doc = json.loads((out / cli.ART_SENSITIVITY).read_text())
        assert doc["method"] == "naive"
        assert doc["alpha"] is None

    def test_activation_bits_override(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        rc = cli.main(["plan", "--config", light_config, "--out", str(out),
                       "--bits-activations", "8"])
        assert rc == cli.EXIT_OK
        rc = cli.main(["quantize", "--config", light_config, "--out", str(out), "--seed", "0"])
        assert rc == cli.EXIT_OK
        layers = json.loads((out / cli.ART_QUANTIZED).read_text())["layers"]
        assert [layer["activation"]["bits"] for layer in layers] == [8] * 5
        assert {layer["weight"]["bits"] for layer in layers} <= {4, 8}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "mixbit" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("sub", ["", "sub"], ids=["existing_file", "below_a_file"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, sub):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / sub
        assert cli.main(["profile", "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: output_dir: cannot make directory {out}")

    @pytest.mark.parametrize("name", [cli.ART_MODEL, "model.bin",
                                      *(name for _, writes in cli._STAGES.values() for name in writes)])
    def test_an_artifact_that_cannot_be_written_exits_2(self, tmp_path, capsys, name):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 4}, "eval": {"samples": 8}}))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)  # a directory where the artifact goes
        assert cli.main(["pipeline", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot write artifact {name}: ")

    @pytest.mark.parametrize("name, make", [(cli.ART_MODEL, Path.mkdir), ("model.bin", None)],
                             ids=["model_json_is_a_directory", "model_bin_is_missing"])
    def test_a_bundled_model_that_cannot_be_read_exits_2(self, tmp_path, capsys, name, make):
        out = tmp_path / "o"
        m.save_model(zoo.toy_cnn(0), out / cli.ART_MODEL)  # this seed's model, but for the file at fault
        (out / name).unlink()
        if make:
            make(out / name)
        assert cli.main(["sense", "--out", str(out), "--seed", "0"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read artifact {name}: ") and "another --seed" not in err

    @pytest.mark.parametrize("argv, config, code", [
        (["profile"], None, cli.EXIT_OK),
        (["plan", "--ratio", "2"], None, cli.EXIT_CONFIG),
        (["pipeline"], {"distill": {"steps": 50, "learning_rate": 120}}, cli.EXIT_NUMERIC),
    ], ids=["ok", "bad_ratio", "diverged"])
    def test_main_puts_back_the_blas_thread_count_and_the_part_count(self, tmp_path, argv, config, code):
        blas = cli._openblas()

        def read():
            """OpenBLAS's thread count, the part count, and whether this context holds a part count of its own."""
            return blas and blas[0](), m._max_parts.get(), m._max_parts in contextvars.copy_context()

        before, during, write = read(), [], cli.write_bundled_model
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(tmp_path / "config.json")]
        with mock.patch.object(cli, "write_bundled_model", lambda *args: during.append(read()) or write(*args)):
            assert cli.main([*argv, "--out", str(tmp_path / "o")]) == code
        assert read() == before == (before[0], 1, False)
        if blas is not None and code != cli.EXIT_CONFIG:
            assert during == [(1, len(os.sched_getaffinity(0)), True)]

    def test_out_is_made_before_a_configured_model_runs(self, tmp_path, capsys):
        model = m.save_model(zoo.toy_cnn(0), tmp_path / "toy.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": str(model)}))
        (tmp_path / "file").write_text("")
        with mock.patch.object(cli, "synthesize") as synthesize:
            assert cli.main(["distill", "--config", str(config), "--out", str(tmp_path / "file")]) == cli.EXIT_CONFIG
        synthesize.assert_not_called()
        assert "output_dir: cannot make directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, missing, producer", [
        ("sense", cli.ART_DISTILLED, "distill"),
        ("plan", cli.ART_SENSITIVITY, "sense"),
        ("plan", cli.ART_PROFILE_JSON, "profile"),
        ("quantize", cli.ART_PLAN, "plan"),
        ("eval", cli.ART_QUANTIZED, "quantize"),
        ("report", cli.ART_EVAL, "eval"),
    ])
    def test_missing_artifact_names_prior_stage(self, light_config, pipeline_run, tmp_path, capsys,
                                                command, missing, producer):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        (out / missing).unlink()
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"missing artifact {missing}: run `mixbit {producer}` first" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("variants"), "KeyError('variants')"),
        (lambda d: d["variants"]["planned"].update(accuracy="x"),
         'variants.planned.accuracy: expected a number, got "x"'),
    ], ids=["no_variants", "string_accuracy"])
    def test_malformed_eval_json_exits_2_in_report(self, light_config, pipeline_run, tmp_path, capsys, edit,
                                                   message):
        # the report checks what its summary prints before it writes anything
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_EVAL).read_text())
        edit(doc)
        (out / cli.ART_EVAL).write_text(json.dumps(doc))
        assert cli.main(["report", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert cli.ART_EVAL in err and message in err and "rerun `mixbit eval`" in err
        assert (out / cli.ART_REPORT_JSON).read_bytes() == (pipeline_run[0] / cli.ART_REPORT_JSON).read_bytes()

    def test_invalid_json_artifact(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / cli.ART_SENSITIVITY).write_text('{"omega": [0.1,')
        rc = cli.main(["plan", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sensitivity.json" in err
        assert "mixbit sense" in err

    def test_truncated_distilled_blob(self, light_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["distill", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        blob = out / "distilled.bin"
        blob.write_bytes(blob.read_bytes()[:-4])
        rc = cli.main(["sense", "--config", light_config, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "distilled.bin" in err
        assert "mixbit distill" in err

    @pytest.mark.parametrize("shape", [[4, 3, 8, 1e308], [4, 3, 8, float("inf")]], ids=["huge", "infinite"])
    def test_distilled_shape_of_non_integers(self, light_config, pipeline_run, tmp_path, capsys, shape):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_DISTILLED).read_text())
        doc["shape"] = shape
        (out / cli.ART_DISTILLED).write_text(json.dumps(doc))
        assert cli.main(["sense", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "distilled.json" in err and "shape" in err and "mixbit distill" in err

    def test_plan_without_weight_bits(self, light_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["distill", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        (out / cli.ART_PLAN).write_text(json.dumps({"objective": 1.0}))
        rc = cli.main(["quantize", "--config", light_config, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plan.json" in err
        assert "weight_bits" in err
        assert "mixbit plan" in err

    @pytest.mark.parametrize("command", ["quantize", "eval"])
    @pytest.mark.parametrize("value", ["4", 16, None], ids=["str4", "int16", "missing"])
    def test_plan_with_bad_activation_bits(self, light_config, pipeline_run, tmp_path, capsys,
                                           command, value):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        plan = json.loads((out / cli.ART_PLAN).read_text())
        if value is None:
            del plan["planner"]["activation_bits"]
        else:
            plan["planner"]["activation_bits"] = value
        (out / cli.ART_PLAN).write_text(json.dumps(plan))
        rc = cli.main([command, "--config", light_config, "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plan.json" in err
        assert "activation_bits" in err
        assert "mixbit plan" in err

    def test_plan_without_planner_block_exits_2(self, light_config, pipeline_run, tmp_path, capsys):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        plan = json.loads((out / cli.ART_PLAN).read_text())
        # the layout before the planner block: its keys at the top, limit_bits resolved
        (out / cli.ART_PLAN).write_text(json.dumps({**plan.pop("planner"), **plan}))
        assert cli.main(["quantize", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plan.json" in err and "rerun `mixbit plan`" in err

    @pytest.mark.parametrize("command", ["quantize", "eval"])
    @pytest.mark.parametrize("value", ["44444", [32] * 5, [4.0] * 5, [4] * 4],
                             ids=["string", "int32", "float4", "short"])
    def test_plan_with_bad_weight_bits(self, light_config, pipeline_run, tmp_path, capsys, command, value):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        plan = json.loads((out / cli.ART_PLAN).read_text())
        plan["weight_bits"] = value
        (out / cli.ART_PLAN).write_text(json.dumps(plan))
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "plan.json" in err and "weight_bits" in err and "mixbit plan" in err

    @pytest.mark.parametrize("command, dropped, candidates", [
        ("plan", 8, [4, 8, 32]),
        ("eval", 32, [4, 8, 32]),
        ("eval", 4, [4, 8, 32]),
        ("eval", 32, [4, 8]),
    ], ids=["plan-no8", "eval-no32", "eval-no4", "eval-candidates48"])
    def test_partial_profile_exits_2(self, light_config, pipeline_run, tmp_path, capsys, command, dropped,
                                     candidates):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_PROFILE_JSON).read_text())
        doc["rows"] = [r for r in doc["rows"] if r["bits"] != dropped]
        doc["candidates"] = candidates
        (out / cli.ART_PROFILE_JSON).write_text(json.dumps(doc))
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "profile.json" in err and "rerun `mixbit profile`" in err

    @pytest.mark.parametrize("artifact, edit, message", [
        (cli.ART_SENSITIVITY, lambda d: d.update(omega=[str(v) for v in d["omega"]]), "omega: expected a number"),
        (cli.ART_PROFILE_JSON, lambda d: d["rows"][0]["cost"].update(compute=d["rows"][0]["cost"]["compute"] + 0.9),
         "rows[0].cost.compute: expected an integer"),
        (cli.ART_SENSITIVITY, lambda d: d["omega"].__setitem__(1, float("nan")), "omega: expected finite numbers"),
        (cli.ART_SENSITIVITY, lambda d: d["omega"].__setitem__(1, float("inf")), "omega: expected finite numbers"),
    ], ids=["string_omega", "fractional_compute", "nan_omega", "infinite_omega"])
    def test_artifact_field_of_the_wrong_type_exits_2(self, light_config, pipeline_run, tmp_path, capsys,
                                                       artifact, edit, message):
        # the readers check each field instead of coercing it with int() or np.asarray
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / artifact).read_text())
        edit(doc)
        (out / artifact).write_text(json.dumps(doc))
        assert cli.main(["plan", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert artifact in err and message in err

    @pytest.mark.parametrize("artifact, text, command", [
        (cli.ART_PROFILE_JSON, "[1]", "plan"),
        (cli.ART_PLAN, '"x"', "quantize"),
        (cli.ART_SENSITIVITY, "5", "plan"),
    ], ids=["profile_list", "plan_string", "sensitivity_number"])
    def test_artifact_that_is_not_an_object_exits_2(self, light_config, pipeline_run, tmp_path, capsys,
                                                    artifact, text, command):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        (out / artifact).write_text(text)
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert artifact in err and f"top level: expected an object, got {text}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(bogus=1), "bogus: unknown key"),
        (lambda d: d.pop("bits"), "bits: missing key"),
    ], ids=["unknown_key", "missing_key"])
    def test_sensitivity_keys_are_the_reports_fields(self, light_config, pipeline_run, tmp_path, capsys,
                                                     edit, message):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_SENSITIVITY).read_text())
        edit(doc)
        (out / cli.ART_SENSITIVITY).write_text(json.dumps(doc))
        assert cli.main(["plan", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert cli.ART_SENSITIVITY in err and message in err and "rerun `mixbit sense`" in err

    @pytest.mark.parametrize("command", ["sense", "quantize", "eval"])
    @pytest.mark.parametrize("edit", [
        lambda doc, values: values.__setitem__(5, np.nan),
        lambda doc, values: doc.update(shape=[doc["shape"][0], 3, 4, 16]),
    ], ids=["nan", "other_shape"])
    def test_distilled_batch_the_model_cannot_run_exits_2(self, light_config, pipeline_run, tmp_path, capsys,
                                                          command, edit):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_DISTILLED).read_text())
        values = np.fromfile(out / "distilled.bin", dtype="<f4")
        edit(doc, values)
        values.tofile(out / "distilled.bin")
        (out / cli.ART_DISTILLED).write_text(json.dumps(doc))
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert cli.ART_DISTILLED in err and "rerun `mixbit distill`" in err

    def test_stale_quantized_json_exits_2(self, light_config, pipeline_run, tmp_path, capsys):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        # a new plan with other activation widths leaves quantize's grids stale
        for args in (["plan", "--bits-activations", "plan"], ["quantize"], ["plan", "--bits-activations", "8"]):
            assert cli.main([*args, "--config", light_config, "--out", str(out)]) == cli.EXIT_OK, args
        assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert cli.ART_QUANTIZED in err and "rerun `mixbit quantize`" in err
        assert cli.main(["quantize", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, blob: blob.pop(), "quantized.bin holds"),
        (lambda doc, blob: blob.append(0), "quantized.bin holds"),
        (lambda doc, blob: doc["layers"][0]["weight"].update(scale="x"), "layers[0].weight.scale: expected a number"),
        # one above the 4-bit range [-8, 7]
        (lambda doc, blob: blob.__setitem__(next(layer["weight"]["offset"] for layer in doc["layers"]
                                                 if layer["weight"]["bits"] == 4), 8), "codes outside [-8, 7]"),
    ], ids=["truncated_blob", "extra_byte", "string_scale", "code_outside_its_grid"])
    def test_malformed_quantized_artifact_exits_2(self, light_config, pipeline_run, tmp_path, capsys, edit, message):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_QUANTIZED).read_text())
        blob = bytearray((out / "quantized.bin").read_bytes())
        edit(doc, blob)
        (out / cli.ART_QUANTIZED).write_text(json.dumps(doc))
        (out / "quantized.bin").write_bytes(bytes(blob))
        assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert cli.ART_QUANTIZED in err and message in err and "rerun `mixbit quantize`" in err

    @pytest.mark.parametrize("grid", ["weight", "activation"])
    def test_grid_that_dequantizes_past_float32_exits_2(self, light_config, pipeline_run, tmp_path, capsys, grid):
        # refused before anything is dequantized: no overflow warning, which
        # the suite turns into an error, and no exit 4 from a non-finite layer
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_QUANTIZED).read_text())
        doc["layers"][2][grid]["scale"] = 1e308
        (out / cli.ART_QUANTIZED).write_text(json.dumps(doc))
        assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        idx = doc["layers"][2]["layer_index"]
        assert cli.ART_QUANTIZED in err and f"layer {idx}: the {grid} grid's scale 1e+308" in err
        assert "rerun `mixbit quantize`" in err

    def test_grid_that_overflows_a_layer_exits_4(self, light_config, pipeline_run, tmp_path, capsys):
        # the scale dequantizes inside float32, but layer 8's products overflow:
        # the finiteness check names the layer, and no overflow warning is printed
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_QUANTIZED).read_text())
        doc["layers"][2]["weight"]["scale"] = 1e36
        (out / cli.ART_QUANTIZED).write_text(json.dumps(doc))
        assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_NUMERIC
        idx = doc["layers"][2]["layer_index"]
        assert f"numeric failure: non-finite values after layer {idx} (conv2d)" in capsys.readouterr().err

    def test_stage_eval_leaves_the_base_model_unchanged(self, light_config, pipeline_run, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        loaded = []

        def load(cfg):
            loaded.append(m.load_model(out / cli.ART_MODEL))
            return loaded[-1], out / cli.ART_MODEL

        with mock.patch.object(cli, "ensure_model", side_effect=load):
            assert cli.main(["eval", "--config", light_config, "--out", str(out)]) == cli.EXIT_OK
        files = m.model_files(m.load_model(out / cli.ART_MODEL), "model.json")
        assert loaded and all(m.model_files(net, "model.json") == files for net in loaded)

    @pytest.mark.parametrize("artifact, edit, key, command", [
        pytest.param(artifact, edit, key, command, id=f"{name}-{command}")
        for name, (artifact, edit, key, commands) in _STORED_SECTION_MUTATIONS.items() for command in commands
    ])
    def test_stored_config_section_is_read_like_the_config(self, light_config, pipeline_run, tmp_path, capsys,
                                                           artifact, edit, key, command):
        # the config sections and plan fields an artifact stores are type-checked, not coerced
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / artifact).read_text())
        edit(doc)
        (out / artifact).write_text(json.dumps(doc))
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        producer = {cli.ART_PROFILE_JSON: "profile", cli.ART_PLAN: "plan"}[artifact]
        assert artifact in err and f"{key}: " in err and f"rerun `mixbit {producer}`" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["config"].update(lanes=3), "config.lanes must be a power of 2, got 3"),
        (lambda d: d["config"].update(coe_o=0), "config.coe_o must be a positive integer, got 0"),
        (lambda d: d["config"].update(static_power=-1.0),
         "config.static_power must be finite and non-negative, got -1.0"),
    ], ids=["lanes_3", "coe_o_0", "negative_static_power"])
    @pytest.mark.parametrize("command", ["plan", "eval"])
    def test_stored_range_error_names_the_artifact_key(self, light_config, pipeline_run, tmp_path, capsys,
                                                       edit, message, command):
        # a section's own range check names the key profile.json stores it
        # under, not the config file's hardware.* key
        out = tmp_path / "o"
        shutil.copytree(pipeline_run[0], out)
        doc = json.loads((out / cli.ART_PROFILE_JSON).read_text())
        edit(doc)
        (out / cli.ART_PROFILE_JSON).write_text(json.dumps(doc))
        assert cli.main([command, "--config", light_config, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "hardware." not in err and cli.ART_PROFILE_JSON in err

    @pytest.mark.parametrize("text, message", [
        ('{"hardware": {"lanes": 3}}', "hardware.lanes must be a power of 2, got 3"),
        ('{"hardware": {"coe_w": 0}}', "hardware.coe_w must be a positive integer, got 0"),
        ('{"planner": {"beta": 0.7, "gamma": 0.5}}', "planner.beta + planner.gamma must equal 1, got 0.7 + 0.5"),
        ('{"planner": {"gamma": NaN}}', "planner.beta + planner.gamma must equal 1, got 0.5 + nan"),
        ('{"planner": {"ratio": 0.5, "limit_bits": 10}}', "set only one of planner.ratio and planner.limit_bits"),
        ('{"planner": {"activation_bits": "4"}}', "planner.activation_bits must be 'plan' or '8', got '4'"),
        ('{"sensitivity": {"naive_bits": 5}}', "sensitivity.naive_bits must be one of [4, 8, 32], got 5"),
        ('{"distill": {"steps": 0}}', "distill.steps must be >= 1, got 0"),
        ('{"eval": {"noise": -1}}', "eval.noise must be finite and non-negative, got -1.0"),
        ('{"seed": -1}', "seed must be non-negative, got -1"),
    ])
    def test_config_range_error_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["plan", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_bad_config_value_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"planner": {"ratio": 2.5}}))
        rc = cli.main(["plan", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "planner.ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"distill": 5}', "distill"),
        ('{"hardware": []}', "hardware"),
        ('{"eval": {"seed": -1}}', "eval.seed"),
        ('{"eval": {"noise": NaN}}', "eval.noise"),
        ('{"hardware": {"static_power": NaN}}', "hardware.static_power"),
        ('{"distill": {"learning_rate": Infinity}}', "distill.learning_rate"),
        ('{"sensitivity": {"seed": -3}}', "sensitivity.seed"),
        ('{"seed": 2.7}', "seed"),
        ('{"seed": true}', "seed"),
        ('{"distill": {"steps": 2.9}}', "distill.steps"),
        ('{"planner": {"beta": "0.5"}}', "planner.beta"),
        ('{"output_dir": null}', "output_dir"),
        ('{"hardware": {"word_bits": 64}}', "hardware.word_bits"),
        ('{"hardware": {"bram_block_bits": 36864}}', "hardware.bram_block_bits"),
    ])
    def test_bad_config_exits_before_any_stage(self, tmp_path, monkeypatch, capsys, text, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text(text)
        assert cli.main(["pipeline", "--config", "bad.json"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]  # no stage wrote anything

    @pytest.mark.parametrize("layer, edit, message", [
        (0, lambda e: e.update(kind="conv3d"), "layer 0: unknown layer kind 'conv3d'"),
        (0, lambda e: e.update(in_channels=4), "layer 0: conv expects 4 channels"),
        (1, lambda e: e["params"][0].update(shape=[2, 4]),
         "layer 1: batch norm running_mean must have shape (8,)"),
        (0, lambda e: e.update(stride="1"), 'stride: expected an integer, got "1"'),
        (1, lambda e: e.update(eps=-1.0), "layer 1: batch norm eps must be finite and non-negative"),
        (1, lambda e: e.update(eps=-100.0), "layer 1: batch norm eps must be finite and non-negative"),
        (1, lambda e: e.update(eps=float("nan")), "layer 1: batch norm eps must be finite and non-negative"),
    ], ids=["unknown_kind", "channel_mismatch", "bn_param_shape", "string_stride",
            "negative_eps", "large_negative_eps", "nan_eps"])
    def test_malformed_model_manifest(self, tmp_path, capsys, layer, edit, message):
        path = m.save_model(zoo.toy_cnn(0), tmp_path / "model.json")
        doc = json.loads(path.read_text())
        edit(doc["layers"][layer])
        path.write_text(json.dumps(doc))
        (tmp_path / "cfg.json").write_text(json.dumps({"model": str(path)}))
        rc = cli.main(["distill", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("model error: ")
        assert message in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(bogus=1), "model.json: bogus: unknown key"),
        (lambda d: d["layers"][0]["params"][0].update(extra=3), "params[0].extra: unknown key"),
    ], ids=["top_level", "param_entry"])
    def test_unknown_manifest_key(self, tmp_path, capsys, edit, message):
        # the manifest's keys and each param entry's are exactly those model_files writes
        path = m.save_model(zoo.toy_cnn(0), tmp_path / "model.json")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        (tmp_path / "cfg.json").write_text(json.dumps({"model": str(path)}))
        rc = cli.main(["distill", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("model error: ") and message in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sensitivity": {"alfa": 0.5}}))
        rc = cli.main(["sense", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "sensitivity.alfa" in capsys.readouterr().err

    def test_profile_with_removed_hardware_keys_exits_2(self, tmp_path, capsys):
        # bram_block_bits and word_bits priced nothing and are no HwConfig fields any more
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 4}}))
        out = tmp_path / "out"
        for stage in ("distill", "sense", "profile"):
            assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        doc = json.loads((out / cli.ART_PROFILE_JSON).read_text())
        doc["config"].update(bram_block_bits=36864, word_bits=64)
        (out / cli.ART_PROFILE_JSON).write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(["plan", "--config", str(config), "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "profile.json" in err and "rerun `mixbit profile`" in err

    def test_unreadable_config(self, tmp_path, capsys):
        rc = cli.main(["plan", "--config", str(tmp_path / "nope.json")])
        assert rc == cli.EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_infeasible_hardware(self, tmp_path, capsys):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps({"hardware": {"bram_total": 1}}))
        rc = cli.main(["profile", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({"distill": {"learning_rate": 500.0, "steps": 60,
                                                "batch_size": 4}}))
        rc = cli.main(["distill", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_pipeline_whose_distill_ends_diverged_exits_4(self, tmp_path, capsys):
        # the default 5 steps cannot build a streak of 50, but each ends above the threshold
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"distill": {"learning_rate": 1}}))
        assert cli.main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
        assert "numeric failure: final loss" in capsys.readouterr().err
        assert not (tmp_path / "o" / cli.ART_DISTILLED).exists()

    def test_overflowing_distill_step_exits_4(self, tmp_path, capsys):
        # Adam's first step moves each input by about the learning rate, so only a step size past
        # float32's range overflows; it reaches the next pass's batch check, with no warning printed
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"distill": {"learning_rate": 1e38, "batch_size": 4}}))
        assert cli.main(["distill", "--config", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_NUMERIC
        assert "numeric failure: non-finite values in input batch" in capsys.readouterr().err

    def test_non_finite_after_last_batch_norm_is_found_by_sense(self, tmp_path, capsys):
        # distill runs only the layers before the BatchNorm; the linear head overflows
        net = _small_net()
        net.layers[4].weight = np.full((5, 3), 3e38, dtype=np.float32)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": str(m.save_model(net, tmp_path / "net.json")),
                                      "distill": {"steps": 5}}))
        out = tmp_path / "out"
        assert cli.main(["distill", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["sense", "--config", str(config), "--out", str(out)]) == cli.EXIT_NUMERIC
        assert "non-finite values after layer 4 (linear)" in capsys.readouterr().err


class TestBuild:
    def test_missing_key_is_a_default_for_a_config_and_an_error_for_an_artifact(self):
        full = {"samples": 8, "noise": 0.25, "seed": 3}
        assert errors.build(cli.EvalConfig, {"samples": 8}, "eval.", {"seed": 3}) == cli.EvalConfig(8, 0.1, 3)
        assert errors.build(cli.EvalConfig, full, "eval.") == cli.EvalConfig(8, 0.25, 3)
        with pytest.raises(errors.ConfigError, match=r"^eval\.noise: missing key$"):
            errors.build(cli.EvalConfig, {"samples": 8, "seed": 3}, "eval.")
        for defaults in ({}, None):
            with pytest.raises(errors.ConfigError, match=r"^eval\.bogus: unknown key$"):
                errors.build(cli.EvalConfig, {**full, "bogus": 1}, "eval.", defaults)
            with pytest.raises(errors.ConfigError, match=r"^eval\.samples: expected an integer, got true$"):
                errors.build(cli.EvalConfig, {**full, "samples": True}, "eval.", defaults)


    def test_checked_reads_a_boolean_hint(self):
        assert errors.checked(True, bool, "x") is True
        assert errors.checked(None, bool | None, "x") is None
        for bad in (1, 0.0, "true", None):
            with pytest.raises(errors.ConfigError, match=r"^x: expected a boolean, got "):
                errors.checked(bad, bool, "x")

    def test_checked_reads_a_typed_list(self):
        assert errors.checked([1, 2], list[int], "x") == [1, 2]
        widened = errors.checked([1, 2.5], list[float], "x")
        assert widened == [1.0, 2.5] and type(widened[0]) is float
        for bad in ([1, True], [1.0]):
            with pytest.raises(errors.ConfigError, match=r"^x: expected an integer, got "):
                errors.checked(bad, list[int], "x")
        for bad in ("[1]", 1, None, {"x": 1}):
            with pytest.raises(errors.ConfigError, match=r"^x: expected a list, got "):
                errors.checked(bad, list[int], "x")

    def test_checked_reads_a_dataclass_hint(self):
        doc = {"samples": 8, "noise": 0.25, "seed": 3}
        for hint in (cli.EvalConfig, cli.EvalConfig | None):
            assert errors.checked(doc, hint, "eval") == cli.EvalConfig(8, 0.25, 3)
            with pytest.raises(errors.ConfigError, match=r"^eval\.seed: missing key$"):
                errors.checked({"samples": 8, "noise": 0.25}, hint, "eval")
        assert errors.checked(None, cli.EvalConfig | None, "eval") is None
        with pytest.raises(errors.ConfigError, match=r"^eval: must be a JSON object, got null$"):
            errors.checked(None, cli.EvalConfig, "eval")

    def test_checked_names_each_element_of_a_dataclass_list(self):
        prof = hwsim.profile_model(zoo.tiny_cnn(0), (4, 8))
        rows = prof.to_dict()["rows"]
        assert errors.checked(rows, list[hwsim.ProfileRow], "rows") == prof.rows
        rows[1]["cost"]["tile"] = 1.5
        with pytest.raises(errors.ConfigError, match=r"^rows\[1\]\.cost\.tile: expected an integer, got 1.5$"):
            errors.checked(rows, list[hwsim.ProfileRow], "rows")

    def test_range_error_takes_the_path_it_was_built_under(self):
        with pytest.raises(errors.ConfigError, match=r"^beta \+ gamma must equal 1, got 0.7 \+ 0.5$"):
            planner.PlannerConfig(beta=0.7, gamma=0.5)
        for path in ("", "planner.", "plan.planner."):
            with pytest.raises(errors.ConfigError) as info:
                errors.build(planner.PlannerConfig, {"beta": 0.7, "gamma": 0.5}, path, {})
            assert str(info.value) == f"{path}beta + {path}gamma must equal 1, got 0.7 + 0.5"


class TestLoadConfig:
    def test_override_precedence(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5, "planner": {"beta": 0.9, "gamma": 0.1}}))
        cfg = cli.load_config(str(path), _overrides(seed=7, beta=0.25))
        assert cfg.seed == 7
        assert cfg.planner.beta == 0.25
        assert cfg.planner.gamma == 0.75  # --beta re-derives gamma

    def test_ratio_flag_clears_absolute_limit(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"planner": {"limit_bits": 20000}}))
        cfg = cli.load_config(str(path), _overrides(ratio=0.25))
        assert cfg.planner.ratio == 0.25
        assert cfg.planner.limit_bits is None

    def test_defaults_without_file(self):
        cfg = cli.load_config(None, _overrides())
        assert cfg.seed == 0
        assert cfg.planner.ratio == 0.5
        assert cfg.planner.activation_bits == "plan"
        assert cfg.sensitivity.method == "mqe"
        assert (cfg.distill.steps, cfg.distill.learning_rate) == (5, 0.03)
        assert cfg.eval.samples == 256
