import argparse
import dataclasses
import json
import shutil

import jsonschema
import numpy as np
import pytest

from mixbit import cli, planner, quant, zoo
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


@pytest.fixture(scope="module")
def pipeline_run(light_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    rc = cli.main(["pipeline", "--config", light_config, "--out", str(out), "--seed", "0"])
    assert rc == cli.EXIT_OK
    report = json.loads((out / cli.ART_REPORT_JSON).read_text())
    return out, report


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
        _, report_a = pipeline_run
        report_b = json.loads((out_b / cli.ART_REPORT_JSON).read_text())

        assert cli.canonical_hash(report_a) == cli.canonical_hash(report_b)
        for doc in (report_a, report_b):
            doc["meta"].pop("timestamp")
            doc["meta"].pop("canonical_sha256")
        assert report_a == report_b

    def test_stagewise_run_reproduces_pipeline_report(self, light_config, pipeline_run,
                                                      tmp_path):
        out_c = tmp_path / "run_c"
        for stage in ("distill", "sense", "profile", "plan", "quantize", "eval"):
            rc = cli.main([stage, "--config", light_config, "--out", str(out_c), "--seed", "0"])
            assert rc == cli.EXIT_OK, stage
        cfg = cli.load_config(light_config, _overrides(out=str(out_c), seed=0))
        report_c = cli.assemble_report(cfg)
        _, report_a = pipeline_run
        assert cli.canonical_hash(report_c) == cli.canonical_hash(report_a)


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
    def test_plan_ratio_extremes(self, light_config, pipeline_run):
        out, _ = pipeline_run
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

    def test_method_override(self, light_config, pipeline_run):
        out, _ = pipeline_run
        rc = cli.main(["sense", "--config", light_config, "--out", str(out),
                       "--seed", "0", "--method", "naive"])
        assert rc == cli.EXIT_OK
        doc = json.loads((out / cli.ART_SENSITIVITY).read_text())
        assert doc["method"] == "naive"
        assert doc["alpha"] is None

    def test_activation_bits_override(self, light_config, pipeline_run):
        out, _ = pipeline_run
        rc = cli.main(["plan", "--config", light_config, "--out", str(out),
                       "--bits-activations", "8"])
        assert rc == cli.EXIT_OK
        rc = cli.main(["quantize", "--config", light_config, "--out", str(out), "--seed", "0"])
        assert rc == cli.EXIT_OK
        doc = json.loads((out / cli.ART_QUANTIZED).read_text())
        assert doc["activation_bits"] == [8] * 5
        assert set(doc["weight_bits"]) <= {4, 8}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "mixbit" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_artifact_names_prior_stage(self, tmp_path, capsys):
        rc = cli.main(["sense", "--out", str(tmp_path / "fresh")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "distilled.json" in err
        assert "mixbit distill" in err

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
    @pytest.mark.parametrize("value", ["44444", [32] * 5, [4.0] * 5], ids=["string", "int32", "float4"])
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
        (0, lambda e: e.update(stride="1"), 'stride must be an integer, got "1"'),
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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps({"distill": {"learning_rate": 500.0, "steps": 60,
                                                "batch_size": 4}}))
        rc = cli.main(["distill", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
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
        assert cfg.distill.steps == 500
        assert cfg.eval.samples == 256
