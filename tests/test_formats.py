"""On-disk formats: pinned bytes of the model and profile files, a fuzzed manifest loader and fuzzed stage artifacts."""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixbit import cli, hwsim, model as m, zoo
from mixbit.errors import ModelFormatError, ShapeMismatchError, UnsupportedLayerError


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedBytes:
    """sha256 of files written for zoo.toy_cnn(0).

    A change to the model files changes every report hash, since the report
    carries their sha256. The report carries none of the profile files'
    bytes: a change to profile.json changes the hash only where it changes a
    value the later stages read (bram, the 8-bit costs behind the scores and
    the report's cost columns, the cycle totals eval sums), and profile.csv
    enters no hash.
    """

    def test_model_manifest_and_blob(self, tmp_path):
        # The manifest and the seeded weight draws are the same bytes under every
        # OpenBLAS kernel. The BatchNorm running statistics are frozen from recorded
        # forward passes, whose float32 GEMMs sum in the kernel's order, so the whole
        # blob is pinned once per kernel family.
        path = m.save_model(zoo.toy_cnn(0), tmp_path / "model.json")
        assert _sha256(path.read_bytes()) == \
            "396ec0c5726cedb78ff54df509b5f63b2195477fdd60c56a67d3df750f85535a"
        blob = m.blob_path_for(path).read_bytes()
        drawn = b"".join(blob[4 * p["offset"]:4 * (p["offset"] + p["count"])]
                         for layer in json.loads(path.read_text())["layers"] for p in layer["params"]
                         if p["name"] not in ("running_mean", "running_var"))
        assert _sha256(drawn) == "38ead2a84e4c035274a86668e461d75a04382675841f82deceb9dd541f09b820"
        assert _sha256(blob) in (
            "c48b666b366abd16e085cf34ed126857fda043df82847cf41110f1ee237dd467",  # SkylakeX
            "5f12cd978ddc51050dc7d272042963a278882b576b976db50604e3123e3d7d2a",  # Haswell, Zen
            "67f7c58478326f622a5615893507f0001b7c3c23a3e4bf82c7941bdb0e880b40",  # Sandybridge, Nehalem, Katmai
        )

    def test_profile_json_and_csv(self, tmp_path):
        prof = hwsim.profile_model(zoo.toy_cnn(0), (4, 8, 32))
        text = json.dumps(prof.to_dict(), indent=2, sort_keys=True) + "\n"
        assert _sha256(text.encode()) == \
            "4aff3ac1935e28962be1a85e413802987a49a9edbc5c67c99ad3ee21ea9be19f"
        prof.save_csv(tmp_path / "profile.csv")
        assert _sha256((tmp_path / "profile.csv").read_bytes()) == \
            "381d3781cced111f5a4ae66dcb9e93fb8477fa2c75bb886126b230aaf57aca24"


@pytest.fixture(scope="module")
def saved_toy(tmp_path_factory):
    path = m.save_model(zoo.toy_cnn(0), tmp_path_factory.mktemp("fuzz") / "model.json")
    return path, json.loads(path.read_text())


_INTS = st.integers(-3, 64)
_BAD_TYPES = st.sampled_from([True, 1.5, "1", None, [1]])


@st.composite
def _mutation(draw, doc):
    """(layer, key, value) or (layer, param position, field, value) for one manifest edit."""
    i = draw(st.integers(0, len(doc["layers"]) - 1))
    entry = doc["layers"][i]
    ints = [k for k, v in entry.items() if type(v) is int]
    choices = ["kind"] + ["header"] * bool(ints) + ["param"] * bool(entry["params"])
    what = draw(st.sampled_from(choices))
    if what == "kind":
        return i, "kind", draw(st.sampled_from([*m.KINDS, "conv3d", "", 3, ["conv2d"]]))
    if what == "header":
        return i, draw(st.sampled_from(ints)), draw(_INTS | _BAD_TYPES)
    pos = draw(st.integers(0, len(entry["params"]) - 1))
    field = draw(st.sampled_from(["shape", "offset", "count"]))
    if field == "shape":
        value = draw(st.lists(st.integers(-2, 40), max_size=4)
                     | st.permutations(entry["params"][pos]["shape"]).map(list))
    else:
        value = draw(st.integers(-5, 3000) | _BAD_TYPES)
    return i, pos, field, value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_manifest_loads_or_raises_model_error(saved_toy, data):
    path, doc = saved_toy
    doc = copy.deepcopy(doc)
    for edit in data.draw(st.lists(_mutation(doc), min_size=1, max_size=3)):
        if len(edit) == 3:
            i, key, value = edit
            doc["layers"][i][key] = value
        else:
            i, pos, field, value = edit
            doc["layers"][i]["params"][pos][field] = value
    path.write_text(json.dumps(doc))
    try:
        net = m.load_model(path)
    except (ModelFormatError, ShapeMismatchError, UnsupportedLayerError):
        return
    x = np.random.default_rng(0).standard_normal((2, *net.input_shape), dtype=np.float32)
    logits, _ = m.forward(net, x)
    assert logits.shape == (2, net.class_count)


# each fuzzed artifact -> the stages that read it
_READERS = {
    cli.ART_DISTILLED: ("sense",),
    cli.ART_SENSITIVITY: ("plan", "report"),
    cli.ART_PROFILE_JSON: ("plan", "eval", "report"),
    cli.ART_PLAN: ("quantize", "eval", "report"),
    cli.ART_QUANTIZED: ("eval", "report"),
    cli.ART_EVAL: ("report",),
}
_VALUES = st.integers(-5, 3000) | st.sampled_from(
    [True, None, 0.5, -1.5, 1e36, 1e308, float("nan"), float("inf"), "4", "", [], [4], {}])


@pytest.fixture(scope="module")
def stagewise_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    config = root / "config.json"
    config.write_text(json.dumps({"distill": {"steps": 2, "batch_size": 4}, "eval": {"samples": 8}}))
    out = root / "out"
    for stage in ("distill", "sense", "profile", "plan", "quantize", "eval"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    return config, out, {name: json.loads((out / name).read_text()) for name in _READERS}


def _paths(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_artifact_exits_with_a_code(stagewise_run, data):
    config, out, docs = stagewise_run
    name = data.draw(st.sampled_from(sorted(_READERS)))
    doc = copy.deepcopy(docs[name])
    *parents, key = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    owner = doc
    for step in parents:
        owner = owner[step]
    if isinstance(owner, dict) and data.draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = data.draw(_VALUES)
    for other, pristine in docs.items():
        (out / other).write_text(json.dumps(doc if other == name else pristine))
    for stage in _READERS[name]:
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) in (
            cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_NUMERIC)
