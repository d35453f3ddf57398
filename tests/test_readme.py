"""README.md's config block and tables state what the code does."""

import dataclasses
import json
import re
from pathlib import Path

import mixbit
from mixbit import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _section(heading: str) -> str:
    """README from just after the line `heading` on."""
    return README.split(f"\n{heading}\n", 1)[1]


def _first_column(heading: str) -> list[str]:
    """The code spans in the first cell of each body row of the first table under heading."""
    rows = []
    for line in _section(heading).splitlines():
        if line.startswith("|"):
            rows.append(line.split("|")[1])
        elif rows:
            break
    return [span for cell in rows[2:] for span in re.findall(r"`([^`]+)`", cell) or [cell.strip()]]


def test_config_block_is_the_default_config():
    block = json.loads(_section("### Config file").split("```json\n", 1)[1].split("```", 1)[0])
    default = dataclasses.asdict(cli.load_config(None, cli.build_parser().parse_args(["pipeline"])))
    # the prose below the block gives these three: the bundled model, gamma = 1 - beta, and no absolute budget
    assert default.pop("model") is None and block.pop("model") == "path/to/model.json"
    planner = default["planner"]
    assert planner.pop("gamma") == 1 - planner["beta"] and planner.pop("limit_bits") is None
    assert block == default


def test_flag_table_lists_every_stage_flag():
    args = vars(cli.build_parser().parse_args(["pipeline"]))
    flags = {"--" + dest.replace("_", "-") for dest in args if dest != "command"}
    assert {span.split()[0] for span in _first_column("## Command-line usage")} == flags


def test_artifact_table_lists_what_the_stages_write():
    written = {f for _, writes in cli._STAGES.values() for f in writes} | {cli.ART_MODEL, "model.bin"}
    assert set(_first_column("### Artifacts")) == written


def test_exit_code_table_lists_the_exit_codes():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert [int(code) for code in _first_column("### Exit codes")] == sorted(codes)


def test_module_table_lists_the_modules():
    modules = {f"mixbit.{p.stem}" for p in Path(mixbit.__file__).parent.glob("*.py") if p.stem != "__init__"}
    assert set(_first_column("## Library layout")) == modules
