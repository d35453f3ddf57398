"""The package has no public API that only tests call.

Every public module-level function, class and UPPER_CASE constant in
src/mixbit, and every public method or property of a public class, must be
read somewhere in src/mixbit: a name or attribute load, not only its own
definition or an import. The exceptions are listed with what pins them.
"""

import ast
from pathlib import Path

import mixbit

SRC = Path(mixbit.__file__).parent

# qualified name -> what keeps it public although nothing in src reads it
ALLOWED = {
    "cli.PipelineConfig.eval_samples": "acceptance criterion 11",
    "cli.PipelineConfig.eval_noise": "acceptance criterion 11",
    "cli.PipelineConfig.eval_seed": "acceptance criterion 11",
    "hwsim.HwProfile.load_json": "acceptance criterion 11",
    "zoo.make_eval_dataset": "acceptance criterion 11",
    "hwsim.transfer_volume": "acceptance criterion 05",
    "model.input_gradient": "acceptance criterion 08 and perfbench's model.input_gradient span",
    "planner.feasible": "acceptance criterion 02 and perfbench's plan_resnet check",
    "zoo.tiny_cnn": "acceptance criteria 06-08",
    "zoo.bn_passthrough_net": "acceptance criteria 06-08",
    "zoo.decorrelation_net": "acceptance criterion 10",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module) -> dict:
    """{qualified name: bare name} of the module's public definitions."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    found[f"{module}.{node.name}.{item.name}"] = item.name
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _public(target.id) and target.id.isupper():
                    found[f"{module}.{target.id}"] = target.id
    return found


def _loads(tree: ast.Module) -> set:
    """Every name and attribute the module reads."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_is_read_in_src():
    definitions, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        definitions.update(_definitions(path.stem, tree))
        read |= _loads(tree)
    unread = {qualified for qualified, name in definitions.items() if name not in read}
    assert sorted(unread - set(ALLOWED)) == [], "public but read only by tests"
    # an entry src now reads, or one that no longer exists, is dropped from the list
    assert sorted(set(ALLOWED) - unread) == []
