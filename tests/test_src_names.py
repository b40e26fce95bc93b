"""Every public function and class of the package is used by the package.

The package holds what the CLI runs. The paper's identities that only the
tests use are the tests' references, in tests/oracles.py. So a public
module-level function or class of a module that no module of the package
references, by name or as an attribute, belongs there or nowhere.
"""

import ast
import pathlib

import spectral_distill

SRC = pathlib.Path(spectral_distill.__file__).parent

# perfbench/spans.py wraps it to time the Monte Carlo risk layer
ALLOWED = {"sigma_risk"}


def _defined(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_in_src_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set().union(*map(_referenced, trees.values()))
    unused = sorted(f"{module}.{name}" for module, tree in trees.items()
                    if module != "__init__"
                    for name in _defined(tree) - used - ALLOWED)
    assert unused == []
