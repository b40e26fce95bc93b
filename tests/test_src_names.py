"""Every function, class and method of the package is used by the package.

The package holds what the CLI runs. The paper's identities that only the
tests use are the tests' references, in tests/oracles.py. So a
module-level function or class, public or private, or a method that no
module of the package references, by name or as an attribute, belongs
there or nowhere. Dunder methods are called by Python itself and are not
checked.
"""

import ast
import functools
import pathlib
import weakref

import spectral_distill

SRC = pathlib.Path(spectral_distill.__file__).parent

ALLOWED = {
    # perfbench/spans.py wraps it to time the Monte Carlo risk layer
    "sigma_risk",
    # the README's library API for p-vectors: both take the design X from
    # the caller, which the package itself never keeps
    "SampleSpectrum.project",
    "SampleSpectrum.lift",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined(tree):
    """Module-level functions and classes, and 'Class.method' for each
    method that is not a dunder."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}.{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not _is_dunder(item.name))
    return names


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _names_a_process_wide_cache(node):
    """A Name or an Attribute that is functools' cache or its LRU form, or
    one of weakref's dictionaries: each outlives any one model."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return (name.endswith("cache") and hasattr(functools, name)
            or name.endswith("Dictionary") and hasattr(weakref, name))


def test_every_public_name_in_src_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = set().union(*map(_referenced, trees.values()))
    unused = sorted(f"{module}.{name}" for module, tree in trees.items()
                    if module != "__init__"
                    for name in _defined(tree) - ALLOWED
                    if name.rsplit(".", 1)[-1] not in used)
    assert unused == []


def test_no_module_of_the_package_imports_warnings():
    # bad input exits 2 or 3 and the run does not go on: the package
    # refuses where it once warned
    importers = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "warnings" in names:
                importers.append(path.stem)
    assert importers == []


def test_no_module_of_the_package_keeps_a_process_wide_cache():
    # every record lives in its model's store (spectra.cached) and dies
    # with that model; cached_property stays, as it lives on one record
    caches = [f"{path.stem}:{node.lineno}" for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if _names_a_process_wide_cache(node)]
    assert caches == []
