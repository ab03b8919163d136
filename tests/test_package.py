"""The package holds what its commands run: every definition in
src/nullfoliate has a reference there, and every import is used."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nullfoliate"
MODULES = {p.stem: ast.parse(p.read_text())
           for p in sorted(PACKAGE.glob("*.py"))}

# methods the tests measure with; the package itself never calls them
MEASURING = {"sphere.SpinField.max_abs", "sphere.SpinField.coeff",
             "tensors.MetricRep.round_sphere", "tensors._RealTensor.max_abs"}


def _definitions(node, prefix):
    """(qualified name, name) of every function, class and method below
    node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        qual = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qual = f"{prefix}.{child.name}"
            yield qual, child.name
        yield from _definitions(child, qual)


def test_every_definition_has_a_reference_in_the_package():
    """A name, an attribute or a `from ... import` of the name counts;
    dunder methods are called by the language itself."""
    read = set()
    for node in (n for tree in MODULES.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unused = [qual for mod, tree in MODULES.items()
              for qual, name in _definitions(tree, mod)
              if name not in read and qual not in MEASURING
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


def test_every_import_is_used():
    """__init__ only re-exports, so its imports are exempt."""
    unused = []
    for mod, tree in MODULES.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{mod}: {b}" for b in bound
                           if b not in read and mod != "__init__"]
    assert unused == []
