"""The package holds no code that only the tests call."""

import ast
from pathlib import Path

import spatial_lp

SRC = Path(spatial_lp.__file__).parent


def _unreferenced() -> list[str]:
    """Non-dunder functions, classes and methods of the package that no Name
    or Attribute in the package names outside their own definition."""
    defs, uses = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, node))
            elif isinstance(node, ast.Name):
                uses.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.attr, node.lineno))
    return [
        f"{path.name}:{node.name}"
        for path, node in defs
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(
            name == node.name
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, name, line in uses
        )
    ]


def test_every_definition_is_named_by_the_package():
    assert _unreferenced() == []
