"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import symres

PACKAGE = Path(symres.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Name bound by each import, mapped to its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Every name read in the module, string annotations included."""
    out = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            out |= {n.id for n in ast.walk(ast.parse(ann.value))
                    if isinstance(n, ast.Name)}
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("from typing import Dict, List\n"
                     "import os.path\n"
                     "def f(x: 'List[int]'):\n    return os.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Dict"}
