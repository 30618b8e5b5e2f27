"""Source hygiene: no module of the package imports a name it never
uses, no module- or class-level definition goes unreferenced,
polynomial arithmetic, its unchecked ``_trusted`` constructors and the
private coefficient store ``_terms`` live in ``ring.py`` alone, and
every symres name the benchmark's tracer wraps still exists."""

import ast
import importlib
from pathlib import Path

import pytest

import symres

PACKAGE = Path(symres.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
SOURCES = sorted(p for top in ("src", "tests", "bench")
                 for p in (ROOT / top).rglob("*.py"))


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


def annotation_names(tree):
    """Every name read in the module's string annotations."""
    out = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
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


def used_names(tree):
    """Every name read in the module, string annotations included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | annotation_names(tree)


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


def definitions(tree):
    """Names defined at module level or directly in a module-level
    class, mapped to their line; dunders and ``__all__`` are exempt."""
    out = {}

    def bind(name, line):
        if not (name.startswith("__") and name.endswith("__")):
            out[name] = line

    def scan(body, classes):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bind(node.name, node.lineno)
            elif isinstance(node, ast.ClassDef):
                bind(node.name, node.lineno)
                if classes:
                    scan(node.body, False)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            bind(leaf.id, node.lineno)

    scan(tree.body, True)
    return out


def references(tree):
    """Names a file reads: loaded names, attributes, imported names and
    identifier-shaped strings (for getattr and monkeypatch targets)
    outside ``__all__``."""
    out = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {id(leaf) for leaf in ast.walk(node.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in exported:
            out.add(node.value)
    return out | annotation_names(tree)


def test_no_unreferenced_definitions():
    referenced = set()
    for path in SOURCES:
        referenced |= references(ast.parse(path.read_text(), str(path)))
    unused = sorted(f"{path.name}: {name} (line {line})"
                    for path in MODULES + [PACKAGE / "__init__.py"]
                    for name, line in definitions(
                        ast.parse(path.read_text(), str(path))).items()
                    if name not in referenced)
    assert not unused, f"definitions nothing references: {unused}"


def test_detects_an_unreferenced_definition():
    tree = ast.parse("__all__ = ['spare']\n"
                     "LIMIT = 3\n"
                     "SPARE_LIMIT = 4\n"
                     "def spare(): pass\n"
                     "def helper(): pass\n"
                     "def used(): return 'helper'\n"
                     "class Box:\n"
                     "    size: int = LIMIT\n"
                     "    def __len__(self): return self.size\n"
                     "    def unused(self): pass\n"
                     "Box().hook = used\n")
    assert set(definitions(tree)) == {"LIMIT", "SPARE_LIMIT", "spare",
                                      "helper", "used", "Box", "size",
                                      "unused"}
    assert set(definitions(tree)) - references(tree) == {
        "SPARE_LIMIT", "spare", "unused"}


ARITHMETIC_DUNDERS = {"__add__", "__mul__", "__pow__"}


def arithmetic_classes(tree):
    """Classes that define or assign an arithmetic dunder, mapped to
    their line."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            names = ({item.name} if isinstance(item, ast.FunctionDef)
                     else {t.id for t in getattr(item, "targets", ())
                           if isinstance(t, ast.Name)})
            if names & ARITHMETIC_DUNDERS:
                out[node.name] = node.lineno
    return out


def test_one_arithmetic_kernel():
    found = sorted(f"{path.name}: {name} (line {line})"
                   for path in MODULES + [PACKAGE / "__init__.py"]
                   if path.name != "ring.py"
                   for name, line in arithmetic_classes(
                       ast.parse(path.read_text(), str(path))).items())
    assert not found, f"arithmetic outside ring.py: {found}"


def test_detects_an_arithmetic_class():
    tree = ast.parse("class Raw:\n    def __add__(self, o): pass\n"
                     "class Alias:\n    __mul__ = len\n"
                     "class Plain:\n    def __eq__(self, o): pass\n")
    assert set(arithmetic_classes(tree)) == {"Raw", "Alias"}


def trusted_uses(tree):
    """Lines that read a ``_trusted`` constructor, called or aliased."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "_trusted"
                   or isinstance(node, ast.Name) and node.id == "_trusted"})


def test_trusted_construction_stays_in_ring():
    found = [f"{path.relative_to(ROOT)}: line {line}"
             for path in SOURCES if path != PACKAGE / "ring.py"
             for line in trusted_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, f"unchecked construction outside ring.py: {found}"


def test_detects_a_trusted_use():
    tree = ast.parse("c = Coefficient._trusted(ring, {})\n"
                     "d = Coefficient(ring, {})\n"
                     "make = Polynomial._trusted\n"
                     "def _trusted(): pass\n")
    assert trusted_uses(tree) == [1, 3]


def private_ring_uses(tree):
    """Lines that import an underscore name from ``symres.ring`` or read
    the private coefficient store ``_terms`` of a Polynomial."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "symres.ring"
                or node.level and node.module == "ring"):
            if any(alias.name.startswith("_") for alias in node.names):
                lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_terms":
            lines.add(node.lineno)
    return sorted(lines)


def test_private_ring_names_stay_in_ring():
    found = [f"{path.relative_to(ROOT)}: line {line}"
             for path in SOURCES if path != PACKAGE / "ring.py"
             for line in private_ring_uses(
                 ast.parse(path.read_text(), str(path)))]
    assert not found, f"private ring names outside ring.py: {found}"


def test_detects_a_private_ring_use():
    tree = ast.parse("from symres.ring import Polynomial, _add\n"
                     "from .ring import _mul\n"
                     "from symres.parser import _atoms\n"
                     "size = len(p._terms)\n"
                     "view = p.terms\n"
                     "from symres.ring import Coefficient\n")
    assert private_ring_uses(tree) == [1, 2, 4]


TRACE_TABLES = ("FUNCTIONS", "METHODS", "LEAVES")


def trace_targets(tree):
    """The symres names of the trace tables, read from their literals:
    (module, attribute) for ``FUNCTIONS`` and (module, class, method)
    for ``METHODS`` and for each method of a ``LEAVES`` entry."""
    out = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in TRACE_TABLES):
            continue
        table = node.targets[0].id
        for entry in node.value.elts:
            fields = entry.elts
            if table == "FUNCTIONS":
                out.append((fields[0].value, fields[1].value))
            elif table == "METHODS":
                out.append(tuple(f.value for f in fields[:3]))
            else:
                out.extend((fields[0].value, fields[1].value, m.value)
                           for m in fields[2].elts)
    return out


def unresolved(targets):
    """Dotted names of the targets that no longer resolve; a method must
    be defined on the class itself, as the tracer reads ``vars(cls)``."""
    missing = []
    for target in targets:
        try:
            owner = getattr(importlib.import_module(target[0]), target[1])
        except (ImportError, AttributeError):
            missing.append(".".join(target))
            continue
        if len(target) == 3 and target[2] not in vars(owner):
            missing.append(".".join(target))
    return missing


def test_traced_names_resolve():
    path = ROOT / "bench" / "spans.py"
    targets = trace_targets(ast.parse(path.read_text(), str(path)))
    assert {len(t) for t in targets} == {2, 3}
    missing = unresolved(targets)
    assert not missing, f"bench/spans.py traces missing names: {missing}"


def test_detects_an_unresolved_trace_target():
    tree = ast.parse(
        "FUNCTIONS = (('symres.ring', 'determinant', 'ring.det', attrs),\n"
        "             ('symres.ring', 'gone', 'ring.gone', None))\n"
        "METHODS = (('symres.ring', 'Coefficient', '__pow__', 'p', None),\n"
        "           ('symres.ring', 'Polynomial', 'gone', 'q', None))\n"
        "LEAVES = (('symres.ring', 'Coefficient', ('__mul__', 'gone'), 'm'),\n"
        "          ('symres.absent', 'Coefficient', ('__mul__',), 'n'))\n"
        "OTHER = (('symres.ring', 'gone'),)\n")
    targets = trace_targets(tree)
    assert targets == [
        ("symres.ring", "determinant"), ("symres.ring", "gone"),
        ("symres.ring", "Coefficient", "__pow__"),
        ("symres.ring", "Polynomial", "gone"),
        ("symres.ring", "Coefficient", "__mul__"),
        ("symres.ring", "Coefficient", "gone"),
        ("symres.absent", "Coefficient", "__mul__")]
    assert unresolved(targets) == [
        "symres.ring.gone", "symres.ring.Polynomial.gone",
        "symres.ring.Coefficient.gone", "symres.absent.Coefficient.__mul__"]
