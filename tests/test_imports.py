"""Every module of the package uses each name it imports, and every function,
class or method it defines is referenced by name somewhere in the project.

`__init__.py` is exempt from the import check: its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nchilbert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } - {"*", "annotations"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_detected():
    assert unused_imports("import os\nfrom x import a, b as c\nc()\n") == ["a", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(defining, referencing):
    """Names of functions, classes and methods defined in the `defining`
    sources that no Name or attribute in the `referencing` sources reads;
    dunder methods are called by the language, so they are exempt."""
    defined = {
        node.name
        for source in defining
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    used = set()
    for source in referencing:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(n for n in defined - used if not n.startswith("__"))


def test_dead_definitions_are_detected():
    source = (
        "class C:\n    def m(self): pass\n    def __repr__(self): return ''\n"
        "def f(): pass\ndef g(): pass\nC().n\ng()\n"
    )
    assert dead_definitions([source], [source]) == ["f", "m"]


def test_no_dead_definitions():
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    referencing = [
        p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
    ]
    assert dead_definitions(defining, referencing) == []
