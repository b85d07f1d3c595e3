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


def comment_splits(source):
    """Line numbers of `.split("#", ...)` and `.partition("#")` calls: each
    one cuts a `#` comment off a line."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("split", "partition")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "#"
    )


def test_comment_splits_are_detected():
    source = "a = s.split('#', 1)[0]\nb = s.split(':')\nc = s.partition('#')\n"
    assert comment_splits(source) == [1, 3]


def test_one_comment_rule():
    """`words.content_lines` is the only place that cuts `#` comments: every
    input format reads its lines through it."""
    forks = {
        p.name: comment_splits(p.read_text())
        for p in sorted(SRC.glob("*.py"))
        if p.name != "words.py"
    }
    assert {name: lines for name, lines in forks.items() if lines} == {}


def fraction_calls(source):
    """Names of the functions whose bodies call `Fraction(...)`, innermost
    first; a call at module level is listed as `<module>`."""
    tree = ast.parse(source)
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner[inner] = node.name  # ast.walk visits outer scopes first
    return sorted(
        {
            owner.get(node, "<module>")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction"
        }
    )


def test_fraction_calls_are_detected():
    source = "x = Fraction(1)\ndef f():\n    def g():\n        Fraction(2)\n    Fraction\n"
    assert fraction_calls(source) == ["<module>", "g"]


def test_one_number_rule():
    """`ratfunc._rational` and `ratfunc._qdiv` are the one rule for storing an
    exact rational: only ratfunc.py builds a Fraction, apart from the parser
    of a presentation's coefficient tokens such as `1/2`."""
    calls = {p.name: fraction_calls(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    calls.pop("ratfunc.py")
    assert {name: f for name, f in calls.items() if f} == {"gsb.py": ["_parse_relation"]}
