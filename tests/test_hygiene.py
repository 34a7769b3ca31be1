"""Source hygiene: every name a module of the package imports is used in that
module, and every function, class and public method it defines is used somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srfield"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nsys.exit(d)\n"
    assert unused_imports(source) == ["os (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """Module-level functions and classes, and the public methods of those classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((item.name, item.lineno) for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def references(source: str) -> set[str]:
    """Names read as variables or attributes; an import alone is not a use."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_definitions_and_references():
    source = ("import x\nclass A:\n    def used(self): pass\n    def idle(self): pass\n"
              "    def _private(self): pass\ndef f(): return A().used\ndef g(): pass\n")
    assert definitions(source) == [("A", 2), ("used", 3), ("idle", 4), ("f", 6), ("g", 7)]
    assert references(source) == {"A", "used"}


def test_no_dead_definitions():
    used: set[str] = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used |= references(path.read_text())
    dead = ["%s:%d %s" % (path.name, line, name)
            for path in MODULES
            for name, line in definitions(path.read_text())
            if name not in used]
    assert dead == []
