"""Unused-name checks for the package modules, done on the AST because no
linter is available offline.

A name bound by an import must be referenced somewhere else in its module.
`__init__.py` is exempt: its imports are the package's exports. A private
module-level name (one leading underscore) must be referenced somewhere in
the package beyond its own definition.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}  # bound name -> the import as written
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    f"from {'.' * node.level}{node.module or ''} import {alias.name}")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside quoted annotations, e.g. "DenseNet"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [stmt for name, stmt in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["import os",
                                                                     "from a import b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name}: unused {unused}"


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """`module: name` for each private module-level name of the given
    modules' sources that no module reads, as a name or an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [f"{module}: {name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [entry for entry in defined if entry.split(": ")[1] not in used]


def test_checker_flags_an_orphaned_private_name():
    sources = {"a": "_kept = 1\n_lost = 2\ndef _f():\n    return _kept\n__all__ = []\n",
               "b": "from a import _f\n_f()\nclass _Gone:\n    pass\n"}
    assert orphaned_private_names(sources) == ["a: _lost", "b: _Gone"]


def test_no_orphaned_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert not orphaned_private_names(sources)
