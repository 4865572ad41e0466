"""Unused-import check for the package modules, done on the AST because no
linter is available offline.

A name bound by an import must be referenced somewhere else in its module.
`__init__.py` is exempt: its imports are the package's exports.
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
