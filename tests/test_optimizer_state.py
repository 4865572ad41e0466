"""Structure check on the AST: the optimizer state has one home. No module but
`nn.py` names `AdamState` or `adam_step`; every other one steps parameters
through `ParamSet.step`, and each `ParamSet` holds its own Adam state.
"""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "nn.py")
OPTIMIZER_NAMES = {"AdamState", "adam_step"}


def optimizer_names(source: str) -> list[str]:
    """The optimizer names a module mentions: as a name, an attribute or an
    import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
            found.add(node.name)
    return sorted(found & OPTIMIZER_NAMES)


def test_checker_flags_optimizer_names():
    source = ("from .nn import AdamState as State\n"
              "def f(nn, p, g, s):\n    nn.adam_step(p, g, s, 0.1)\n"
              "def g(params, grads):\n    params.step(grads, 0.1)\n")
    assert optimizer_names(source) == ["AdamState", "adam_step"]
    assert optimizer_names("def g(params, grads):\n    params.step(grads, 0.1)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_nn_names_the_optimizer_state(path):
    names = optimizer_names(path.read_text())
    assert not names, f"{path.name} names {names}; step a ParamSet instead"
