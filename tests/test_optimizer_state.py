"""Structure check on the AST: the optimizer state has one home. No module but
`nn.py` names `AdamState` or `adam_step`; every other one steps parameters
through `ParamSet.step`, and each `ParamSet` holds its own Adam state. No
module but `nn.py` rebinds a layer's `W` or `b`, since a `ParamSet`'s layers
must keep viewing its flat parameter vector; writes into them stay allowed.
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


PARAM_ATTRS = {"W", "b"}


def param_rebinds(source: str) -> list[int]:
    """Lines that assign a `.W` or `.b` attribute, directly, augmented, in a
    tuple target or by `setattr`; a write into the array (`x.W[...] = v`)
    is not a rebinding."""
    lines = []

    def flag(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                flag(element)
        elif isinstance(target, ast.Starred):
            flag(target.value)
        elif isinstance(target, ast.Attribute) and target.attr in PARAM_ATTRS:
            lines.append(target.lineno)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                flag(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            flag(node.target)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in PARAM_ATTRS):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_param_rebinds():
    source = ("def f(layer, other, x):\n"
              "    layer.W = x\n"
              "    layer.b += x\n"
              "    other.W, n = x, 1\n"
              "    setattr(layer, 'b', x)\n"
              "    layer.W[...] = x\n"
              "    layer.b[0] += 1.0\n"
              "    layer.Wx = x\n"
              "    w = layer.W\n")
    assert param_rebinds(source) == [2, 3, 4, 5]
    assert param_rebinds("def g(layer, x):\n    layer.W[:] = x\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_nn_rebinds_layer_params(path):
    lines = param_rebinds(path.read_text())
    assert not lines, f"{path.name} rebinds a layer's W or b at lines {lines}; write into it"
