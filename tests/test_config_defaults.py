"""Structure check on the AST: a config default has one home, its field. No
function in the package gives a parameter named after a field of
`TrainConfig`, `ExperimentConfig` or `RotatingSpec` that field's own default
value; a caller passes the config's value instead, so a changed default
reaches every run. A parameter of that name with another default (the T = 1
of `softmax`, `out_dir=None`) is a different setting and passes.
"""
import ast
import pathlib
from dataclasses import MISSING, fields

import pytest

from mudal.config import ExperimentConfig
from mudal.data import RotatingSpec
from mudal.training import TrainConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal"
MODULES = sorted(SRC.glob("*.py"))


def config_defaults() -> dict[str, list]:
    """Field name -> its defaults across the config classes."""
    defaults = {}
    for cls in (TrainConfig, ExperimentConfig, RotatingSpec):
        for f in fields(cls):
            if f.default is not MISSING:
                defaults.setdefault(f.name, []).append(f.default)
    return defaults


def copied_defaults(source: str, defaults: dict) -> list[str]:
    """`function(parameter=default)` for each parameter whose literal default
    equals a default of the config field it is named after."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                 *((a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)]
        for arg, node in pairs:
            if arg.arg not in defaults:
                continue
            try:
                value = ast.literal_eval(node)
            except ValueError:  # not a literal, e.g. a module constant
                continue
            if value in defaults[arg.arg]:
                found.append(f"{fn.name}({arg.arg}={ast.unparse(node)})")
    return found


def test_checker_flags_copied_defaults():
    defaults = {"temperature": [0.5], "lambda_d": [1.0], "seed": [0], "out_dir": ["out"],
                "encoder_hidden": [(32,)]}
    source = ("def f(x, temperature=0.5, lambda_d=1.0):\n    pass\n"
              "def g(*, seed=0, encoder_hidden=(32,)):\n    pass\n"
              "def softmax(logits, temperature=1.0):\n    pass\n"
              "def run(cfg, out_dir=None, lr=0.5, seed=SEED):\n    pass\n"
              "def h(temperature, lambda_d):\n    pass\n")
    assert copied_defaults(source, defaults) == [
        "f(temperature=0.5)", "f(lambda_d=1.0)", "g(seed=0)", "g(encoder_hidden=(32,))"]


def test_config_defaults_are_read_from_the_fields():
    defaults = config_defaults()
    assert defaults["temperature"] == [0.5]
    assert defaults["lambda_d"] == [1.0]
    assert "train" not in defaults  # a default_factory has no literal to copy


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_copies_a_config_default(path):
    copied = copied_defaults(path.read_text(), config_defaults())
    assert not copied, f"{path.name}: {copied}; pass the config's value instead"
