"""Structure check on the AST: every loss term and readout in `objective.py`
reads latent rows that the trainer encodes, so no function there but
`evaluate` runs the encoder forward or backward itself.
"""
import ast
import pathlib

OBJECTIVE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal" / "objective.py"
ALLOWED = {"evaluate"}


def encoder_callers(source: str) -> list[str]:
    """Names of the functions that call `encoder.forward`, `encoder.backward`
    or `.encode(`."""
    callers = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if attr == "encode" or (attr in ("forward", "backward")
                                    and isinstance(owner, ast.Attribute)
                                    and owner.attr == "encoder"):
                callers.append(fn.name)
                break
    return callers


def test_checker_flags_encoder_calls():
    source = ("def a(b, x):\n    return b.encoder.forward(x)\n"
              "def c(b, t, d):\n    b.encoder.backward(t, d)\n"
              "def e(b, x):\n    return b.encode(x)\n"
              "def f(b, z):\n    return b.classifier.forward(z)\n")
    assert encoder_callers(source) == ["a", "c", "e"]


def test_objective_terms_read_latent_rows():
    callers = [name for name in encoder_callers(OBJECTIVE.read_text()) if name not in ALLOWED]
    assert not callers, f"objective.py functions that run the encoder: {callers}"
