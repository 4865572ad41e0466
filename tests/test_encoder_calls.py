"""Structure check on the AST: every loss term and readout in `objective.py`
reads latent rows that the trainer encodes, and classifier logits from the
one stacked `classifier_pass`. So no function there but `evaluate` runs the
encoder forward or backward itself, runs the whole classifier, or builds a
per-head net, and only `disc_pass` and `estimate_h_distance` run the
discriminator. The same layering holds in `bounds.py`, which reads the latent
rows the harness encodes, and in `strategies.py`, where only `select` encodes
the rows it is given and the readouts run the classifier through
`ModelBundle.readout` alone.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal"
OBJECTIVE = SRC / "objective.py"
ALLOWED = {"evaluate"}
NET_CALLS = ("forward", "backward", "predict")


def encoder_callers(source: str, attrs=("encode", "readout", "head_net")) -> list[str]:
    """Names of the functions that call `encoder.forward`, `encoder.backward`,
    `classifier.forward`/`.backward`/`.predict`, or a method named in
    `attrs`: by default `.encode(`, `.readout(` (the whole classifier) or
    `.head_net(`."""
    callers = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            attr, owner = node.func.attr, node.func.value
            if attr in attrs or (
                    attr in NET_CALLS and isinstance(owner, ast.Attribute)
                    and owner.attr in ("encoder", "classifier")):
                callers.append(fn.name)
                break
    return callers


def test_checker_flags_encoder_calls():
    source = ("def a(b, x):\n    return b.encoder.forward(x)\n"
              "def c(b, t, d):\n    b.encoder.backward(t, d)\n"
              "def e(b, x):\n    return b.encode(x)\n"
              "def f(b, z):\n    return b.classifier.forward(z)\n"
              "def g(b, z):\n    return b.head_net(0).forward(z)\n"
              "def h(b, z):\n    return b.readout(z)\n"
              "def k(b, z):\n    return b.classifier.predict(z)\n"
              "def m(trunk, z):\n    return DenseNet(trunk).forward(z)\n"
              "def p(b, z, i):\n    return b.disc_logits(z, i)\n")
    assert encoder_callers(source) == ["a", "c", "e", "f", "g", "h", "k"]
    assert encoder_callers(source, ("encode",)) == ["a", "c", "e", "f", "k"]


def test_objective_terms_read_latent_rows():
    callers = [name for name in encoder_callers(OBJECTIVE.read_text()) if name not in ALLOWED]
    assert not callers, f"objective.py functions that run the encoder or classifier: {callers}"


# the functions of objective.py that run the discriminator: the training
# step's pass (which `DiscPass.rerun` runs again through its trace) and the
# h-distance's forward per block
DISC_RUNNERS = {"disc_pass", "estimate_h_distance"}


def discriminator_callers(source: str) -> list[str]:
    """Names of the functions that call `.forward`, `.predict` or `.backward`
    on `<x>.discriminator`."""
    return [fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in NET_CALLS
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "discriminator" for node in ast.walk(fn))]


def test_checker_flags_discriminator_calls():
    source = ("def p(b, z):\n    return b.discriminator.predict(z)\n"
              "def q(b, z, ws):\n    return b.discriminator.forward(z, ws, 'disc')\n"
              "def r(b, t, d):\n    b.discriminator.backward(t, d)\n"
              "def s(trace):\n    return trace.net.forward(trace.acts[0])\n"
              "def t(b):\n    return b.discriminator.layers[0].forward\n"
              "def u(b, z):\n    return b.encoder.predict(z)\n"
              "def v(disc, z):\n    return disc.predict(z)\n")
    assert discriminator_callers(source) == ["p", "q", "r"]


def test_objective_reads_discriminator_decisions_from_one_home():
    # only `disc_pass` and `estimate_h_distance` run the discriminator in
    # objective.py; every decision rate comes from `decision_rates` over the
    # logits of a `BlockLayout`'s blocks
    callers = discriminator_callers(OBJECTIVE.read_text())
    assert set(callers) == DISC_RUNNERS, f"objective.py discriminator runners: {callers}"


def test_bounds_reads_latent_rows():
    callers = encoder_callers((SRC / "bounds.py").read_text())
    assert not callers, f"bounds.py functions that run the encoder or classifier: {callers}"


def test_only_strategy_entry_points_encode():
    # `select` encodes; the readouts take latent rows, and the classifier's
    # logits from `readout`
    callers = encoder_callers((SRC / "strategies.py").read_text(), ("encode",))
    assert callers == ["select"], f"strategies.py functions that run the encoder: {callers}"
