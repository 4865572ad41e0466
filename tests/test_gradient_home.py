"""Structure check on the AST: the network step's gradient has one home.

In `src`, only `training.step_grads` refers to `compute_vh` and
`compute_vlambda`, and both the trainer's step (`training._train_step`) and
the gradient check's cases (`cli.gradcheck_cases`) call `step_grads`. So
`mudal gradcheck` checks the gradient the trainer takes, not a copy of it.

The parameters it steps have one home too: in `src`, only `models` (the
`ModelBundle`) constructs a `ParamSet` or a `Workspace` or calls
`ParamSet.stack`, apart from `nn`'s module-level `ALLOCATE`.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "mudal"
TERMS = ("compute_vh", "compute_vlambda")


def owners(source: str, match) -> set[str]:
    """The functions of `source` holding a node `match` accepts: module-level
    functions by name, methods as `Class.method`, a nested function as the
    function it is nested in, and code outside any function, but the
    imports, as `<module>`."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
            owner = node.name
        elif isinstance(node, ast.ClassDef) and owner == "<module>":
            for child in node.body:
                visit(child, f"{node.name}.{child.name}" if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)) else "<module>")
            return
        if match(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(ast.parse(source), "<module>")
    return found


def referrers(source: str, names) -> set[str]:
    """The `owners` of a reference to any of `names`, by name or as an
    attribute."""
    return owners(source, lambda node: isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.Attribute) and node.attr in names)


# the constructors of a set of parameters and of a workspace, and the
# workspace `nn.ALLOCATE` is an instance of
CONSTRUCTORS = ("ParamSet", "Workspace", "_Allocating")


def builds_parameters(node) -> bool:
    """Whether `node` constructs one of `CONSTRUCTORS`, by name or as an
    attribute, or calls a `.stack` method but NumPy's."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Name):
        return f.id in CONSTRUCTORS
    if not isinstance(f, ast.Attribute):
        return False
    numpy = isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy")
    return f.attr in CONSTRUCTORS or f.attr == "stack" and not numpy


def test_checker_finds_every_reference():
    source = ("from .objective import compute_vh, compute_vlambda\n"
              "def a(cls, alpha):\n    return compute_vh(cls, alpha)\n"
              "def b(cls, alpha):\n    return objective.compute_vlambda(cls, alpha)\n"
              "def c():\n    def inner(cls, alpha):\n        return compute_vh(cls, alpha)\n"
              "    return inner\n"
              "class D:\n    def e(self, cls, alpha):\n        return compute_vh(cls, alpha)\n"
              "    term = compute_vlambda\n"
              "TERM = compute_vh\n"
              "def f(cls, alpha):\n    return step_grads(cls, alpha)\n")
    assert referrers(source, TERMS) == {"a", "b", "c", "D.e", "<module>"}
    assert referrers(source, ("step_grads",)) == {"f"}


def test_only_step_grads_computes_the_network_terms():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name in referrers(path.read_text(), TERMS)}
    assert found == {"training.step_grads"}


def test_the_trainer_and_the_check_both_take_step_grads():
    assert "_train_step" in referrers((SRC / "training.py").read_text(), ("step_grads",))
    assert "gradcheck_cases" in referrers((SRC / "cli.py").read_text(), ("step_grads",))


def test_a_check_with_its_own_copy_of_the_gradient_is_flagged():
    # the command's cases rewritten to compute V_h themselves
    planted = (SRC / "cli.py").read_text().replace("step_grads(", "compute_vh(")
    assert "gradcheck_cases" in referrers(planted, TERMS)
    assert "gradcheck_cases" not in referrers(planted, ("step_grads",))


def test_checker_finds_every_set_stack_and_workspace_built():
    source = ("from .nn import ParamSet, Workspace\n"
              "def a(bundle):\n    return ParamSet(bundle.encoder.layers)\n"
              "def b(pset):\n    return nn.Workspace(pset.grad_views())\n"
              "def c(pset, layers):\n    return pset.stack(layers)\n"
              "def d(rows):\n    return np.stack(rows), numpy.stack(rows)\n"
              "def e(ws: Workspace = ALLOCATE) -> ParamSet:\n    return ws\n"
              "ALLOCATE = _Allocating({})\n")
    assert owners(source, builds_parameters) == {"a", "b", "c", "<module>"}


def test_only_models_builds_sets_stacks_and_workspaces():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py")
             for name in owners(path.read_text(), builds_parameters)}
    assert {name for name in found if not name.startswith("models.")} == {"nn.<module>"}
    assert "models.ModelBundle.__post_init__" in found


def test_a_round_that_builds_its_own_workspace_is_flagged():
    # the trainer's round rewritten to lay its workspace out itself
    planted = (SRC / "training.py").read_text().replace(
        "ws = bundle.workspace()", "ws = Workspace(bundle.net_params.grad_views())")
    assert "_run_epochs" in owners(planted, builds_parameters)
