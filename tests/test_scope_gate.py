"""The first-passage system is read at one gate and three engine choices.

``StepMeasure.route`` is the one place that refuses a measure outside the
system, with the one message ``algebraic.SCOPE``.  Beside it, only the
places that choose an engine, and fall back to the path operator, read
``first_passage_system`` itself: the Green evaluator, the first-return
kernels and the CLI's return sequence.  A value that needs the system
reads ``route``; a new site that tests the system for None, or a second
wording of the refusal, fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freewalk"

# (module, enclosing definition) of every read of ``first_passage_system``
READERS = {
    ("walks.py", "StepMeasure.first_passage_system"),  # builds it, once per measure
    ("walks.py", "StepMeasure.route"),  # the gate
    ("green.py", "GreenEvaluator.__init__"),  # point values off the system, else the convolution table
    ("parabolic.py", "first_return_kernel"),  # kernel rows: system or path operator
    ("cli.py", "Shared.returns"),  # return sequence: system or exact convolution
}


def _reads(name):
    """(module, enclosing definition) of each use of identifier ``name``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, scope + (child.name,))
                    continue
                if (isinstance(child, ast.Attribute) and child.attr == name) or (
                    isinstance(child, ast.Name) and child.id == name
                ):
                    out.append((path.name, ".".join(scope)))
                visit(child, scope)

        visit(tree, ())
    return out


def _message_literals():
    """(module, text) of the string literals of the package, docstrings
    excepted, that name the first-passage system."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and "first-passage system" in node.value):
                out.append((path.name, node.value))
    return out


def test_the_system_is_read_only_at_the_gate_and_the_engine_choices():
    reads = set(_reads("first_passage_system"))
    assert reads <= READERS, f"reads outside the gate: {sorted(reads - READERS)}"
    # each listed site still reads it, so the list cannot go stale
    assert reads == READERS, f"listed but not reading: {sorted(READERS - reads)}"


def test_the_scope_refusal_has_one_wording():
    literals = _message_literals()
    assert len(literals) == 1, literals
    (module, text), = literals
    assert module == "algebraic.py" and text.startswith("this value needs the first-passage system")
    # and one place raises it
    assert set(_reads("SCOPE")) == {("algebraic.py", ""), ("walks.py", "StepMeasure.route")}
