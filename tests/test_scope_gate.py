"""The first-passage system is read where it is built and at one gate.

``StepMeasure.route`` is the one place that decides whether a measure is
reported on.  It refuses a measure outside the system (``algebraic.SCOPE``),
one whose support does not generate the group (``walks.INADMISSIBLE``) and
a walk on Z2 * Z2 (``walks.ELEMENTARY``), each with its one message.
Beside it, only the cached property that builds the system once per
measure reads ``first_passage_system`` itself.  Every value, the Green
evaluator's, the first-return kernels' and the CLI's return sequence among
them, reads ``route``; a new site that tests the system for None, and so
could fall back to another engine, a second wording or raise site of a
refusal, or a warning that lets a run go on, fails here.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from freewalk.errors import GroupSpecError
from freewalk.green import GreenEvaluator
from freewalk.groups import FreeProduct, cyclic_factor
from freewalk.parabolic import degeneracy_test, first_return_kernel
from freewalk.thermo import pressure
from freewalk.walks import (
    ELEMENTARY, INADMISSIBLE, StepMeasure, return_probabilities, uniform_on_generators,
)

# (module, name, opening words) of each refusal of ``StepMeasure.route``
REFUSALS = [
    ("algebraic.py", "SCOPE", "this value needs the first-passage system"),
    ("walks.py", "INADMISSIBLE", "the measure is not admissible"),
    ("walks.py", "ELEMENTARY", "the group is elementary"),
]

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freewalk"

# (module, enclosing definition) of every read of ``first_passage_system``
READERS = {
    ("walks.py", "StepMeasure.first_passage_system"),  # builds it, once per measure
    ("walks.py", "StepMeasure.route"),  # the gate
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


def _message_literals(words):
    """(module, text) of the string literals of the package, docstrings
    excepted, that contain ``words``."""
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
                    and words in node.value):
                out.append((path.name, node.value))
    return out


def test_the_system_is_read_only_at_the_gate_and_the_engine_choices():
    reads = set(_reads("first_passage_system"))
    assert reads <= READERS, f"reads outside the gate: {sorted(reads - READERS)}"
    # each listed site still reads it, so the list cannot go stale
    assert reads == READERS, f"listed but not reading: {sorted(READERS - reads)}"


def test_the_scope_refusal_has_one_wording():
    # and so has each refusal of the gate, and the gate is its one raise site
    for module, name, words in REFUSALS:
        literals = _message_literals(words)
        assert len(literals) == 1, literals
        (found, text), = literals
        assert found == module and text.startswith(words)
        assert set(_reads(name)) == {(module, ""), ("walks.py", "StepMeasure.route")}, name


def test_no_module_warns():
    # a measure is reported on or refused; nothing warns and carries on
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "warnings" not in names, path.name


def _z2z2():
    return uniform_on_generators(FreeProduct([cyclic_factor(2)] * 2))


def _z4z3_t2():
    # t^2 (1/2) and u^{+-1} (1/4 each): the walk stays on Z2 * Z3
    group = FreeProduct([cyclic_factor(4), cyclic_factor(3)])
    return StepMeasure(group, {((0, 2),): Fraction(1, 2), ((1, 1),): Fraction(1, 4),
                               ((1, 2),): Fraction(1, 4)})


VALUES = {
    "GreenEvaluator": GreenEvaluator,
    "degeneracy_test": lambda mu: degeneracy_test(mu, 1.0),
    "pressure": lambda mu: pressure(mu, 1.0),
    "first_return_kernel": lambda mu: first_return_kernel(mu, 0, Fraction(1), 4),
    "return_probabilities": lambda mu: return_probabilities(mu, 10),
}


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("measure, reason", [(_z2z2, ELEMENTARY), (_z4z3_t2, INADMISSIBLE)],
                         ids=["z2z2", "z4z3_t2"])
def test_every_value_refuses_with_the_reason(value, measure, reason):
    mu = measure()
    with pytest.raises(GroupSpecError) as err:
        VALUES[value](mu)
    assert str(err.value) == reason
    assert "first_passage_system" not in vars(mu)  # the system was never built
