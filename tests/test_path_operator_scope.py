"""The path operator computes convolution powers and nothing else.

Every value the package reports reads the first-passage system
(``test_scope_gate``), so no module but ``walks`` may name the path
operator or its word tree, and in ``walks`` only ``convolve_powers``
builds one.  An engine that falls back to path sums for a measure off the
system fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freewalk"
ENGINE = {"PathOperator", "_WordTree"}


def _uses(tree):
    """(name, enclosing definition, node) of each use of an ``ENGINE``
    name: as a name, an attribute or an import."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            names = []
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.alias):
                names = [child.name, child.asname]
            for name in ENGINE.intersection(names):
                out.append((name, ".".join(scope), child))
            visit(child, scope)

    visit(tree, ())
    return out


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_other_module_names_the_path_operator():
    named = sorted(
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        if path.name != "walks.py"
        for name, _, _ in _uses(_tree(path))
    )
    assert named == []


def test_only_convolve_powers_builds_a_path_operator():
    tree = _tree(PACKAGE / "walks.py")
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    # (enclosing definition, whether it is called) of each use
    uses = sorted(
        (scope, id(node) in calls) for name, scope, node in _uses(tree)
        if name == "PathOperator"
    )
    assert uses == [("convolve_powers", True)]
