"""The package has one engine, the first-passage system.

Every value the package reports reads it (``test_scope_gate``).  The path
sums over a word ball that the tests hold it to live in ``exact``: no
module in ``src/freewalk`` defines or names a path operator, a word tree,
convolution powers, a radial check, sphere sizes from the growth series,
a word ball or a sphere enumeration.  An engine that falls back to path
sums for a measure off the system fails here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freewalk"
ENGINE = {
    "PathOperator", "_WordTree", "convolve_powers", "is_radial", "sphere_sizes",
    "_word_ball", "ball", "enumerate_sphere",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_module_defines_a_path_sum():
    defined = sorted(
        (name, node.name)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in ENGINE
    )
    assert defined == []


def _names(tree):
    """The identifiers a module names: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            yield node.asname


def test_no_module_names_a_path_sum():
    named = sorted(
        (name, ident)
        for name, tree in _modules()
        for ident in set(_names(tree))
        if ident in ENGINE
    )
    assert named == []
