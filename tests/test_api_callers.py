"""Every public function and method of the package has a caller.

A public module-level function counts as called when its name appears as
an identifier (a name, an attribute, or a string naming a hook target)
somewhere in ``src/freewalk`` or ``perfbench/`` outside its own definition.
A public method counts as called only through an attribute or a hook
string: a local variable that shares its name calls nothing.  Tests do
not count: an entry point that only a test reaches is dead API.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freewalk"
SCANNED = (PACKAGE, ROOT / "perfbench")

# Public API kept without a caller in the package, with the reason; empty,
# since test-only helpers live in the tests (``oracles``)
ALLOWED = {}


def _trees():
    for base in SCANNED:
        for path in sorted(base.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_defs(tree):
    """(qualified name, bare name, def node) of the public API of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _identifiers(node, names=True):
    """Counter of the attributes and hook strings used under ``node``, and
    of its bare names too with ``names``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += names
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out[sub.value] += 1
    return out


def test_every_public_definition_has_a_caller():
    trees = list(_trees())
    used = {names: sum((_identifiers(tree, names) for _, tree in trees), Counter())
            for names in (True, False)}
    uncalled = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for qualname, name, node in _public_defs(tree):
            if qualname in ALLOWED:
                continue
            names = "." not in qualname  # a method is called as an attribute
            if used[names][name] - _identifiers(node, names)[name] <= 0:
                uncalled.append(f"{path.name}:{qualname}")
    assert not uncalled, f"public API without a caller: {uncalled}"


def test_allow_list_names_existing_definitions():
    defined = {
        qualname
        for path, tree in _trees()
        if PACKAGE in path.parents
        for qualname, _, _ in _public_defs(tree)
    }
    assert set(ALLOWED) <= defined
