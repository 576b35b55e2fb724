"""Every public function and method of the package has a caller, and
every defaulted parameter of one is set by some caller.

A public module-level function counts as called when its name appears as
an identifier (a name, an attribute, or a string naming a hook target)
somewhere in ``src/freewalk`` or ``perfbench/`` outside its own definition.
A public method counts as called only through an attribute or a hook
string: a local variable that shares its name calls nothing.  Tests do
not count: an entry point that only a test reaches is dead API.

A defaulted parameter (a knob) of a public function, method or class
constructor counts as set when a call in the same code, outside the
definition itself, passes it by position or by keyword, or passes
``*args`` or ``**kwargs`` that may hold it.  Calls are matched by name: a
function by its name, a method by its attribute, a constructor by its
class name.  A knob that only a test sets is a branch without a caller.
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

# Knobs kept though no caller in the package sets them, with the reason
ALLOWED_KNOBS = {
    "ancona_audit.n_triples": "sample size of the audit; tests shrink it to stay fast",
    "ancona_audit.max_rel_dist": "sampling radius of the audit; tests set it on Z2 * Z3",
    "induced_green.factor_ball": "factor ball of the induced walk; kernel tests widen it",
    "syllable_choices.cap": "lattice syllable cap of the audit's words; its default is the audit's",
}


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


def _knob_defs(tree):
    """(qualified name, def node, positional offset, callee name) of every
    public function, method and public-class constructor; the offset is 1
    where a bound ``self`` or ``cls`` takes the first parameter."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield f"{node.name}.__init__", item, 1, node.name
    for qualname, name, node in _public_defs(tree):
        yield qualname, node, int("." in qualname), name


def _knobs(node):
    """(name, position) of the defaulted parameters of a def; the
    position of a keyword-only one is None."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _sets(call, knob, position, offset):
    """Whether ``call`` passes the knob, or may through * or **."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == knob for k in call.keywords):
        return True
    return position is not None and len(call.args) > position - offset


def _unset_knobs():
    trees = list(_trees())
    calls = [node for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for path, tree in trees:
        if PACKAGE not in path.parents:
            continue
        for qualname, node, offset, callee in _knob_defs(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            sites = [c for c in calls if _callee(c) == callee and id(c) not in inside]
            for knob, position in _knobs(node):
                if not any(_sets(c, knob, position, offset) for c in sites):
                    unset.append(f"{qualname.removesuffix('.__init__')}.{knob}")
    return unset


def test_every_knob_is_set_by_a_caller():
    unset = [name for name in _unset_knobs() if name not in ALLOWED_KNOBS]
    assert not unset, f"defaulted parameters no caller sets: {unset}"


def test_allowed_knobs_name_existing_parameters():
    defined = {
        f"{qualname.removesuffix('.__init__')}.{knob}"
        for path, tree in _trees()
        if PACKAGE in path.parents
        for qualname, node, _, _ in _knob_defs(tree)
        for knob, _ in _knobs(node)
    }
    assert set(ALLOWED_KNOBS) <= defined
