"""Every public function, class, method and property in the package has a
use in the package.

A public name that only tests call is surface to maintain with no caller;
tests should exercise what the program itself runs, and code that only
tests need lives next to them, in ``tests/*_reference.py`` and
``tests/formula_helpers.py``.
"""

import ast
from pathlib import Path

import wittsat
import wittsat.cli
from wittsat.algebra import DiagonalElement

PACKAGE = Path(wittsat.__file__).parent

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def unreferenced_public_names(package: Path) -> set[str]:
    """Public top-level definitions that no other top-level statement uses,
    and public methods and properties (as ``Class.name``) that no code
    outside their own body uses."""
    defined = set()
    used = set()
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    ]
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
                # a definition's own body does not count as a use of it
                used |= _names_used(stmt) - {stmt.name}
            else:
                used |= _names_used(stmt)
    return (defined - used) | _unreferenced_members(trees)


def _annotated_class(annotation, classes, item=False):
    """The package class an annotation names, or with *item* the class of
    a container annotation's items (``list[C]``); None for anything else."""
    if item:
        if not isinstance(annotation, ast.Subscript):
            return None
        annotation = annotation.slice
    if isinstance(annotation, ast.Constant):  # a quoted forward reference
        annotation = ast.Name(id=annotation.value)
    if isinstance(annotation, ast.Name) and annotation.id in classes:
        return annotation.id
    return None


def _call_class(node, classes, returns, item=False):
    """The class a call to a package class or annotated package function
    returns."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return None
    if node.func.id in classes:  # a constructor
        return None if item else node.func.id
    if node.func.id in returns:
        return _annotated_class(returns[node.func.id], classes, item)
    return None


def _local_classes(func, owner, classes, returns):
    """The names of a function bound to one package class by every binding:
    the first parameter of a method, or a name assigned a call's result or
    looped over a call's items.  Any other binding leaves a name untyped."""
    typed = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            typed[id(node.targets[0])] = _call_class(node.value, classes, returns)
        elif isinstance(node, (ast.For, ast.comprehension)):
            typed[id(node.target)] = _call_class(
                node.iter, classes, returns, item=True
            )
    kinds: dict[str, set] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            kinds.setdefault(node.id, set()).add(typed.get(id(node)))
        elif isinstance(node, ast.arg):
            kinds.setdefault(node.arg, set()).add(None)
    if owner is not None and func.args.args:
        kinds[func.args.args[0].arg] = {owner}
    return {
        name: next(iter(k))
        for name, k in kinds.items()
        if len(k) == 1 and None not in k
    }


def _unreferenced_members(trees: list[ast.Module]) -> set[str]:
    """Public methods and properties that no code outside their own body
    uses, as ``Class.name``.

    A use is an attribute access.  Its receiver's class is known when it is
    a class name, a method's first parameter, a call to a package class or
    annotated package function, or a local bound from such a call; the use
    then counts for that class alone.  Otherwise it counts for every class
    with a member of that name.
    """
    classes = {}
    returns = {}
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = {
                    item.name
                    for item in stmt.body
                    if isinstance(item, _FUNCTIONS)
                    and not item.name.startswith("_")
                }
            elif isinstance(stmt, _FUNCTIONS):
                returns[stmt.name] = stmt.returns
    owners: dict[str, set[str]] = {}
    for cls, members in classes.items():
        for name in members:
            owners.setdefault(name, set()).add(cls)
    used = set()

    def visit(node, owner, local, inside):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, _FUNCTIONS):
            local = _local_classes(node, owner, classes, returns)
            if owner is not None:
                inside = inside | {(owner, node.name)}
            owner = None  # a function nested in a method is no method
        elif isinstance(node, ast.Attribute) and node.attr in owners:
            recv = node.value
            if isinstance(recv, ast.Name):
                cls = recv.id if recv.id in classes else local.get(recv.id)
            else:
                cls = _call_class(recv, classes, returns)
            found = owners[node.attr]
            for c in {cls} & found or found:
                if (c, node.attr) not in inside:
                    used.add((c, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, local, inside)

    for tree in trees:
        visit(tree, None, {}, frozenset())
    return {
        f"{cls}.{name}"
        for cls, members in classes.items()
        for name in members
        if (cls, name) not in used
    }


def test_unreferenced_public_names_reads_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def self_only():\n    return self_only()\n\n"
        "class Kept:\n    pass\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Kept, self_only\nfrom . import a\n\n"
        "x = a.used()\n\ndef _private():\n    return Kept\n"
    )
    assert unreferenced_public_names(tmp_path) == {"self_only"}


def test_member_scan_tells_apart_classes_that_share_a_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n"
        "    def show(self):\n        return self.show()\n"
        "    def size(self):\n        return 1\n"
        "    @property\n    def width(self):\n        return self.size()\n\n"
        "class B:\n"
        "    def show(self):\n        return 2\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n"
        "    def size(self):\n        return 3\n\n"
        "def make_b() -> B:\n    return B.make()\n\n"
        "def all_b() -> list[B]:\n    return [B.make()]\n\n"
        "def main(x):\n"
        "    shown = [b.show() for b in all_b()]\n"
        "    return x.width, A().width, make_b().size(), shown\n"
    )
    # A.show calls only itself; A.size is used by A.width through self,
    # B.size and B.show by receivers typed by return annotations
    assert unreferenced_public_names(tmp_path) == {"A.show", "main"}


def test_every_public_name_has_a_use_in_the_package():
    unused = unreferenced_public_names(PACKAGE)
    assert not unused, f"public names only tests use: {sorted(unused)}"


def test_the_sparse_element_has_no_arithmetic():
    # the member scan above reads public names only; the program builds,
    # walks and counts elements, and the ring operations and semantic
    # equality that tests use live in tests/algebra_reference.py
    dunders = {"__add__", "__sub__", "__mul__", "__neg__", "__eq__", "__bool__"}
    defined = sorted(dunders & set(vars(DiagonalElement)))
    assert not defined, f"DiagonalElement defines {defined}"


# The layer functions the benchmark's tracer (wittbench/worker.py) wraps
# by name on wittsat.cli; a traced run stops at the first one missing.
TRACED_CLI_NAMES = (
    "parse_dimacs", "encode_formula", "zero_test_splits", "count_models",
    "models", "cover_verdict", "dpll", "orthogonal_cover_report",
    "matrices_from_text", "witt_rebase", "rebase_residuals",
)


def test_cli_exposes_the_traced_layer_functions():
    missing = [
        name for name in TRACED_CLI_NAMES
        if not callable(getattr(wittsat.cli, name, None))
    ]
    assert not missing, f"wittsat.cli lacks {missing}"
