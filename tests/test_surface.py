"""Every public function and class in the package has a use in the package.

A public name that only tests call is surface to maintain with no caller;
tests should exercise what the program itself runs.  The few exemptions
below are kept on purpose, each for the reason given.
"""

import ast
from pathlib import Path

import wittsat
import wittsat.cli

PACKAGE = Path(wittsat.__file__).parent

EXEMPT = {
    "identity_element": "the algebra's unit, the reference element of tests",
    "omega_element": "the volume element, for the models-by-component count",
    "serialize_dimacs": "writes the DIMACS format that parse_dimacs reads",
    "matrix_to_text": "writes the matrix format that the rebase command reads",
    "sample_orthogonal": "makes the orthogonal matrices that rebase takes",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def unreferenced_public_names(package: Path) -> set[str]:
    """Public top-level definitions that no other top-level statement uses."""
    defined = set()
    used = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, _DEFINITIONS):
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
                # a definition's own body does not count as a use of it
                used |= _names_used(stmt) - {stmt.name}
            else:
                used |= _names_used(stmt)
    return defined - used


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


def test_every_public_name_has_a_use_in_the_package():
    unused = unreferenced_public_names(PACKAGE) - set(EXEMPT)
    assert not unused, f"public names only tests use: {sorted(unused)}"


def test_exemptions_are_still_defined_and_unused():
    # an exemption that gained a caller, or lost its definition, is stale
    assert set(EXEMPT) <= unreferenced_public_names(PACKAGE)


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
