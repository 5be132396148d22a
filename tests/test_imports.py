"""The three decision routes stay independent: the algebraic product
(algebra, encoding), the sign-pattern cover (geometry) and DPLL (oracle).
Their agreement is the correctness argument, so no route may import
another's code.  The orthogonal-group layer (ortho) computes its discrete
cover on its own, so it mirrors the cover route without sharing code with
any route.  The truth table and the exact matrix backend that the tests
compare the routes against (tests/oracle_reference.py, with the basis terms
of tests/algebra_reference.py it builds on) keep the rule of oracle."""

import ast
from pathlib import Path

import wittsat

PACKAGE = Path(wittsat.__file__).parent
TESTS = Path(__file__).parent

FORBIDDEN = {
    PACKAGE / "geometry.py": {"oracle", "algebra", "encoding"},
    PACKAGE / "oracle.py": {"algebra", "encoding", "geometry"},
    PACKAGE / "algebra.py": {"geometry", "oracle"},
    PACKAGE / "encoding.py": {"geometry", "oracle"},
    PACKAGE / "ortho.py": {"geometry", "oracle", "algebra", "encoding"},
    TESTS / "oracle_reference.py": {"encoding", "geometry"},
    TESTS / "algebra_reference.py": {"encoding", "geometry"},
}


def package_imports(path: Path) -> set[str]:
    """The wittsat modules that a source file imports, in any form."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("wittsat."):
                found.add(node.module.split(".")[1])
            elif node.module == "wittsat":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("wittsat."):
                    found.add(alias.name.split(".")[1])
    return found


def test_package_imports_reads_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .algebra import x\nfrom . import cnf\n"
        "from wittsat.oracle import y\nfrom wittsat import ortho\n"
        "import wittsat.geometry\nimport numpy\n"
    )
    assert package_imports(probe) == {
        "algebra", "cnf", "oracle", "ortho", "geometry"
    }


def test_routes_do_not_import_each_other():
    for path, forbidden in FORBIDDEN.items():
        shared = package_imports(path) & forbidden
        assert not shared, f"{path.name} imports {sorted(shared)}"
